"""The bench regression gate: compare two BENCH_results.json payloads.

``BENCH_results.json`` is the committed performance trajectory of the
simulator — per-figure events/sec and wall time at quick scale, with
bit-identical-fingerprint verification.  This module turns that one-shot
artifact into a **machine-checkable gate**: :func:`compare_bench` takes
an old (baseline) and a new payload and produces a deterministic
``repro-telemetry/1`` report of per-figure throughput ratios and
wall-time deltas; any figure whose events/sec falls below ``threshold``
× baseline is a **regression**, and ``python -m repro bench --compare
OLD.json`` exits non-zero so CI can hold the line against the committed
baseline.

Determinism: figures are ordered by sorted name, the report is plain
JSON-ready data with no wall-clock stamps of its own, and identical
inputs produce byte-identical reports.  Figures present on only one side
are reported (``new`` / ``removed``) but never fail the gate — adding a
scenario must not look like a regression.  Figures benched with
``jobs > 1`` report ``events_per_sec == 0`` (events execute in workers);
those are marked ``skipped`` rather than compared against garbage.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping

from repro.schemas import SCHEMAS

#: Version tag of the comparison report.
TELEMETRY_SCHEMA = SCHEMAS["telemetry"]

#: Default gate: fail when a figure drops below 75% of baseline
#: events/sec (quick-scale wall times are noisy; 25% headroom holds the
#: trajectory without flaking on scheduler jitter).
DEFAULT_THRESHOLD = 0.75

#: Bench payload schemas this gate knows how to read: the current id
#: plus the superseded bench ids (old baselines stay comparable — every
#: bench version so far kept the per-figure events_per_sec/wall_s core).
_KNOWN_BENCH_SCHEMAS = (
    "repro-bench/1", "repro-bench/2", "repro-bench/3", SCHEMAS["bench"],
)


class CompareError(ValueError):
    """Unreadable or foreign-schema bench payload handed to the gate."""


def load_bench_payload(path: str) -> Dict[str, Any]:
    """Load one BENCH_results.json; rejects foreign schemas clearly."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CompareError(f"cannot read bench payload {path}: {exc}") from exc
    schema = payload.get("schema")
    if schema not in _KNOWN_BENCH_SCHEMAS:
        raise CompareError(
            f"{path}: schema {schema!r} is not a bench payload "
            f"(known: {', '.join(_KNOWN_BENCH_SCHEMAS)})"
        )
    if not isinstance(payload.get("figures"), dict):
        raise CompareError(f"{path}: bench payload has no figures table")
    return payload


def compare_bench(
    old: Mapping[str, Any],
    new: Mapping[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> Dict[str, Any]:
    """Per-figure throughput/wall deltas between two bench payloads.

    Returns the ``repro-telemetry/1`` report::

        {"schema": "repro-telemetry/1", "threshold": 0.75,
         "figures": [{"name": ..., "verdict": "ok" | "regression" |
                      "improved" | "new" | "removed" | "skipped",
                      "old_events_per_sec": ..., "new_events_per_sec": ...,
                      "throughput_ratio": ..., "old_wall_s": ...,
                      "new_wall_s": ..., "wall_delta_s": ...}, ...],
         "regressions": [names...], "ok": bool}

    ``ok`` is ``False`` iff at least one figure regressed.  ``improved``
    marks figures at ≥ 1/threshold × baseline (the same margin, upward)
    so a gate run also surfaces wins.
    """
    if not 0 < threshold <= 1:
        raise CompareError(
            f"threshold must be in (0, 1], got {threshold}"
        )
    old_figures = dict(old.get("figures", {}))
    new_figures = dict(new.get("figures", {}))
    rows: List[Dict[str, Any]] = []
    regressions: List[str] = []
    for name in sorted(set(old_figures) | set(new_figures)):
        old_row = old_figures.get(name)
        new_row = new_figures.get(name)
        row: Dict[str, Any] = {
            "name": name,
            "old_events_per_sec": (
                old_row.get("events_per_sec") if old_row else None
            ),
            "new_events_per_sec": (
                new_row.get("events_per_sec") if new_row else None
            ),
            "old_wall_s": old_row.get("wall_s") if old_row else None,
            "new_wall_s": new_row.get("wall_s") if new_row else None,
            "throughput_ratio": None,
            "wall_delta_s": None,
        }
        if old_row is None:
            row["verdict"] = "new"
        elif new_row is None:
            row["verdict"] = "removed"
        else:
            old_eps = float(old_row.get("events_per_sec") or 0.0)
            new_eps = float(new_row.get("events_per_sec") or 0.0)
            row["wall_delta_s"] = (
                float(new_row.get("wall_s") or 0.0)
                - float(old_row.get("wall_s") or 0.0)
            )
            if old_eps <= 0 or new_eps <= 0:
                # jobs > 1 benches report 0 events/sec (events execute
                # in workers); nothing meaningful to gate on.
                row["verdict"] = "skipped"
            else:
                ratio = new_eps / old_eps
                row["throughput_ratio"] = ratio
                if ratio < threshold:
                    row["verdict"] = "regression"
                    regressions.append(name)
                elif ratio > 1.0 / threshold:
                    row["verdict"] = "improved"
                else:
                    row["verdict"] = "ok"
        rows.append(row)
    return {
        "schema": TELEMETRY_SCHEMA,
        "threshold": threshold,
        "figures": rows,
        "regressions": regressions,
        "ok": not regressions,
    }


def render_compare(report: Mapping[str, Any]) -> str:
    """Human-readable table for one comparison report."""
    lines = [
        f"[compare] bench regression gate, threshold "
        f"{report['threshold']:g}x baseline events/sec",
        f"[compare] {'figure':14s} {'old ev/s':>12s} {'new ev/s':>12s} "
        f"{'ratio':>7s} {'wall Δs':>9s}  verdict",
    ]
    for row in report["figures"]:
        old_eps = row["old_events_per_sec"]
        new_eps = row["new_events_per_sec"]
        ratio = row["throughput_ratio"]
        delta = row["wall_delta_s"]
        lines.append(
            f"[compare] {row['name']:14s} "
            + (f"{old_eps:>12.0f} " if old_eps is not None else f"{'—':>12s} ")
            + (f"{new_eps:>12.0f} " if new_eps is not None else f"{'—':>12s} ")
            + (f"{ratio:>7.2f} " if ratio is not None else f"{'—':>7s} ")
            + (f"{delta:>+9.2f} " if delta is not None else f"{'—':>9s} ")
            + f" {row['verdict']}"
        )
    if report["regressions"]:
        lines.append(
            "[compare] REGRESSION: "
            + ", ".join(report["regressions"])
            + f" below {report['threshold']:g}x baseline"
        )
    else:
        lines.append("[compare] ok: no figure below threshold")
    return "\n".join(lines) + "\n"


def write_report(report: Mapping[str, Any], path: str) -> None:
    """Persist a comparison report (sorted keys, trailing newline)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
