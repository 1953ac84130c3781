"""Timed figure campaigns + bit-identical verification + BENCH baseline.

Each benched figure is executed twice at quick scale:

1. a *timed* run with the configured job count, the controller's timing
   plan cache, and the cross-run index cache enabled (the production
   path), and
2. a *reference* run, serial and with ``REPRO_DISABLE_PLAN_CACHE=1`` and
   ``REPRO_DISABLE_INDEX_CACHE=1`` (the always-recompute path),

and the two runs' :class:`~repro.core.metrics.Report` fingerprints —
cycle counts, energy components, task counts — must match exactly.  The
optimizations are pure host-side work elision (scheduling plans, index
construction); any divergence is a bug, so the harness hard-asserts
rather than warning.

``BENCH_results.json`` schema (``repro-bench/4``)::

    {
      "schema": "repro-bench/4",
      "created_unix": <float, seconds since epoch>,
      "scale": "quick",
      "jobs": <int>,
      "repeats": <int>,               # timed runs per figure; wall_s /
                                      # events_per_sec are the best run
                                      # (machine noise at quick scale is
                                      # +/-20%; best-of-N is stable)
      "figures": {
        "<figure>": {
          "wall_s": <float>,          # best timed-run wall clock
          "events": <int>,            # simulation events executed
          "events_per_sec": <float>,  # events / wall_s (0 when jobs > 1:
                                      # events then execute in workers)
          "fingerprint_sha256": <str>,  # sha256 of the timed run's
                                      # fingerprint(): two payloads' figures
                                      # simulated the same iff these match
          "occupancy": <dict or null>,  # event-queue stats from
                                      # Engine.process_occupancy(): events
                                      # enqueued, cycles started, avg
                                      # events per populated cycle
          "verified_identical": <bool or null>,  # null = verify skipped
          "reference_wall_s": <float or null>,  # serial/uncached run wall
                                      # clock (null = verify skipped);
                                      # wall_s vs this shows the cache win
          "index_cache": <dict or null>,  # in-process index-cache counter
                                      # deltas over the timed run (hits/
                                      # misses/build_s/...); undercounts
                                      # when jobs > 1 (workers keep their
                                      # own caches)
          "attribution": <dict or null>  # latency attribution from an
                                      # in-stream profiled pass (request/
                                      # task phase totals in cycles plus a
                                      # per-system bound verdict); null
                                      # unless benched with attribution
        }, ...
      },
      "previous": <dict or null>,     # baseline block lifted from the
                                      # output file being overwritten:
                                      # {schema, created_unix,
                                      # events_per_sec: {figure: eps},
                                      # geomean_speedup} — the committed
                                      # history of the perf trajectory
      "total_wall_s": <float>
    }
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.metrics import Report
from repro.experiments import ExperimentScale, ParallelSweepRunner
from repro.experiments.scenarios import (
    SCENARIOS,
    ensure_registered,
    resolve_scenario,
)
from repro.genomics import index_cache
from repro.schemas import SCHEMAS
from repro.sim.engine import Engine

BENCH_SCHEMA = SCHEMAS["bench"]

ensure_registered()

#: The benched campaigns: name -> ``run(scale, runner)`` callable.  Built
#: from the scenario registry, so registration order *is* bench order and
#: every scenario registered by ``ensure_registered`` is benched.
BENCH_FIGURES: Dict[str, Callable[..., Any]] = {
    name: spec.run for name, spec in SCENARIOS.items()
}


def resolve_figure(name: str) -> Optional[str]:
    """Resolve a figure name or alias to its :data:`BENCH_FIGURES` key.

    Delegates to the scenario registry's
    :func:`~repro.experiments.scenarios.resolve_scenario`, so the bench
    key itself (``fig16``), declared aliases, and the experiment-module
    style (``fig16_prealignment``, ``fig16-prealignment``) all work;
    returns ``None`` when nothing matches.
    """
    canonical = resolve_scenario(name)
    return canonical if canonical in BENCH_FIGURES else None


# -- result fingerprinting ---------------------------------------------------------


def _walk_reports(obj: Any) -> Iterator[Report]:
    """Yield every :class:`Report` reachable from a result object, in a
    deterministic traversal order (dataclass field order, list order,
    insertion order for dicts)."""
    if isinstance(obj, Report):
        yield obj
        return
    if is_dataclass(obj) and not isinstance(obj, type):
        for f in fields(obj):
            yield from _walk_reports(getattr(obj, f.name))
        return
    if isinstance(obj, dict):
        for value in obj.values():
            yield from _walk_reports(value)
        return
    if isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _walk_reports(value)


def fingerprint(result: Any) -> List[Tuple]:
    """Exact (bit-identical) digest of every report in a figure result."""
    return [
        (
            r.label,
            r.system,
            r.algorithm,
            r.dataset,
            r.runtime_cycles,
            r.energy_dram_nj,
            r.energy_comm_nj,
            r.energy_compute_nj,
            r.tasks_completed,
            r.mem_requests,
        )
        for r in _walk_reports(result)
    ]


def fingerprint_sha256(result: Any) -> str:
    """Hex sha256 of :func:`fingerprint` (``repr`` of floats is exact)."""
    return hashlib.sha256(repr(fingerprint(result)).encode()).hexdigest()


class BenchMismatchError(AssertionError):
    """A cached/parallel run diverged from the serial/uncached reference."""


# -- the harness -------------------------------------------------------------------


@dataclass
class FigureBenchResult:
    """Timing (and optional latency attribution) of one figure campaign."""

    name: str
    wall_s: float
    events: int
    #: :func:`fingerprint_sha256` of the timed run's result.
    fingerprint_sha256: str = ""
    #: Timed runs taken; ``wall_s``/``events`` are the best (fastest) one.
    repeats: int = 1
    #: Event-queue statistics from the timed run (see
    #: :meth:`repro.sim.engine.Engine.process_occupancy`): events
    #: enqueued, cycles started, avg events per populated cycle.
    occupancy: Optional[Dict[str, Any]] = None
    verified_identical: Optional[bool] = None
    #: Wall clock of the serial/uncached reference run (``None`` when the
    #: verify pass is skipped); ``wall_s`` against this is the combined
    #: plan-cache + index-cache + parallelism win.
    reference_wall_s: Optional[float] = None
    #: In-process index-cache counter deltas over the timed run (see
    #: :func:`repro.genomics.index_cache.cache_stats`); undercounts when
    #: jobs > 1 because pool workers keep their own caches.
    index_cache: Optional[Dict[str, Any]] = None
    #: Compact latency attribution from a profiled pass (see
    #: :func:`bench_figures` ``attribution=``), or ``None``.
    attribution: Optional[Dict[str, Any]] = None

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "wall_s": self.wall_s,
            "events": self.events,
            "events_per_sec": self.events_per_sec,
            "fingerprint_sha256": self.fingerprint_sha256,
            "occupancy": self.occupancy,
            "verified_identical": self.verified_identical,
            "reference_wall_s": self.reference_wall_s,
            "index_cache": self.index_cache,
            "attribution": self.attribution,
        }


def _timed_run(
    fn: Callable[..., Any], scale: ExperimentScale,
    runner: ParallelSweepRunner,
) -> Tuple[Any, float, int, Dict[str, Any], Dict[str, Any]]:
    """One timed figure run; returns ``(result, wall_s, events,
    index_cache_delta, occupancy)``.

    The engine's process-wide counters are reset up front
    (:meth:`Engine.reset_process_counters`) so the event count and the
    queue-occupancy report read back afterwards are exactly this run's,
    with no delta bookkeeping.
    """
    Engine.reset_process_counters()
    cache_before = index_cache.cache_stats()
    started = time.perf_counter()
    result = fn(scale, runner=runner)
    wall = time.perf_counter() - started
    events = Engine.global_events_executed()
    occupancy = Engine.process_occupancy()
    cache_after = index_cache.cache_stats()
    cache_delta = {
        key: cache_after[key] - cache_before[key] for key in cache_after
    }
    return result, wall, events, cache_delta, occupancy


def _best_timed_run(
    fn: Callable[..., Any], scale: ExperimentScale,
    runner: ParallelSweepRunner, repeats: int,
) -> Tuple[Any, float, int, Dict[str, Any], Dict[str, Any]]:
    """Best-of-``repeats`` wrapper around :func:`_timed_run`.

    Quick-scale figures finish in a few seconds, where host machine noise
    swings wall clocks by +/-20%; keeping the fastest of N runs makes the
    recorded events/sec reproducible.  Results are bit-identical across
    runs (that is separately verified), so any run's result object works.
    """
    best = None
    for _ in range(max(1, repeats)):
        attempt = _timed_run(fn, scale, runner)
        if best is None or attempt[1] < best[1]:
            best = attempt
    return best


#: Environment switches flipped for the reference (always-recompute) run.
_REFERENCE_DISABLES = ("REPRO_DISABLE_PLAN_CACHE", index_cache.DISABLE_ENV)


def _reference_run(fn: Callable[..., Any],
                   scale: ExperimentScale) -> Tuple[Any, float]:
    """Serial, cache-disabled run (the pre-optimization semantics): the
    plan cache and the cross-run index cache are both off.  Returns the
    result and its wall clock (the uncached baseline for the cache win)."""
    serial = ParallelSweepRunner(jobs=1)
    previous = {name: os.environ.get(name) for name in _REFERENCE_DISABLES}
    for name in _REFERENCE_DISABLES:
        os.environ[name] = "1"
    try:
        started = time.perf_counter()
        result = fn(scale, runner=serial)
        return result, time.perf_counter() - started
    finally:
        for name, value in previous.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


#: Event cap for verification-only traced runs: small on purpose — the
#: point is exercising the instrumented code paths, not keeping events.
TRACE_VERIFY_LIMIT = 50_000


def _traced_run(fn: Callable[..., Any], scale: ExperimentScale) -> Any:
    """Serial run with tracing enabled, for tracing-is-observational checks."""
    from repro.obs import TraceSession

    serial = ParallelSweepRunner(jobs=1)
    with TraceSession(limit=TRACE_VERIFY_LIMIT):
        return fn(scale, runner=serial)


def _telemetry_run(fn: Callable[..., Any], scale: ExperimentScale) -> Any:
    """Serial run with the run ledger and progress line enabled, for
    telemetry-is-observational checks (``bench --verify-telemetry``).

    The ledger goes to a throwaway temp file and the progress line to an
    in-memory stream, so the check leaves no artifacts; only the
    fingerprint comparison against the plain run matters.
    """
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        serial = ParallelSweepRunner(
            jobs=1,
            ledger_path=os.path.join(tmp, "verify-ledger.jsonl"),
            progress=True,
            progress_stream=io.StringIO(),
        )
        return fn(scale, runner=serial)


def _profiled_run(
    fn: Callable[..., Any], scale: ExperimentScale, figure: str
) -> Tuple[Any, Dict[str, Any]]:
    """Serial run with the in-stream profiler attached (zero stored
    events); returns the figure result and a compact attribution dict."""
    from repro.obs import TraceSession

    serial = ParallelSweepRunner(jobs=1)
    with TraceSession(limit=0, profile=True) as session:
        result = fn(scale, runner=serial)
    report = session.profile_report(figure=figure, scale="quick")
    totals = report.totals
    attribution = {
        "request_phases_cycles": dict(totals["requests"]["phases_cycles"]),
        "task_phases_cycles": dict(totals["tasks"]["phases_cycles"]),
        "bound_by_system": dict(totals["bound_by_system"]),
    }
    return result, attribution


def bench_figures(
    figures: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    verify: bool = True,
    scale: Optional[ExperimentScale] = None,
    progress: Optional[Callable[[str], None]] = None,
    trace_verify: bool = False,
    attribution: bool = False,
    telemetry_verify: bool = False,
    repeats: int = 1,
) -> List[FigureBenchResult]:
    """Time each figure campaign; optionally verify against the reference.

    Raises :class:`BenchMismatchError` if any verified figure's simulated
    cycle counts or energy totals differ from the serial/uncached path.
    With ``trace_verify``, each figure additionally runs once with tracing
    enabled and its fingerprint must match the timed run — tracing is
    observational and must never perturb simulated behaviour.  With
    ``attribution``, each figure runs once more under the in-stream
    latency profiler (which must also leave the fingerprint untouched)
    and its result row carries the phase-decomposition totals.  With
    ``telemetry_verify``, each figure runs once more with the fleet
    run-ledger and progress line enabled and its fingerprint must match —
    the same discipline, applied to the telemetry layer.

    ``repeats`` times each figure N times and records the fastest run
    (quick-scale machine noise is +/-20%; the best of 3 is stable).
    """
    names = list(figures) if figures is not None else list(BENCH_FIGURES)
    unknown = sorted(set(names) - set(BENCH_FIGURES))
    if unknown:
        raise ValueError(f"unknown bench figures: {unknown}")
    scale = scale if scale is not None else ExperimentScale.quick()
    runner = ParallelSweepRunner(jobs=jobs)
    results: List[FigureBenchResult] = []
    for name in names:
        fn = BENCH_FIGURES[name]
        if progress:
            progress(f"[bench] {name}: timing ...")
        result, wall, events, cache_delta, occ = _best_timed_run(
            fn, scale, runner, repeats)
        entry = FigureBenchResult(name=name, wall_s=wall, events=events,
                                  fingerprint_sha256=fingerprint_sha256(result),
                                  repeats=max(1, repeats),
                                  occupancy=occ or None,
                                  index_cache=cache_delta)
        if verify:
            if progress:
                progress(f"[bench] {name}: verifying vs serial/uncached ...")
            reference, entry.reference_wall_s = _reference_run(fn, scale)
            identical = fingerprint(result) == fingerprint(reference)
            entry.verified_identical = identical
            if not identical:
                raise BenchMismatchError(
                    f"{name}: cached/parallel results diverge from the "
                    "serial/uncached reference — scheduler caching, the "
                    "index cache, or the parallel fan-out changed simulated "
                    "behaviour"
                )
        if trace_verify:
            if progress:
                progress(f"[bench] {name}: verifying tracing on == off ...")
            traced = _traced_run(fn, scale)
            if fingerprint(result) != fingerprint(traced):
                raise BenchMismatchError(
                    f"{name}: results with tracing enabled diverge from the "
                    "untraced run — an instrumentation site is perturbing "
                    "simulated behaviour"
                )
        if telemetry_verify:
            if progress:
                progress(f"[bench] {name}: verifying telemetry on == off ...")
            observed = _telemetry_run(fn, scale)
            if fingerprint(result) != fingerprint(observed):
                raise BenchMismatchError(
                    f"{name}: results with the run ledger and progress line "
                    "enabled diverge from the plain run — fleet telemetry "
                    "must be purely observational"
                )
        if attribution:
            if progress:
                progress(f"[bench] {name}: profiling latency attribution ...")
            profiled, entry.attribution = _profiled_run(fn, scale, name)
            if fingerprint(result) != fingerprint(profiled):
                raise BenchMismatchError(
                    f"{name}: results with the profiler attached diverge "
                    "from the unprofiled run — profiling must be purely "
                    "observational"
                )
        results.append(entry)
    return results


def _previous_baseline(output: str) -> Optional[Dict[str, Any]]:
    """Compact baseline block lifted from the bench file being replaced.

    Keeps the overwritten run's schema id, timestamp, and per-figure
    events/sec so the new file documents the perf trajectory (and the
    compare gate's reference) without needing git archaeology.  Returns
    ``None`` when there is no prior file or it is unreadable.
    """
    if not output or not os.path.exists(output):
        return None
    try:
        with open(output, "r", encoding="utf-8") as handle:
            old = json.load(handle)
        eps = {
            name: float(fig["events_per_sec"])
            for name, fig in old.get("figures", {}).items()
            if isinstance(fig, dict) and fig.get("events_per_sec")
        }
    except (OSError, ValueError, TypeError, KeyError):
        return None
    if not eps:
        return None
    return {
        # repro: allow[schema-id-registry] -- echoes the replaced file's
        # own schema id into the history block, whatever (possibly
        # superseded) version it carried; inherently dynamic, never parsed.
        "schema": old.get("schema"),
        "created_unix": old.get("created_unix"),
        "events_per_sec": eps,
    }


def _geomean_speedup(results: Sequence[FigureBenchResult],
                     previous: Dict[str, Any]) -> Optional[float]:
    """Geometric-mean events/sec ratio of ``results`` over ``previous``."""
    ratios = [
        r.events_per_sec / previous["events_per_sec"][r.name]
        for r in results
        if r.name in previous["events_per_sec"]
        and previous["events_per_sec"][r.name] > 0
        and r.events_per_sec > 0
    ]
    if not ratios:
        return None
    return math.exp(sum(math.log(x) for x in ratios) / len(ratios))


def run_bench(
    figures: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    verify: bool = True,
    output: str = "BENCH_results.json",
    progress: Optional[Callable[[str], None]] = print,
    trace_verify: bool = False,
    attribution: bool = False,
    telemetry_verify: bool = False,
    repeats: int = 3,
) -> Dict[str, Any]:
    """The ``python -m repro bench`` entry point: bench, verify, persist.

    Each figure is timed best-of-``repeats``.
    """
    runner = ParallelSweepRunner(jobs=jobs)
    previous = _previous_baseline(output)
    results = bench_figures(figures=figures, jobs=runner.jobs, verify=verify,
                            progress=progress, trace_verify=trace_verify,
                            attribution=attribution,
                            telemetry_verify=telemetry_verify,
                            repeats=repeats)
    if previous is not None:
        previous["geomean_speedup"] = _geomean_speedup(results, previous)
    payload: Dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "created_unix": time.time(),
        "scale": "quick",
        "jobs": runner.jobs,
        "repeats": max(1, repeats),
        "figures": {r.name: r.to_dict() for r in results},
        "previous": previous,
        "total_wall_s": sum(r.wall_s for r in results),
    }
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        if progress:
            progress(f"[bench] wrote {output}")
    if progress:
        for r in results:
            verdict = ("ok" if r.verified_identical
                       else "UNVERIFIED" if r.verified_identical is None
                       else "MISMATCH")
            progress(
                f"[bench] {r.name:12s} {r.wall_s:7.2f}s "
                f"{r.events:>10d} events  {r.events_per_sec:>12.0f} ev/s  "
                f"[{verdict}] {r.fingerprint_sha256[:12]}"
            )
        progress(f"[bench] total {payload['total_wall_s']:.2f}s "
                 f"(jobs={runner.jobs}, repeats={payload['repeats']})")
        if previous is not None and previous.get("geomean_speedup"):
            progress(f"[bench] geomean speedup vs previous baseline "
                     f"({previous['schema']}): "
                     f"{previous['geomean_speedup']:.2f}x")
    return payload
