"""Tests for the perf-regression harness (repro.perf).

``python -m repro bench`` times every figure at quick scale and asserts the
optimized path (plan cache on, optional fan-out) reproduces the
serial/uncached reference bit-for-bit.  These tests exercise the harness
itself on a single cheap figure so the full suite stays fast.
"""

import json
from pathlib import Path

import pytest

from repro.core.metrics import Report
from repro.experiments import ExperimentScale, ParallelSweepRunner
from repro.perf import (
    BENCH_SCHEMA,
    BenchMismatchError,
    FigureBenchResult,
    bench_figures,
    fingerprint,
    run_bench,
)
from repro.obs.telemetry import compare_bench, load_bench_payload
from repro.perf.harness import BENCH_FIGURES, fingerprint_sha256

#: The committed baseline payload at the repo root.
COMMITTED_BENCH = Path(__file__).resolve().parent.parent / "BENCH_results.json"


def _report(cycles: int, label: str = "r") -> Report:
    return Report(
        label=label, system="beacon-d", algorithm="fm_seeding", dataset="d1",
        runtime_cycles=cycles, tck_ns=0.75, energy_dram_nj=1.0,
        energy_comm_nj=2.0, energy_compute_nj=3.0, tasks_completed=4,
        mem_requests=5,
    )


# -- fingerprinting ----------------------------------------------------------------


def test_fingerprint_reaches_nested_reports():
    nested = {"a": [_report(10, "x")], "b": (_report(20, "y"),)}
    prints = fingerprint(nested)
    assert [p[0] for p in prints] == ["x", "y"]
    assert [p[4] for p in prints] == [10, 20]


def test_fingerprint_is_exact():
    assert fingerprint(_report(10)) == fingerprint(_report(10))
    assert fingerprint(_report(10)) != fingerprint(_report(11))


def test_fingerprint_of_reportless_object_is_empty():
    assert fingerprint({"numbers": [1, 2, 3]}) == []


def test_fingerprint_sha256_is_exact():
    digest = fingerprint_sha256(_report(10))
    assert len(digest) == 64 and int(digest, 16) >= 0
    assert digest == fingerprint_sha256(_report(10))
    assert digest != fingerprint_sha256(_report(11))
    # Floats are hashed exactly: a last-bit energy change shows.
    nudged = _report(10)
    nudged.energy_dram_nj = 1.0000000000000002
    assert digest != fingerprint_sha256(nudged)


# -- harness mechanics -------------------------------------------------------------


def test_unknown_figure_rejected():
    with pytest.raises(ValueError, match="unknown bench figures"):
        bench_figures(figures=["fig99"])


def test_bench_catalog_covers_every_figure_module():
    assert set(BENCH_FIGURES) == {
        "fig3", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
        "sec6g", "scalability", "mt-serving", "mt-saturation",
    }


def test_mismatch_error_is_an_assertion():
    # So plain ``pytest`` / CI treats a divergence as a test failure.
    assert issubclass(BenchMismatchError, AssertionError)


def test_events_per_sec_guards_zero_wall():
    result = FigureBenchResult(name="x", wall_s=0.0, events=100)
    assert result.events_per_sec == 0.0


# -- end-to-end on one cheap figure ------------------------------------------------


def test_run_bench_writes_verified_baseline(tmp_path):
    output = tmp_path / "BENCH_results.json"
    payload = run_bench(figures=["fig13"], jobs=1, verify=True,
                        output=str(output), progress=None, repeats=1)

    assert payload["schema"] == BENCH_SCHEMA
    assert payload["scale"] == "quick"
    assert payload["jobs"] == 1
    assert payload["repeats"] == 1
    assert payload["previous"] is None  # nothing overwritten
    entry = payload["figures"]["fig13"]
    assert entry["wall_s"] > 0
    assert entry["events"] > 0
    assert entry["events_per_sec"] > 0
    # The bit-identical check against the serial/uncached reference ran
    # and passed — the whole point of the harness.
    assert entry["verified_identical"] is True
    # repro-bench/4: the event queue's occupancy and the exact digest of
    # the timed run's fingerprint.
    occ = entry["occupancy"]["heap"]
    assert occ["events_enqueued"] >= entry["events"] > 0
    assert occ["cycles_started"] > 0
    assert occ["avg_batch"] > 0
    assert "scheduler" not in entry and "schedulers" not in entry
    reference = BENCH_FIGURES["fig13"](
        ExperimentScale.quick(), runner=ParallelSweepRunner(jobs=1))
    assert entry["fingerprint_sha256"] == fingerprint_sha256(reference)
    assert payload["total_wall_s"] >= entry["wall_s"]

    on_disk = json.loads(output.read_text())
    assert on_disk["schema"] == BENCH_SCHEMA
    assert on_disk["figures"]["fig13"]["verified_identical"] is True


def test_run_bench_embeds_previous_baseline(tmp_path):
    output = tmp_path / "BENCH_results.json"
    output.write_text(json.dumps({
        "schema": "repro-bench/2",
        "created_unix": 123.0,
        "figures": {"fig13": {"events_per_sec": 50.0, "wall_s": 1.0}},
    }))
    payload = run_bench(figures=["fig13"], jobs=1, verify=False,
                        output=str(output), progress=None, repeats=1)
    previous = payload["previous"]
    assert previous["schema"] == "repro-bench/2"
    assert previous["created_unix"] == 123.0
    assert previous["events_per_sec"] == {"fig13": 50.0}
    expected = payload["figures"]["fig13"]["events_per_sec"] / 50.0
    assert previous["geomean_speedup"] == pytest.approx(expected)


def test_bench_without_verify_skips_reference(tmp_path):
    results = bench_figures(figures=["fig13"], jobs=1, verify=False)
    (entry,) = results
    assert entry.name == "fig13"
    assert entry.verified_identical is None
    assert len(entry.fingerprint_sha256) == 64


def test_compare_reads_the_committed_baseline():
    # The committed file predates repro-bench/4; the gate still reads it.
    old = load_bench_payload(str(COMMITTED_BENCH))
    report = compare_bench(old, old, threshold=0.75)
    assert report["ok"]
