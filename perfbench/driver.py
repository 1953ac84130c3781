"""The measuring loop: cold set-ups, warm timed rounds, the traced pass.

Host speed on a shared machine drifts by tens of percent over tens of
seconds, so round times are also reported against a reference: a fixed
pure-Python integer loop that uses no simulator code, timed after every
point and after every set-up.  A round's ``wall_ref`` is its host seconds
over the reference seconds of the same round; both slow down together when
the host does.  ``setup_s`` is scaled the same way, to the set-up's host
seconds on a host where one reference loop takes ``NOMINAL_REFERENCE_S``.

See ``run.py`` for the command line and ``spec.json`` for what each metric
means and which layer it should move.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from layers import (
    LAYERS,
    PackageProfile,
    SpanRecorder,
    cache_delta,
    cache_snapshot,
    point_counters,
    round_counters,
    wrappers,
)
from repro.perf.harness import fingerprint
from repro.sim.engine import Engine
from workloads import NO_SPANS, WORKLOADS, Span, Workload, completed_count

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_PATH = BENCH_DIR / "expected_fingerprints.json"
#: Traced runs write their spans here (ignored by git).
SPANS_DIR = ROOT / ".perfbench-out"

#: Least number of cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9

#: Iterations of the reference loop run after each point (about 0.05 s on
#: a 2-vCPU Xeon guest).  An integer loop tracked the simulator's
#: host-speed drift more closely than a heap-based event loop did.
REFERENCE_STEPS = 600_000

#: Reference-loop seconds of the nominal host ``setup_s`` is scaled to.
NOMINAL_REFERENCE_S = 0.05

#: Environment switches that turn the controller plan cache and the index
#: cache off for the cache-disabled re-run.
CACHE_OFF_ENV = ("REPRO_DISABLE_PLAN_CACHE", "REPRO_DISABLE_INDEX_CACHE")


def fingerprint_digest(result: Any) -> str:
    """sha256 of the exact Report fingerprint (floats in repr form)."""
    text = json.dumps(fingerprint(result))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def reference_loop(steps: int = REFERENCE_STEPS) -> int:
    """A fixed pure-Python integer loop that uses no simulator code, so no
    change to the simulator changes its time."""
    total = 0
    for i in range(steps):
        total += i * i % 7
    return total


def time_reference() -> float:
    """Host seconds of one reference loop."""
    started = time.perf_counter()
    reference_loop()
    return time.perf_counter() - started


def quartile_spread(values: List[float]) -> float:
    """(Q3 - Q1) / median; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


class Run:
    """Points attempted and failed in one run of one workload and seed."""

    def __init__(self, workload: Workload,
                 expected: Optional[List[str]]) -> None:
        self.workload = workload
        self.expected = expected
        self.attempted = 0
        self.failures: List[str] = []
        #: Per point key: fingerprint digest and raw counters of its first run.
        self.first_seen: Dict[str, Tuple[str, Dict[str, float]]] = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    def run_point(self, index: int, point, check_counters: bool = True
                  ) -> Optional[Tuple[float, Dict[str, float]]]:
        """Build and run one point: (host seconds, raw counters), or None
        if it raised.  Only ``build`` plus ``run`` is timed; every failure
        is counted, none is raised."""
        self.attempted += 1
        gc.collect()
        Engine.reset_process_counters()
        try:
            started = time.perf_counter()
            outcome = point.run(point.build())
            elapsed = time.perf_counter() - started
            counters = point_counters(outcome)
            digest = fingerprint_digest(outcome.result)
            completed = completed_count(outcome)
        except Exception:  # a raising point is a failed operation
            self.failures.append(
                f"{point.key}: {traceback.format_exc(limit=3).strip()}")
            return None
        first = self.first_seen.setdefault(point.key, (digest, counters))
        why = None
        if completed != outcome.submitted:
            why = f"{completed}/{outcome.submitted} completed"
        elif self.expected is not None and digest != self.expected[index]:
            why = "fingerprint differs from the stored one"
        elif digest != first[0]:
            why = "fingerprint changed between repeats"
        elif check_counters and counters != first[1]:
            why = "work counters changed between repeats"
        if why:
            self.failures.append(f"{point.key}: {why}")
        return elapsed, counters

    def run_round(self, spans: Span = NO_SPANS, reference: bool = False
                  ) -> Optional[Tuple[float, float, Dict[str, float]]]:
        """Every point once: (host seconds of the points, host seconds of
        the reference loop run after each point when ``reference``, round
        counters), or None if a point raised."""
        before = cache_snapshot()
        elapsed = reference_s = 0.0
        per_point = []
        for index, point in enumerate(self.workload.points(spans)):
            done = self.run_point(index, point)
            if done is None:
                return None
            elapsed += done[0]
            per_point.append(done[1])
            if reference:
                reference_s += time_reference()
        return (elapsed, reference_s,
                round_counters(per_point, cache_delta(before)))


def timed_phase(run: Run, seconds: float) -> Dict[str, Any]:
    """A cold set-up before every warm round, until ``seconds`` of rounds
    and at least ``SETUP_REPEATS`` set-ups are measured.  Spreading the
    set-ups over the run samples the host's speed as the rounds do."""
    setups: List[float] = []
    setup_references: List[float] = []
    rounds: List[float] = []
    references: List[float] = []
    counters: Dict[str, float] = {}
    while sum(rounds) < seconds or len(setups) < SETUP_REPEATS:
        gc.collect()
        started = time.perf_counter()
        run.workload.set_up()
        setups.append(time.perf_counter() - started)
        setup_references.append(time_reference())
        done = run.run_round(reference=True)
        if done is None:
            break
        rounds.append(done[0])
        references.append(done[1])
        counters = done[2]
    return {"setup": setups, "setup_references": setup_references,
            "rounds": rounds, "references": references, "counters": counters}


def traced_phase(run: Run, timed: Dict[str, Any],
                 seed: int) -> Dict[str, float]:
    """One traced set-up and round, then the cache-disabled re-run."""
    recorder = SpanRecorder()
    profile = PackageProfile(ROOT / "src" / "repro", BENCH_DIR)
    gc.collect()
    with wrappers(recorder):
        started = time.perf_counter()
        profile.profile.enable()
        try:
            with recorder.span("bench.setup"):
                run.workload.set_up(recorder)
            with recorder.span("bench.round"):
                done = run.run_round(recorder)
        finally:
            profile.profile.disable()
        traced_wall = time.perf_counter() - started
    counters = done[2] if done else {}
    if done and counters != timed["counters"]:
        run.failures.append("traced round: work counters differ from the "
                            "timed rounds")

    # The first point again with both caches off: same fingerprint required.
    saved = {name: os.environ.get(name) for name in CACHE_OFF_ENV}
    os.environ.update({name: "1" for name in CACHE_OFF_ENV})
    try:
        run.run_point(0, run.workload.points()[0], check_counters=False)
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value

    SPANS_DIR.mkdir(exist_ok=True)
    spans_file = SPANS_DIR / f"spans-{run.workload.name}-seed{seed}.json"
    spans_file.write_text(json.dumps(recorder.rows()))

    by_package, profiled = profile.self_time_by_package()
    untraced = statistics.median(timed["setup"]) + (
        statistics.median(timed["rounds"]) if timed["rounds"] else 0.0)
    self_s = recorder.self_times()
    metrics: Dict[str, float] = {
        f"{layer}.host_share": by_package.get(layer, 0.0) / profiled
        for layer in LAYERS
    }
    metrics.update(counters)
    metrics.update({
        "sim.loop_s": recorder.total_times().get("sim.loop", 0.0),
        "core.build_s": self_s.get("core.build", 0.0),
        "core.run_s": self_s.get("core.run", 0.0),
        "genomics.input_s": self_s.get("genomics.input", 0.0),
        "genomics.index_s": self_s.get("genomics.index", 0.0),
        "memmgmt.allocate_s": self_s.get("memmgmt.allocate", 0.0),
        "trace.overhead": traced_wall / untraced if untraced else 0.0,
    })
    others = ", ".join(f"{k} {v / profiled:.3f}"
                       for k, v in sorted(by_package.items())
                       if k not in LAYERS)
    print(f"  traced pass {traced_wall:.3f} s, spans in "
          f"{spans_file.relative_to(ROOT)}; host share outside the layers: "
          f"{others}")
    return metrics


def load_expected(workload: str, seed: int) -> Optional[List[str]]:
    data = json.loads(EXPECTED_PATH.read_text())
    return data["fingerprints"].get(workload, {}).get(str(seed))


def bench(name: str, seed: int, seconds: float, trace: bool
          ) -> Dict[str, Any]:
    """Run one workload; print its tables and return the result object."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    workload = WORKLOADS[name](seed)
    run = Run(workload, load_expected(name, seed))
    timed = timed_phase(run, seconds)
    print(f"== {name} seed={seed} (stored fingerprints: "
          f"{'checked' if run.expected else 'none for this seed'})")
    rounds = timed["rounds"]
    relative = [r / ref for r, ref in zip(rounds, timed["references"])]
    requests = timed["counters"].get("dram.mem_requests", 0)

    def median(values: List[float]) -> float:
        return statistics.median(values) if values else 0.0

    metrics = {
        "wall_ref": median(relative),
        "req_per_ref": median([requests / r for r in relative]),
        "setup_s": NOMINAL_REFERENCE_S * median(
            [s / ref for s, ref in zip(timed["setup"],
                                       timed["setup_references"])]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    for metric, value in metrics.items():
        print(f"  {metric:12s} {value:14.6f} {units[metric]}")
    # The same medians in plain host seconds, for reading only.
    print(f"  {'wall_s':12s} {median(rounds):14.6f} s (host seconds)")
    print(f"  {'req_per_s':12s} {median([requests / r for r in rounds]):14.6f}"
          " 1/s (per host second)")
    print(f"  {'set-up':12s} {median(timed['setup']):14.6f} s (host seconds)")
    for label, values in (("round host seconds", rounds),
                          ("reference host seconds", timed["references"]),
                          ("round / reference", relative),
                          ("set-up host seconds", timed["setup"])):
        if values:
            print(f"  {label}: median {statistics.median(values):.6f}, "
                  f"IQR/median {quartile_spread(values):.4f}, "
                  f"n={len(values)}: "
                  + " ".join(f"{v:.4f}" for v in values))
    print("  work counters (per round, identical in every round):")
    for key, value in timed["counters"].items():
        print(f"    {key:28s} {value:.10g}")
    print("  fingerprint digests (sha256 of repro.perf.harness.fingerprint):")
    for point in workload.points():
        if point.key in run.first_seen:
            print(f"    {point.key:12s} {run.first_seen[point.key][0]}")
    if trace:
        layer = traced_phase(run, timed, seed)
        print("  per layer (traced pass):")
        for key, value in layer.items():
            print(f"    {key:28s} {value:.6g} {units[key]}")
        reported, kind = layer, "per_layer"
    else:
        reported, kind = metrics, "end_to_end"
    names = [m["name"] for m in declared[kind]]
    if not set(reported) <= set(names):
        raise RuntimeError(f"metrics missing from BENCHMARK.json {kind}: "
                           f"{sorted(set(reported) - set(names))}")
    # A metric is absent only when a point raised (``correct`` is false).
    result = {name: {"value": reported.get(name, 0.0), "unit": units[name]}
              for name in names}
    print(f"  points attempted {run.attempted}, failed {run.failed}")
    for failure in run.failures:
        print(f"  FAILED {failure}")
    return {"correct": not run.failures and bool(rounds),
            "attempted": run.attempted, "failed": run.failed,
            "metrics": result}
