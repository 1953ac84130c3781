"""Per-layer measurement: deterministic work counters and the traced pass.

Layers are the simulator's packages (``repro.sim``, ``repro.dram``, ...).
Two kinds of per-layer numbers come from here:

* **work counters** read after each point from the Report, the engine's
  process-wide counters and the systems' stat trees.  They are exact and
  machine-independent; the driver requires them to repeat exactly.
* **host time** from the traced pass only: cProfile self time grouped by
  package, and boundary spans around the calls the driver makes plus
  wrappers on ``Engine.run``, ``MemoryManagementFramework.allocate``, the
  index-cache lookups and the calls ``run_serving_point`` makes to build
  systems and generate inputs.  The wrappers are installed for the traced
  pass and removed after it, so the timed run carries none.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import pstats
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.metrics import Report
from repro.experiments import tenants
from repro.genomics.index_cache import IndexCache, get_cache
from repro.memmgmt.framework import MemoryManagementFramework
from repro.sim.engine import Engine

from workloads import PointOutcome, Span

#: Layers the per-layer table reports, in stack order.
LAYERS = ("sim", "dram", "cxl", "core", "genomics", "memmgmt",
          "baselines", "experiments")

# -- deterministic work counters ------------------------------------------------


def _report(result: Any) -> Report:
    return result if isinstance(result, Report) else result.report


def point_counters(outcome: PointOutcome) -> Dict[str, float]:
    """Raw per-point work counts (engine counters must be reset before the
    point; the engine folds them in when ``run`` returns)."""
    report = _report(outcome.result)
    occupancy = Engine.process_occupancy()
    enqueued = sum(o["events_enqueued"] for o in occupancy.values())
    cycles = sum(o["cycles_started"] for o in occupancy.values())
    stats = [s.root.stats for s in outcome.systems]
    # Read the DRAM controllers' own scopes: the core's task scheduler
    # counts its operand waits under the same "parked" name.
    controllers = [c.stats for s in outcome.systems for c in s.pool.controllers]
    extra = report.extra
    return {
        "events": Engine.global_events_executed(),
        "enqueued": enqueued,
        "cycles_started": cycles,
        "mem_requests": report.mem_requests,
        "activations": extra.get("dram_activations", 0.0),
        "parked": sum(c.get("parked") for c in controllers),
        "rejected": sum(c.get("rejected") for c in controllers),
        "wire_bytes": report.wire_bytes,
        "useful_bytes": report.useful_bytes,
        "detours": extra.get("host_detours", 0.0),
        "local": extra.get("local_requests", 0.0),
        "turnarounds": extra.get("in_switch_turnarounds", 0.0),
        "tasks": report.tasks_completed,
        "sim_cycles": report.runtime_cycles,
        "pe_busy_cycles": extra.get("pe_utilization", 0.0)
        * report.runtime_cycles,
        "rmw_ops": sum(s.total("rmw_ops") for s in stats),
        "allocations": sum(s.total("allocations") for s in stats),
    }


def round_counters(per_point: List[Dict[str, float]],
                   cache_delta: Dict[str, int]) -> Dict[str, float]:
    """The named work counters of one round (all points of a workload)."""
    total: Dict[str, float] = {}
    for counts in per_point:
        for key, value in counts.items():
            total[key] = total.get(key, 0) + value
    req = total["mem_requests"] or 1
    return {
        "sim.events": total["events"],
        "sim.cycles_started": total["cycles_started"],
        "sim.avg_batch": total["enqueued"] / max(1, total["cycles_started"]),
        "sim.events_per_req": total["events"] / req,
        "dram.mem_requests": total["mem_requests"],
        "dram.act_per_req": total["activations"] / req,
        "dram.parked_per_req": total["parked"] / req,
        "dram.rejected": total["rejected"],
        "cxl.wire_bytes": total["wire_bytes"],
        "cxl.bw_efficiency": total["useful_bytes"] / max(1.0,
                                                         total["wire_bytes"]),
        "cxl.detours_per_req": total["detours"] / req,
        "cxl.local_ratio": total["local"] / req,
        "cxl.in_switch_turnarounds": total["turnarounds"],
        "core.tasks": total["tasks"],
        "core.sim_cycles": total["sim_cycles"],
        # Cycle-weighted mean over the round's systems.
        "core.pe_utilization": total["pe_busy_cycles"]
        / max(1, total["sim_cycles"]),
        "core.rmw_ops": total["rmw_ops"],
        "genomics.index_cache_hits": cache_delta["hits"],
        "genomics.index_cache_misses": cache_delta["misses"],
        "memmgmt.allocations": total["allocations"],
    }


def cache_snapshot() -> Dict[str, int]:
    stats = get_cache().stats
    return {"hits": stats.hits, "misses": stats.misses}


def cache_delta(before: Dict[str, int]) -> Dict[str, int]:
    after = cache_snapshot()
    return {key: after[key] - before[key] for key in before}


# -- boundary spans -------------------------------------------------------------


class SpanRecorder(Span):
    """In-memory spans: ``(name, start, end, parent index)``, parent -1 at
    the top.  Written out once, after the traced pass."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def self_times(self) -> Dict[str, float]:
        """Per span name: duration minus the duration of direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[i]
        return totals

    def total_times(self) -> Dict[str, float]:
        """Per span name: inclusive duration (spans of one name never nest)."""
        totals: Dict[str, float] = {}
        for name, start, end, _parent in self.spans:
            totals[name] = totals.get(name, 0.0) + end - start
        return totals

    def rows(self) -> List[Dict[str, Any]]:
        origin = self.spans[0][1] if self.spans else 0.0
        return [{"name": n, "start_s": s - origin, "end_s": e - origin,
                 "parent": p} for n, s, e, p in self.spans]


#: (owner, attribute, span name) of every wrapper the traced pass installs.
_WRAPPED = (
    (Engine, "run", "sim.loop"),
    (MemoryManagementFramework, "allocate", "memmgmt.allocate"),
    (IndexCache, "fm_index", "genomics.index"),
    (IndexCache, "hash_index", "genomics.index"),
    (IndexCache, "fm_hot_profile", "genomics.index"),
    # run_serving_point builds its systems and generates its own inputs
    # inside every point.
    (tenants, "build_system", "core.build"),
    (tenants, "make_seeding_workload", "genomics.input"),
)


@contextlib.contextmanager
def wrappers(recorder: SpanRecorder) -> Iterator[None]:
    """Install the span wrappers; restore the originals on exit."""
    originals: List[Tuple[Any, str, Any]] = []

    def wrap(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with recorder.span(name):
                return fn(*args, **kwargs)
        return wrapper

    try:
        for owner, attr, name in _WRAPPED:
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, wrap(original, name))
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# -- cProfile self time by package ------------------------------------------------


class PackageProfile:
    """cProfile self time grouped by ``repro`` package.

    Functions outside ``repro`` (C builtins, numpy, the standard library)
    are charged to the packages of their callers, in proportion to the
    time each caller spent in them; functions of this benchmark are charged
    to ``bench``.
    """

    def __init__(self, src_repro: Path, bench_dir: Path) -> None:
        self._repro = str(src_repro) + "/"
        self._bench = str(bench_dir) + "/"
        self.profile = cProfile.Profile()

    def _own_package(self, filename: str) -> Optional[str]:
        if filename.startswith(self._repro):
            head = filename[len(self._repro):].split("/", 1)
            return head[0] if len(head) == 2 else "repro"
        if filename.startswith(self._bench):
            return "bench"
        return None

    def self_time_by_package(self) -> Tuple[Dict[str, float], float]:
        stats = pstats.Stats(self.profile).stats
        memo: Dict[Any, Dict[str, float]] = {}

        def owners(func, visiting) -> Dict[str, float]:
            if func in memo:
                return memo[func]
            package = self._own_package(func[0])
            if package is not None:
                return {package: 1.0}
            callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
            if func in visiting or not callers:
                return {"other": 1.0}
            visiting.add(func)
            weights = {c: edge[2] or edge[1] for c, edge in callers.items()}
            total = sum(weights.values()) or 1.0
            mix: Dict[str, float] = {}
            for caller, weight in weights.items():
                for package, share in owners(caller, visiting).items():
                    mix[package] = mix.get(package, 0.0) + share * weight / total
            visiting.discard(func)
            memo[func] = mix
            return mix

        by_package: Dict[str, float] = {}
        total = 0.0
        for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
            total += tottime
            for package, share in owners(func, set()).items():
                by_package[package] = by_package.get(package, 0.0) \
                    + tottime * share
        return by_package, total
