"""The benchmark's three workloads, built on the simulator's public entry points.

Each workload turns the command-line seed into inputs, sets itself up (input
generation, index construction into the shared index cache, one
``build_system`` per backend as warm-up), and then exposes its simulation
points.  A point is one ``build_system`` plus one run; the benchmark times
exactly that.  Everything else a point reports -- the Report fingerprint, the
task count the bench submitted, the systems it built -- is collected for the
correctness check and the deterministic work counters.

Why these three (the measured layer shares are in ``spec.json``):

* ``fm-near`` -- the paper's headline kernel, FM-index seeding, on BEACON-D
  with every FM optimization and on MEDAL.  Most requests stay on the
  CXLG-DIMM, so ``dram`` does the most work and ``cxl`` the least, and
  same-cycle event batches are large.
* ``kmer-fabric`` -- k-mer counting with Bloom-filter read-modify-writes on
  BEACON-S CXL-vanilla (multi-pass, updates detour through the host) and
  BEACON-D (single pass, Atomic Engines at the switch): the fabric-heavy
  workload, and the one that builds no index.
* ``mt-serve`` -- the open-loop multi-tenant serving point, the only
  workload mixing all four kernels in one pool; small event batches, and
  input generation plus index lookups inside every point.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.core.config import Algorithm, BeaconConfig, OptimizationFlags
from repro.core.drivers import profile_fm_blocks
from repro.core.registry import build_system
from repro.experiments import tenants
from repro.experiments.runner import ExperimentScale
from repro.genomics.index_cache import get_cache
from repro.genomics.sequence import reverse_complement
from repro.genomics.workloads import (
    DatasetSpec,
    SeedingWorkload,
    dataset_by_name,
    make_kmer_workload,
    make_seeding_workload,
)

# -- input sizes ---------------------------------------------------------------
# Sized so one round (every point of a workload) takes a few host seconds on a
# 2-core machine, which leaves several rounds per measured window.

#: fm-near: 80 reads over 8 PEs per system keeps tasks per PE near 10.
#: Reads are error-free and the index covers both strands (as BWA's does),
#: so every read walks all of its backward-search steps: the simulated work
#: of a round barely depends on the seed.
FM_GENOME_LENGTH = 30_000
FM_READS = 80
FM_PE_DIVISOR = 32

#: kmer-fabric: every read issues (100 - 15 + 1) x 4 counter updates.
KMER_GENOME_LENGTH = 30_000
KMER_READS = 8
KMER_PE_DIVISOR = 32
KMER_K = 15
KMER_COUNTERS = 1 << 14

#: mt-serve: the quick-scale serving point with every default tenant.
MT_DATASET = "Pt"


def subseed(seed: int, tag: str) -> int:
    """A 31-bit generator seed derived from the bench seed and a tag."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big") >> 1


@dataclass
class PointOutcome:
    """What one simulation point produced (the timed part is build + run)."""

    result: Any            # Report, or ServingPoint for mt-serve
    systems: List[Any]     # every system the point built
    submitted: int         # tasks or queries the bench expects to complete


@dataclass(frozen=True)
class Point:
    """One simulation point: ``build()`` makes the system, ``run(system)``
    runs it.  For mt-serve the program builds its own system inside the
    run, so ``build`` is a no-op there."""

    key: str
    build: Callable[[], Any]
    run: Callable[[Any], PointOutcome]


class Span:
    """Context-manager factory the workloads wrap their calls in.

    The timed run uses :data:`NO_SPANS`; the traced run passes a recorder
    whose ``span(name)`` records (name, start, end, parent)."""

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


NO_SPANS = Span()


class Workload:
    """Base: seeded inputs, a cold set-up, and the simulation points."""

    name = ""
    #: Backends whose systems the set-up builds once as warm-up.
    backends: Tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def set_up(self, spans: Span = NO_SPANS) -> None:
        """Generate inputs and build indexes into the (cleared) cache."""
        get_cache().clear()
        with spans.span("genomics.input"):
            self._make_inputs()
        with spans.span("genomics.index"):
            self._build_indexes()
        for backend in self.backends:
            with spans.span("core.build"):
                build_system(backend, self._config(),
                             OptimizationFlags.vanilla())

    def points(self, spans: Span = NO_SPANS) -> List[Point]:
        raise NotImplementedError

    def _make_inputs(self) -> None:
        raise NotImplementedError

    def _build_indexes(self) -> None:
        """Index construction; a workload without an index builds none."""

    def _config(self) -> BeaconConfig:
        raise NotImplementedError


class FmNear(Workload):
    """FM-index seeding on BEACON-D (all FM optimizations) and MEDAL."""

    name = "fm-near"
    backends = ("beacon-d", "medal")

    def _config(self) -> BeaconConfig:
        return BeaconConfig().scaled(FM_PE_DIVISOR)

    def _make_inputs(self) -> None:
        spec = DatasetSpec("bench-fm", "seeded synthetic genome",
                           FM_GENOME_LENGTH, FM_READS, 100, 0.40,
                           seed=subseed(self.seed, self.name))
        sampled = make_seeding_workload(spec, error_rate=0.0)
        self.workload = SeedingWorkload(
            spec, sampled.reference + reverse_complement(sampled.reference),
            sampled.reads, sampled.read_origins)

    def _build_indexes(self) -> None:
        # The same cache keys the FM driver looks up, so its points hit.
        cache = get_cache()
        reads = self.workload.reads
        fm = cache.fm_index(self.workload.reference)
        cache.fm_hot_profile(fm, reads[: max(1, int(len(reads) * 0.1))],
                             lambda: profile_fm_blocks(fm, reads))

    def points(self, spans: Span = NO_SPANS) -> List[Point]:
        config = self._config()
        flags = {
            "beacon-d": OptimizationFlags.all_for("beacon-d",
                                                  Algorithm.FM_SEEDING),
            "medal": OptimizationFlags.vanilla(),
        }

        def make(backend: str) -> Point:
            def build():
                with spans.span("core.build"):
                    return build_system(backend, config, flags[backend])

            def run(system) -> PointOutcome:
                with spans.span("core.run"):
                    report = system.run_algorithm(Algorithm.FM_SEEDING,
                                                  self.workload)
                return PointOutcome(report, [system],
                                    len(self.workload.reads))

            return Point(backend, build, run)

        return [make(backend) for backend in self.backends]


class KmerFabric(Workload):
    """k-mer counting on BEACON-S CXL-vanilla and BEACON-D full."""

    name = "kmer-fabric"
    backends = ("beacon-s", "beacon-d")

    def _config(self) -> BeaconConfig:
        return BeaconConfig().scaled(KMER_PE_DIVISOR)

    def _make_inputs(self) -> None:
        spec = DatasetSpec("bench-kmer", "seeded synthetic genome",
                           KMER_GENOME_LENGTH, KMER_READS, 100, 0.41,
                           seed=subseed(self.seed, self.name))
        self.workload = make_kmer_workload(spec)

    def points(self, spans: Span = NO_SPANS) -> List[Point]:
        config = self._config()
        reads = len(self.workload.reads)
        # (flags, passes over the input): BEACON-S vanilla runs NEST's
        # two-pass flow; BEACON-D's Atomic Engines make it single-pass.
        setups = {
            "beacon-s": (OptimizationFlags.vanilla(), 2),
            "beacon-d": (OptimizationFlags.all_for("beacon-d",
                                                   Algorithm.KMER_COUNTING), 1),
        }

        def make(backend: str) -> Point:
            flags, passes = setups[backend]

            def build():
                with spans.span("core.build"):
                    return build_system(backend, config, flags)

            def run(system) -> PointOutcome:
                with spans.span("core.run"):
                    report = system.run_algorithm(
                        Algorithm.KMER_COUNTING, self.workload,
                        k=KMER_K, num_counters=KMER_COUNTERS)
                return PointOutcome(report, [system], passes * reads)

            return Point(backend, build, run)

        return [make(backend) for backend in self.backends]


@contextlib.contextmanager
def _capture_serving_systems() -> Iterator[List[Any]]:
    """Record the system ``run_serving_point`` builds (it does not return
    it), so the bench can read its task and stat counters.  Its
    ``core.build`` span comes from the traced pass's wrappers."""
    built: List[Any] = []
    original = tenants.build_system

    def capture(*args, **kwargs):
        system = original(*args, **kwargs)
        built.append(system)
        return system

    tenants.build_system = capture
    try:
        yield built
    finally:
        tenants.build_system = original


class MtServe(Workload):
    """Open-loop multi-tenant serving at the base rate on BEACON-D/-S."""

    name = "mt-serve"
    backends = tenants.MT_BACKENDS

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.scale = ExperimentScale.quick()
        self.tenants = tenants.default_tenants(
            len(tenants.TENANT_TEMPLATES),
            tenants.serving_queries_per_tenant(self.scale))
        # The bench seed drives the arrival and query-mix streams.
        self.stream_seed = subseed(seed, self.name)

    def _config(self) -> BeaconConfig:
        return self.scale.config()

    def _make_inputs(self) -> None:
        self.workload = make_seeding_workload(
            dataset_by_name(MT_DATASET), scale=self.scale.genome_scale,
            read_scale=self.scale.read_scale)
        self.schedule = tenants.build_query_schedule(self.tenants,
                                                     self.stream_seed)

    def _build_indexes(self) -> None:
        # The keys ServingWorkbench looks up (k=13, 4 positions per bucket).
        cache = get_cache()
        reference, reads = self.workload.reference, self.workload.reads
        fm = cache.fm_index(reference)
        cache.fm_hot_profile(fm, reads[: max(1, int(len(reads) * 0.1))],
                             lambda: profile_fm_blocks(fm, reads))
        positions = len(reference) - 13 + 1
        cache.hash_index(reference, k=13, stride=1,
                         num_buckets=max(64, positions // 4))

    def points(self, spans: Span = NO_SPANS) -> List[Point]:
        def make(backend: str) -> Point:
            def run(_system) -> PointOutcome:
                with _capture_serving_systems() as built:
                    with spans.span("core.run"):
                        point = tenants.run_serving_point(
                            backend, self.tenants, dataset=MT_DATASET,
                            scale=self.scale, seed=self.stream_seed)
                return PointOutcome(point, built, len(self.schedule))

            return Point(backend, lambda: None, run)

        return [make(backend) for backend in self.backends]


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    cls.name: cls for cls in (FmNear, KmerFabric, MtServe)
}


def completed_count(outcome: PointOutcome) -> int:
    """Tasks or queries the NDP modules themselves counted as finished,
    independently of the report."""
    return sum(m.tasks_completed for s in outcome.systems
               for m in s.ndp_modules)
