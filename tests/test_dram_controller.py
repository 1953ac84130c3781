"""Integration tests for the DIMM controller: scheduling, throughput, energy."""

import numpy as np
import pytest

from repro.dram import (
    ChipInterleaveMapping,
    Dimm,
    DimmController,
    DimmGeometry,
    DimmKind,
    MemoryRequest,
    RankInterleaveMapping,
)
from repro.dram.request import AccessKind
from repro.sim import Engine
from repro.sim.component import Component

GEO = DimmGeometry()


def make_setup(kind=DimmKind.CXLG, policy="frfcfs", queue_capacity=64):
    engine = Engine()
    root = Component(engine, "sys")
    dimm = Dimm(engine, "dimm", root, kind)
    ctrl = DimmController(engine, "mc", root, dimm, policy=policy,
                          queue_capacity=queue_capacity)
    return engine, dimm, ctrl


def submit(ctrl, mapping, addr, size=32, kind=AccessKind.READ, done=None):
    req = MemoryRequest(addr=addr, size=size, kind=kind,
                        on_complete=(lambda r: done.append(r)) if done is not None else None)
    req.coord = mapping.map(addr)
    ctrl.submit_when_possible(req)
    return req


class TestCompletion:
    def test_all_requests_complete(self):
        engine, dimm, ctrl = make_setup()
        mapping = RankInterleaveMapping(GEO)
        done = []
        rng = np.random.default_rng(0)
        for _ in range(300):
            submit(ctrl, mapping, int(rng.integers(0, 1 << 20)) // 64 * 64,
                   size=64, done=done)
        engine.run()
        assert len(done) == 300
        assert all(r.completed_at is not None for r in done)
        assert ctrl.pending == 0

    def test_deterministic(self):
        def run_once():
            engine, dimm, ctrl = make_setup()
            mapping = RankInterleaveMapping(GEO)
            done = []
            rng = np.random.default_rng(1)
            for _ in range(100):
                submit(ctrl, mapping, int(rng.integers(0, 1 << 18)) // 64 * 64,
                       size=64, done=done)
            engine.run()
            return engine.now, [r.completed_at for r in done]

        assert run_once() == run_once()


class TestRowBufferBehaviour:
    def test_sequential_same_row_mostly_hits(self):
        engine, dimm, ctrl = make_setup()
        mapping = ChipInterleaveMapping(GEO, chips_per_group=16)
        done = []
        # 64 B lines within one row of one bank group.
        for i in range(32):
            submit(ctrl, mapping, i, size=1, done=done)
        engine.run()
        assert len(done) == 32
        assert dimm.total_row_hits > 20

    def test_random_rows_cause_activations(self):
        engine, dimm, ctrl = make_setup()
        mapping = RankInterleaveMapping(GEO)
        rng = np.random.default_rng(2)
        done = []
        for _ in range(100):
            submit(ctrl, mapping, int(rng.integers(0, 1 << 26)) // 64 * 64,
                   size=64, done=done)
        engine.run()
        assert dimm.total_activations > 50 * GEO.chips_per_rank


class TestFrFcfs:
    def _mixed_run(self, policy):
        engine, dimm, ctrl = make_setup(policy=policy)
        mapping = RankInterleaveMapping(GEO)
        done = []
        # Interleave two rows of the same bank: FR-FCFS should batch hits.
        lines_per_turn = GEO.banks * GEO.ranks  # same bank, next slot
        row_stride = lines_per_turn * GEO.row_bytes_per_rank // 64 * 64
        for i in range(24):
            base = (i % 2) * row_stride * 64
            submit(ctrl, mapping, base + (i // 2) * lines_per_turn * 64,
                   size=64, done=done)
        engine.run()
        return engine.now, dimm

    def test_frfcfs_no_slower_than_fcfs(self):
        t_fr, dimm_fr = self._mixed_run("frfcfs")
        t_fc, dimm_fc = self._mixed_run("fcfs")
        assert t_fr <= t_fc
        assert dimm_fr.total_row_hits >= dimm_fc.total_row_hits

    def test_unknown_policy_rejected(self):
        engine = Engine()
        root = Component(engine, "sys")
        dimm = Dimm(engine, "dimm", root, DimmKind.CXLG)
        with pytest.raises(ValueError):
            DimmController(engine, "mc", root, dimm, policy="magic")


class TestFineGrained:
    def test_unmodified_dimm_rejects_fine_grained(self):
        engine, dimm, ctrl = make_setup(kind=DimmKind.UNMODIFIED_CXL)
        mapping = ChipInterleaveMapping(GEO, chips_per_group=1, unit_bytes=32)
        req = MemoryRequest(addr=0, size=32)
        req.coord = mapping.map(0)
        with pytest.raises(ValueError, match="lockstep"):
            ctrl.submit_when_possible(req)

    def test_fine_grained_reads_fewer_bytes(self):
        def total_bytes(chips_per_group):
            engine, dimm, ctrl = make_setup()
            mapping = ChipInterleaveMapping(GEO, chips_per_group, unit_bytes=32)
            done = []
            rng = np.random.default_rng(3)
            for _ in range(200):
                submit(ctrl, mapping, int(rng.integers(0, 1 << 20)) // 32 * 32,
                       size=32, done=done)
            engine.run()
            assert len(done) == 200
            return ctrl.stats.get("bytes_accessed")

        fine = total_bytes(1)
        lockstep_mapping_bytes = 200 * 64  # 32 B requests on 16-chip bursts
        assert fine == 200 * 32
        assert fine < lockstep_mapping_bytes

    def test_chip_counters_follow_groups(self):
        engine, dimm, ctrl = make_setup()
        mapping = ChipInterleaveMapping(GEO, chips_per_group=8, unit_bytes=32)
        done = []
        for i in range(64):
            submit(ctrl, mapping, i * 32, size=32, done=done)
        engine.run()
        per_chip = dimm.chip_counters.per_chip()
        assert sum(per_chip) == 64 * 8  # each access credits its 8 chips
        assert dimm.chip_counters.imbalance() < 0.1


class TestBackpressure:
    def test_waiters_admitted_in_order(self):
        engine, dimm, ctrl = make_setup(queue_capacity=4)
        mapping = RankInterleaveMapping(GEO)
        done = []
        for i in range(50):
            submit(ctrl, mapping, i * 64, size=64, done=done)
        assert ctrl.stats.get("parked") > 0
        engine.run()
        assert len(done) == 50
        # Every parked request was eventually admitted and accounted.
        assert ctrl.stats.get("accepted") == 50


class TestEnergy:
    def test_energy_scales_with_work(self):
        engine, dimm, ctrl = make_setup()
        mapping = RankInterleaveMapping(GEO)
        done = []
        rng = np.random.default_rng(4)
        for _ in range(100):
            submit(ctrl, mapping, int(rng.integers(0, 1 << 24)) // 64 * 64,
                   size=64, done=done)
        engine.run()
        dimm.energy.finalize(engine.now)
        total = dimm.energy.total_nj()
        assert total > 0
        assert dimm.stats.get("energy_act_nj") > 0
        assert dimm.stats.get("energy_rw_nj") > 0
        assert dimm.stats.get("energy_background_nj") > 0

    def test_write_energy_differs_from_read(self):
        def run(kind):
            engine, dimm, ctrl = make_setup()
            mapping = RankInterleaveMapping(GEO)
            done = []
            for i in range(50):
                submit(ctrl, mapping, i * 64, size=64, kind=kind, done=done)
            engine.run()
            return dimm.stats.get("energy_rw_nj")

        assert run(AccessKind.WRITE) > run(AccessKind.READ)


#: ``TestPinnedSchedule._random_run``'s completion cycles, in completion
#: order, recorded from the reference FR-FCFS controller.
PINNED_COMPLETIONS = [
    48, 48, 48, 48, 52, 52, 52, 52, 56, 56, 56, 56,
    60, 60, 60, 64, 64, 68, 68, 68, 72, 94, 144, 144,
    148, 148, 152, 152, 152, 152, 156, 156, 156, 156, 160, 164,
    168, 172, 178, 178, 182, 182, 182, 186, 186, 186, 190, 190,
    194, 194, 194, 198, 198, 202, 206, 248, 252, 252, 252, 264,
    268, 272, 274, 278, 282, 282, 286, 286, 290, 290, 294, 298,
    302, 308, 312, 312, 316, 320, 348, 348, 352, 360, 364, 368,
    374, 374, 378, 378, 382, 382, 386, 390, 390, 390, 390, 394,
    394, 394, 398, 412, 416, 416, 442, 444, 446, 448, 474, 474,
    474, 478, 478, 482, 486, 486, 490, 490, 494, 494, 508, 508,
    512, 512, 534, 538, 538, 542, 542, 542, 542, 546, 546, 568,
    570, 570, 574, 586, 590, 604, 604, 604, 608, 608, 608, 612,
    634, 634, 638, 638, 638, 642, 642, 642, 646, 652, 652, 664,
    666, 670, 686, 686, 690, 690, 694, 696, 698, 730, 734, 734,
    738, 738, 742, 742, 742, 746, 746, 746, 750, 750, 754, 760,
    782, 782, 786, 786, 790, 794, 826, 830, 834, 834, 834, 838,
    838, 838, 842, 842, 842, 846, 922, 930,
]


class TestPinnedSchedule:
    """A fixed random workload's exact schedule and energy, pinned, so any
    controller edit that moves the FR-FCFS schedule fails here."""

    def _random_run(self, n=200):
        engine, dimm, ctrl = make_setup()
        mapping = RankInterleaveMapping(GEO)
        done = []
        rng = np.random.default_rng(7)
        for _ in range(n):
            submit(ctrl, mapping, int(rng.integers(0, 1 << 22)) // 64 * 64,
                   size=64, done=done)
        engine.run()
        dimm.energy.finalize(engine.now)
        return (engine.now, [r.completed_at for r in done],
                dimm.energy.total_nj(), dimm.total_activations,
                dimm.total_row_hits)

    def test_random_run_schedule_is_pinned(self):
        now, completions, energy, activations, row_hits = self._random_run()
        assert completions == PINNED_COMPLETIONS
        assert (now, energy, activations, row_hits) == (
            18720, 5141.760000000001, 2784, 416)
