"""Tests for the CXL fabric: flits, links, packer, routing, access path."""

import pytest

from repro.cxl import (
    CommParams,
    FLIT_BYTES,
    IDEAL_LINK_PARAMS,
    Link,
    LinkParams,
    Message,
    MessageKind,
    PackedChannel,
)
from repro.cxl.topology import MemoryPool
from repro.dram import ChipInterleaveMapping, DimmGeometry, DimmKind, MemoryRequest
from repro.dram.request import AccessKind
from repro.obs.recorder import TraceRecorder
from repro.sim import Engine
from repro.sim.component import Component

GEO = DimmGeometry()


class TestMessageWireMath:
    def test_small_payload_rounds_to_flit(self):
        m = Message(MessageKind.MEM_RESPONSE, payload_bytes=32, destination="d")
        assert m.unpacked_wire_bytes == FLIT_BYTES
        assert m.packed_wire_bytes == 34  # 32 + 2 B packed header

    def test_large_payload_multiple_flits(self):
        m = Message(MessageKind.MEM_RESPONSE, payload_bytes=200, destination="d")
        assert m.unpacked_wire_bytes == 256

    def test_request_header_cost(self):
        m = Message(MessageKind.MEM_REQUEST, payload_bytes=8, destination="d")
        assert m.packed_wire_bytes == 24

    def test_payload_validation(self):
        with pytest.raises(ValueError):
            Message(MessageKind.MEM_REQUEST, payload_bytes=0, destination="d")


class TestLink:
    def _link(self, params):
        engine = Engine()
        root = Component(engine, "sys")
        return engine, Link(engine, "l", root, params)

    def test_serialization_and_latency(self):
        engine, link = self._link(LinkParams(bytes_per_cycle=8, latency_cycles=10))
        arrivals = []
        link.transfer(64, lambda: arrivals.append(engine.now))
        link.transfer(64, lambda: arrivals.append(engine.now))
        engine.run()
        assert arrivals == [18, 26]  # 8 cycles serialize each, shared queue

    def test_ideal_link_is_instant(self):
        engine, link = self._link(IDEAL_LINK_PARAMS)
        arrivals = []
        for _ in range(5):
            link.transfer(10_000, lambda: arrivals.append(engine.now))
        engine.run()
        assert arrivals == [0] * 5

    def test_energy_accounting(self):
        engine, link = self._link(LinkParams(4, 0, pj_per_byte=2.0))
        link.transfer(100, lambda: None)
        engine.run()
        assert link.stats.get("energy_pj") == 200.0

    def test_utilization(self):
        engine, link = self._link(LinkParams(bytes_per_cycle=1, latency_cycles=0))
        link.transfer(50, lambda: None)
        engine.run()
        assert link.utilization(100) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkParams(bytes_per_cycle=0, latency_cycles=1)
        with pytest.raises(ValueError):
            LinkParams(bytes_per_cycle=1, latency_cycles=-1)
        engine, link = self._link(LinkParams(1, 0))
        with pytest.raises(ValueError):
            link.transfer(0, lambda: None)

    def test_fractional_latency_rejected_up_front(self):
        # Rejected at construction, not at the first transfer deep in a run.
        with pytest.raises(ValueError, match="whole number of cycles"):
            LinkParams(bytes_per_cycle=40, latency_cycles=40.5)
        with pytest.raises(ValueError, match="whole number of cycles"):
            LinkParams(bytes_per_cycle=40, latency_cycles="40")

    def test_integral_float_latency_normalized(self):
        params = LinkParams(bytes_per_cycle=8, latency_cycles=10.0)
        assert type(params.latency_cycles) is int
        engine, link = self._link(params)
        arrivals = []
        link.transfer(64, lambda: arrivals.append(engine.now))
        engine.run()
        assert arrivals == [18]
        assert type(engine.now) is int


class TestPackedChannel:
    def _channel(self, packing, bpc=8):
        engine = Engine()
        root = Component(engine, "sys")
        link = Link(engine, "l", root, LinkParams(bytes_per_cycle=bpc,
                                                  latency_cycles=2))
        chan = PackedChannel(engine, "c", root, link, packing=packing)
        return engine, link, chan

    def _msg(self, size, on_delivered):
        return Message(MessageKind.MEM_RESPONSE, payload_bytes=size,
                       destination="d", on_delivered=on_delivered)

    def test_unpacked_costs_whole_flits(self):
        engine, link, chan = self._channel(packing=False)
        got = []
        for _ in range(4):
            chan.send(self._msg(8, lambda m: got.append(m.msg_id)))
        engine.run()
        assert len(got) == 4
        assert link.stats.get("wire_bytes") == 4 * FLIT_BYTES

    def test_packing_reduces_wire_bytes_under_load(self):
        engine, link, chan = self._channel(packing=True)
        got = []
        for _ in range(8):
            chan.send(self._msg(8, lambda m: got.append(m.msg_id)))
        engine.run()
        assert len(got) == 8
        assert link.stats.get("wire_bytes") < 8 * FLIT_BYTES

    def test_every_packed_message_delivered_exactly_once(self):
        engine, link, chan = self._channel(packing=True)
        got = []
        for i in range(100):
            chan.send(self._msg(5 + i % 20, lambda m: got.append(m.msg_id)))
        engine.run()
        assert len(got) == 100
        assert len(set(got)) == 100

    def test_idle_link_flushes_immediately(self):
        engine, link, chan = self._channel(packing=True)
        arrivals = []
        chan.send(self._msg(8, lambda m: arrivals.append(engine.now)))
        engine.run()
        # One small message on an idle link: no packing delay beyond
        # serialization + latency.
        assert arrivals[0] <= 2 + FLIT_BYTES // 8 + 1

    def test_large_messages_bypass_packer(self):
        engine, link, chan = self._channel(packing=True)
        got = []
        chan.send(self._msg(128, lambda m: got.append(m.msg_id)))
        engine.run()
        assert got
        assert chan.stats.get("direct_messages") == 1

    def test_trace_waits_count_from_cycle_zero(self):
        # 40 B/cycle: a flit serializes in 2 cycles.  At cycles 0 and 5 two
        # 8 B messages are sent; the first ships at once, the second waits
        # 2 cycles in the buffer for the link.  A message buffered at cycle
        # 0 must report its wait too (cycle 0 is not "missing").
        engine, link, chan = self._channel(packing=True, bpc=40)
        recorder = TraceRecorder()
        engine.tracer = recorder

        class Cargo:
            def __init__(self, req_id):
                self.req_id = req_id

        def send_pair(first_id):
            for req_id in (first_id, first_id + 1):
                chan.send(Message(MessageKind.MEM_RESPONSE, payload_bytes=8,
                                  destination="d", cargo=Cargo(req_id)))

        send_pair(0)
        engine.schedule(5, lambda: send_pair(2))
        engine.run()
        flushes = [event["args"] for event in recorder.events
                   if event.get("name") == "flit_flush"]
        assert [f["reqs"] for f in flushes] == [[0], [1], [2], [3]]
        assert [f["waits"] for f in flushes] == [[0], [2], [0], [2]]

    def test_packing_efficiency_metric(self):
        engine, link, chan = self._channel(packing=True)
        for _ in range(16):
            chan.send(self._msg(8, None))
        engine.run()
        assert 0.0 < chan.packing_efficiency() <= 1.0


def build_pool(comm):
    engine = Engine()
    root = Component(engine, "sys")
    pool = MemoryPool(engine, "pool", root, comm)
    pool.fabric.add_host()
    pool.fabric.add_switch("sw0")
    pool.fabric.add_switch("sw1")
    pool.add_dimm("d0.0", "sw0", DimmKind.CXLG)
    pool.add_dimm("d0.1", "sw0", DimmKind.UNMODIFIED_CXL)
    pool.add_dimm("d1.0", "sw1", DimmKind.UNMODIFIED_CXL)
    return engine, pool


class TestRouting:
    def test_same_switch_with_bias_avoids_host(self):
        _engine, pool = build_pool(CommParams(device_bias=True))
        route = pool.fabric.route("d0.0", "d0.1")
        assert not route.via_host
        assert route.hop_count == 3  # up, switch bus, down

    def test_same_switch_without_bias_detours(self):
        _engine, pool = build_pool(CommParams(device_bias=False))
        route = pool.fabric.route("d0.0", "d0.1", force_host=True)
        assert route.via_host
        assert route.hop_count == 7

    def test_cross_switch_always_via_host(self):
        _engine, pool = build_pool(CommParams(device_bias=True))
        route = pool.fabric.route("d0.0", "d1.0")
        assert route.via_host

    def test_switch_sourced_route(self):
        _engine, pool = build_pool(CommParams(device_bias=True))
        route = pool.fabric.route("sw0", "d0.1")
        assert route.hop_count == 2
        assert not route.via_host

    def test_self_route_is_empty(self):
        _engine, pool = build_pool(CommParams())
        assert pool.fabric.route("d0.0", "d0.0").hop_count == 0

    def test_turnaround_accounting(self):
        _engine, pool = build_pool(CommParams(device_bias=True))
        pool.fabric.route("d0.0", "d0.1")
        assert pool.fabric.switches["sw0"].stats.get("in_switch_turnarounds") == 1


class TestAccessPath:
    def _request(self, addr=0, size=32, kind=AccessKind.READ, dimm=1):
        mapping = ChipInterleaveMapping(GEO, chips_per_group=16)
        req = MemoryRequest(addr=addr, size=size, kind=kind)
        req.coord = mapping.map(addr)
        req.dimm_index = dimm
        return req

    def test_read_round_trip_completes(self):
        engine, pool = build_pool(CommParams(device_bias=True))
        done = []
        req = self._request()
        req.on_complete = lambda r: done.append(r)
        pool.access(req, "d0.0")
        engine.run()
        assert done and done[0].latency > 0

    def test_bias_faster_than_detour(self):
        def run(device_bias):
            engine, pool = build_pool(CommParams(device_bias=device_bias))
            done = []
            req = self._request()
            req.on_complete = lambda r: done.append(r)
            pool.access(req, "d0.0")
            engine.run()
            return done[0].latency

        assert run(True) < run(False)

    def test_untranslated_request_rejected(self):
        engine, pool = build_pool(CommParams())
        with pytest.raises(ValueError):
            pool.access(MemoryRequest(addr=0, size=8), "d0.0")

    def test_local_atomic_runs_read_and_write(self):
        engine, pool = build_pool(CommParams(device_bias=True))
        done = []
        req = self._request(kind=AccessKind.ATOMIC_RMW, dimm=0)
        req.on_complete = lambda r: done.append(r)
        pool.access(req, "d0.0")
        engine.run()
        assert done
        mc = pool.controllers[0]
        assert mc.stats.get("issued") == 2  # read + write

    def test_remote_atomic_requires_engine(self):
        engine, pool = build_pool(CommParams(device_bias=True))
        req = self._request(kind=AccessKind.ATOMIC_RMW, dimm=1)
        with pytest.raises(RuntimeError, match="atomic engine"):
            pool.access(req, "d0.0")
        engine.run()

    def test_idealized_comm_is_faster(self):
        def run(comm):
            engine, pool = build_pool(comm)
            done = []
            for i in range(50):
                req = self._request(addr=i * 64, size=64)
                req.on_complete = lambda r: done.append(r)
                pool.access(req, "d0.0")
            engine.run()
            assert len(done) == 50
            return engine.now

        real = run(CommParams(device_bias=True))
        ideal = run(CommParams(device_bias=True).idealized())
        assert ideal < real
