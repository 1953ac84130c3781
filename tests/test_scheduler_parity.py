"""Event-order exactness of the engine and of the fabric's inline hops.

The engine keeps one binary heap of ``(time, seq, event)``; correctness
demands the exact ``(time, FIFO-within-cycle)`` dispatch order across
every way a run can be driven.  This suite enforces that three ways:

1. every benched figure scenario runs at quick scale with the fabric's
   inline hop path and again with every hop forced through
   ``PackedChannel.send`` (a falsy recorder installed), and the full
   result digests must be identical,
2. a hypothesis property drives the engine through random schedules —
   same-cycle pushes while the cycle drains, cancelled handles, ``stop()``
   mid-cycle, ``until`` and ``max_events`` — and checks the dispatch
   order against a trivial oracle, a stable sort on ``(time, insertion
   order)``, and
3. targeted unit tests cover cancellable handles, rescheduling,
   non-integral delays and the occupancy counters.
"""

from dataclasses import fields, is_dataclass
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentScale, ParallelSweepRunner
from repro.obs.recorder import NullRecorder
from repro.perf.harness import BENCH_FIGURES, fingerprint
from repro.sim import Engine, SimulationError

#: The nine figure scenarios plus the open-loop serving workload —
#: every campaign whose results the paper reproduction leans on.
PARITY_SCENARIOS = [
    "fig3", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
    "sec6g", "scalability", "mt-serving",
]


def _digest(obj):
    """Canonical nested-tuple digest of a whole figure result.

    Stricter than :func:`fingerprint`: besides the Report tuples it
    captures every derived series and scalar (some figures — fig13's
    chip profiles, fig17's energy shares — publish no Report at all),
    with floats compared exactly.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        return tuple(
            (f.name, _digest(getattr(obj, f.name))) for f in fields(obj)
        )
    if isinstance(obj, dict):
        return tuple((key, _digest(value)) for key, value in obj.items())
    if isinstance(obj, (list, tuple)):
        return tuple(_digest(value) for value in obj)
    if isinstance(obj, (int, float, str, bool, type(None))):
        return obj
    return repr(obj)


class TestFigureParity:
    @pytest.mark.parametrize("name", PARITY_SCENARIOS)
    def test_inline_and_per_hop_fabric_identical(self, name, monkeypatch):
        digests = []
        for tracer in (None, NullRecorder()):
            # Any recorder other than None sends every fabric hop through
            # PackedChannel.send; a falsy one records nothing.
            monkeypatch.setattr(Engine, "default_tracer", tracer)
            result = BENCH_FIGURES[name](ExperimentScale.quick(),
                                         runner=ParallelSweepRunner(jobs=1))
            digests.append((fingerprint(result), _digest(result)))
        assert digests[0] == digests[1], (
            f"{name}: the inline hop path diverged from PackedChannel.send"
        )


# -- property: dispatch order against a stable-sort oracle ---------------------------


#: Push indices that may carry an action (follow-up pushes, a cancel, a stop).
_ACTION_SLOTS = 60


@st.composite
def _programs(draw):
    """A random engine program.

    ``initial`` are the pushes made before the first run: ``(delay,
    cancellable)``.  ``actions`` maps a push index to what its callback
    does when it fires: follow-up pushes ``(delay, cancellable)`` (delay 0
    pushes into the cycle being drained), a push index to cancel, and
    whether to call ``stop()``.  ``cancel_first`` are handles cancelled
    before the first run.  ``runs`` are the ``(until_offset, max_events)``
    arguments of successive ``run()`` calls.
    """
    push = st.tuples(st.integers(min_value=0, max_value=12), st.booleans())
    initial = draw(st.lists(push, min_size=1, max_size=25))
    actions = draw(st.dictionaries(
        st.integers(min_value=0, max_value=_ACTION_SLOTS - 1),
        st.tuples(
            st.lists(push, max_size=3),
            st.one_of(st.none(),
                      st.integers(min_value=0, max_value=_ACTION_SLOTS - 1)),
            st.booleans(),
        ),
        max_size=25,
    ))
    cancel_first = draw(st.lists(
        st.integers(min_value=0, max_value=len(initial) - 1), max_size=4))
    runs = draw(st.lists(
        st.tuples(st.one_of(st.none(), st.integers(min_value=0, max_value=15)),
                  st.one_of(st.none(), st.integers(min_value=0, max_value=12))),
        max_size=6,
    ))
    return initial, actions, cancel_first, runs


class _ProgramRun:
    """Runs one program on a real engine and logs everything it did."""

    def __init__(self, program):
        self.initial, self.actions, self.cancel_first, self.runs = program
        self.eng = Engine()
        #: Per push index: (time, pusher index or None, handle or None).
        self.pushes = []
        #: Push indices whose callbacks ran, in order, with their run number.
        self.fired = []
        self.run_number = 0

    def push(self, delay, cancellable, pusher):
        index = len(self.pushes)
        callback = partial(self.fire, index)
        handle = None
        if cancellable:
            handle = self.eng.schedule_cancellable(delay, callback)
        else:
            self.eng.schedule(delay, callback)
        self.pushes.append((self.eng.now + delay, pusher, handle))

    def fire(self, index):
        self.fired.append((index, self.run_number))
        followups, cancel, stop = self.actions.get(index, ((), None, False))
        for delay, cancellable in followups:
            self.push(delay, cancellable, index)
        if cancel is not None and cancel < len(self.pushes):
            handle = self.pushes[cancel][2]
            if handle is not None:
                handle.cancel()
        if stop:
            self.eng.stop()

    def execute(self):
        for delay, cancellable in self.initial:
            self.push(delay, cancellable, None)
        for index in self.cancel_first:
            handle = self.pushes[index][2]
            if handle is not None:
                handle.cancel()
        calls = [*self.runs, *[(None, None)] * 200]
        #: Per run() call: (until, max_events, executed, raised, now after).
        self.log = []
        for until_offset, max_events in calls:
            if not self.eng.pending_events:
                break
            until = None if until_offset is None else self.eng.now + until_offset
            before = self.eng.events_executed
            raised = False
            try:
                self.eng.run(until=until, max_events=max_events)
            except SimulationError:
                raised = True
            self.log.append((until, max_events,
                             self.eng.events_executed - before, raised,
                             self.eng.now))
            self.run_number += 1
        assert not self.eng.pending_events


def _oracle(prog):
    """Expected dispatch order and fired callbacks, from a stable sort.

    Every push is at a time ``>= now``, so a correct queue dispatches all
    pushes in ``(time, insertion order)`` order however runs are split.
    Walking that order replays the cancellations: a handle is skipped iff
    it was cancelled before the run started or by a callback that fired
    earlier in the walk, after the handle had been pushed.
    """
    order = sorted(range(len(prog.pushes)),
                   key=lambda i: (prog.pushes[i][0], i))
    cancelled = {i for i in prog.cancel_first
                 if prog.pushes[i][2] is not None}
    fired = []
    fired_set = set()
    for index in order:
        if index in cancelled:
            continue
        fired.append(index)
        fired_set.add(index)
        _followups, target, _stop = prog.actions.get(index, ((), None, False))
        if target is None or target >= len(prog.pushes):
            continue
        pusher = prog.pushes[target][1]
        pushed_by_now = pusher is None or pusher in fired_set
        if pushed_by_now and prog.pushes[target][2] is not None:
            cancelled.add(target)
    return order, fired


class TestPopOrderProperty:
    @settings(max_examples=300, deadline=None)
    @given(_programs())
    def test_dispatch_order_matches_stable_sort_oracle(self, program):
        Engine.reset_process_counters()
        prog = _ProgramRun(program)
        prog.execute()
        order, expected_fired = _oracle(prog)

        # Callbacks ran exactly in oracle order; cancelled handles were
        # skipped yet still counted as executed events.
        assert [index for index, _run in prog.fired] == expected_fired
        assert prog.eng.events_executed == len(prog.pushes)

        # Split the oracle order into the slices each run() dispatched.
        position = 0
        cycles = 0
        for run_number, (until, max_events, executed, raised, now) in enumerate(
                prog.log):
            dispatched = order[position:position + executed]
            position += executed
            times = [prog.pushes[i][0] for i in dispatched]
            cycles += len(set(times))
            fired_here = [i for i, r in prog.fired if r == run_number]
            assert fired_here == [i for i in dispatched if i in fired_here]
            stopped = any(
                prog.actions.get(i, ((), None, False))[2] for i in fired_here
            )
            if stopped:
                # stop() ends the run right after the stopping event.
                assert prog.actions.get(dispatched[-1], ((), None, False))[2]
            budget = None if max_events is None else max(max_events, 1)
            if budget is not None:
                assert executed <= budget
            remaining = order[position:]
            if raised:
                assert executed == budget and remaining and not stopped
            if until is not None:
                assert all(t <= until for t in times)
            if stopped or executed == budget:
                continue
            # Neither stopped nor out of budget: the run drained everything
            # up to `until` and left the clock there.
            if until is None:
                assert not remaining
            else:
                assert all(prog.pushes[i][0] > until for i in remaining)
                assert now == until
        assert position == len(order)

        occupancy = Engine.process_occupancy()["heap"]
        assert occupancy["events_enqueued"] == len(prog.pushes)
        assert occupancy["cycles_started"] == cycles
        Engine.reset_process_counters()


# -- engine surface ---------------------------------------------------------------


class TestNonIntegralDelays:
    """Regression: ``int(delay)`` used to silently truncate floats."""

    def test_fractional_delay_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError, match="non-integral delay"):
            eng.schedule(1.5, lambda: None)

    def test_fractional_absolute_time_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError, match="non-integral"):
            eng.schedule_at(2.25, lambda: None)

    def test_integral_float_normalized(self):
        eng = Engine()
        hits = []
        eng.schedule(3.0, lambda: hits.append(eng.now))
        eng.run()
        assert hits == [3]
        assert type(eng.now) is int

    def test_numpy_float_delay_rejected(self):
        np = pytest.importorskip("numpy")
        eng = Engine()
        with pytest.raises(SimulationError, match="non-integral delay"):
            eng.schedule(np.float64(2.5), lambda: None)


class TestCancellableHandles:
    def test_cancelled_event_does_not_fire(self):
        eng = Engine()
        hits = []
        handle = eng.schedule_cancellable(5, lambda: hits.append("x"))
        handle.cancel()
        eng.run()
        assert hits == []
        assert handle.cancelled

    def test_cancelled_slot_still_counts_as_executed(self):
        # The dispatch slot exists either way; skipping the callback must
        # not change event accounting between cancel-heavy and plain runs.
        eng = Engine()
        eng.schedule_cancellable(1, lambda: None).cancel()
        eng.schedule(1, lambda: None)
        eng.run()
        assert eng.events_executed == 2

    def test_cancel_then_fresh_schedule_is_the_timeout_idiom(self):
        # The packer's flush timer: cancel the pending deadline, arm a new
        # one.  Only the latest deadline fires.
        eng = Engine()
        fired = []
        handle = eng.schedule_cancellable(10, lambda: fired.append(10))
        handle.cancel()
        eng.schedule_cancellable(4, lambda: fired.append(4))
        eng.run()
        assert fired == [4]


class TestProcessCounters:
    def test_reset_zeroes_events_and_occupancy(self):
        eng = Engine()
        eng.schedule(1, lambda: None)
        eng.run()
        assert Engine.global_events_executed() > 0
        Engine.reset_process_counters()
        assert Engine.global_events_executed() == 0
        assert Engine.process_occupancy() == {}

    def test_occupancy_aggregates_batches(self):
        Engine.reset_process_counters()
        eng = Engine()
        for _ in range(6):
            eng.schedule(3, lambda: None)  # one 6-event batch
        eng.schedule(9, lambda: None)
        eng.run()
        occ = Engine.process_occupancy()["heap"]
        assert occ["events_enqueued"] == 7
        assert occ["cycles_started"] == 2
        assert occ["avg_batch"] == pytest.approx(3.5)
        Engine.reset_process_counters()

    def test_occupancy_keyed_by_scheduler(self):
        # One event queue: the report keeps its name as the only key, the
        # shape bench payloads and their readers use.
        Engine.reset_process_counters()
        for _ in range(2):
            eng = Engine()
            eng.schedule(1, lambda: None)
            eng.run()
        assert list(Engine.process_occupancy()) == ["heap"]
        assert Engine.process_occupancy()["heap"]["events_enqueued"] == 2
        Engine.reset_process_counters()

    def test_resumed_cycle_counts_as_started_again(self):
        # A run stopped mid-cycle leaves the rest of that cycle queued; the
        # next run starts draining it again and counts it as a new start.
        Engine.reset_process_counters()
        eng = Engine()
        eng.schedule(2, eng.stop)
        eng.schedule(2, lambda: None)
        eng.run()
        assert eng.pending_events == 1
        eng.run()
        assert eng.now == 2
        occ = Engine.process_occupancy()["heap"]
        assert occ["events_enqueued"] == 2
        assert occ["cycles_started"] == 2
        Engine.reset_process_counters()
