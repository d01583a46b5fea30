"""DES kernel tests: ordering, determinism, processes, resources, channels."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Channel, Resource, SimError, Simulator
from repro.trace import MemoryRecorder, to_chrome_trace, use_recorder


class TestEventsAndTimeouts:
    def test_timeout_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.timeout(5.0).add_callback(lambda ev: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_event_double_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimError):
            ev.succeed()

    def test_negative_delay_rejected(self):
        with pytest.raises(SimError):
            Simulator().timeout(-1.0)

    def test_callback_on_triggered_event_fires(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(42)
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        sim.run()
        assert got == [42]

    def test_fifo_tiebreak_at_same_time(self):
        sim = Simulator()
        order = []
        for i in range(10):
            sim.timeout(1.0, i).add_callback(lambda ev: order.append(ev.value))
        sim.run()
        assert order == list(range(10))

    def test_run_until(self):
        sim = Simulator()
        sim.timeout(10.0)
        final = sim.run(until=5.0)
        assert final == 5.0
        assert not sim.idle

    def test_all_of(self):
        sim = Simulator()
        evs = [sim.timeout(t, t) for t in (3.0, 1.0, 2.0)]
        done = []
        sim.all_of(evs).add_callback(lambda ev: done.append((sim.now, ev.value)))
        sim.run()
        assert done == [(3.0, [3.0, 1.0, 2.0])]

    def test_all_of_empty(self):
        sim = Simulator()
        done = []
        sim.all_of([]).add_callback(lambda ev: done.append(sim.now))
        sim.run()
        assert done == [0.0]


class TestProcesses:
    def test_sequence_of_delays(self):
        sim = Simulator()
        log = []

        def worker():
            yield 2.0
            log.append(sim.now)
            yield 3.0
            log.append(sim.now)
            return "done"

        proc = sim.process(worker())
        sim.run()
        assert log == [2.0, 5.0]
        assert proc.triggered and proc.value == "done"

    def test_process_waits_for_event(self):
        sim = Simulator()
        gate = sim.event()
        log = []

        def waiter():
            val = yield gate
            log.append((sim.now, val))

        def opener():
            yield 7.0
            gate.succeed("open")

        sim.process(waiter())
        sim.process(opener())
        sim.run()
        assert log == [(7.0, "open")]

    def test_process_joins_process(self):
        sim = Simulator()
        log = []

        def child():
            yield 4.0
            return 99

        def parent():
            result = yield sim.process(child())
            log.append((sim.now, result))

        sim.process(parent())
        sim.run()
        assert log == [(4.0, 99)]

    def test_yield_none_resumes_same_time(self):
        sim = Simulator()
        log = []

        def p():
            yield None
            log.append(sim.now)

        sim.process(p())
        sim.run()
        assert log == [0.0]

    def test_bad_yield_type_raises(self):
        sim = Simulator()

        def p():
            yield "nonsense"

        sim.process(p())
        with pytest.raises(SimError):
            sim.run()

    def test_runaway_protection(self):
        sim = Simulator()

        def forever():
            while True:
                yield 1.0

        sim.process(forever())
        with pytest.raises(SimError):
            sim.run(max_events=100)

    @given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_total_time_is_sum_of_delays(self, delays):
        sim = Simulator()

        def p():
            for d in delays:
                yield d

        sim.process(p())
        assert sim.run() == pytest.approx(sum(delays))


class TestResource:
    def test_mutual_exclusion_serializes(self):
        sim = Simulator()
        res = Resource(sim, capacity=1, name="ctrl")
        spans = []

        def user(uid):
            yield res.acquire()
            start = sim.now
            yield 10.0
            res.release()
            spans.append((uid, start, sim.now))

        for i in range(3):
            sim.process(user(i))
        sim.run()
        assert [s[1:] for s in sorted(spans)] == [(0, 10), (10, 20), (20, 30)]
        assert res.total_acquisitions == 3

    def test_capacity_two_overlaps(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)

        def user():
            yield from res.use(10.0)

        for _ in range(4):
            sim.process(user())
        assert sim.run() == 20.0

    def test_release_idle_raises(self):
        sim = Simulator()
        with pytest.raises(SimError):
            Resource(sim).release()

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimError):
            Resource(Simulator(), capacity=0)


class TestChannel:
    def test_one_deep_blocks_second_put(self):
        """The MPI 1-deep pair buffer: sender stalls until receiver drains."""
        sim = Simulator()
        ch = Channel(sim, capacity=1)
        sent, received = [], []

        def sender():
            for k in range(3):
                yield ch.put(k)
                sent.append((k, sim.now))
                yield 1.0

        def receiver():
            for _ in range(3):
                yield 10.0  # slow consumer
                msg = yield ch.get()
                received.append((msg, sim.now))

        sim.process(sender())
        sim.process(receiver())
        sim.run()
        # First put immediate; subsequent puts gated by the slow receiver.
        assert sent[0][1] == 0.0
        assert sent[1][1] == pytest.approx(10.0)
        assert sent[2][1] == pytest.approx(20.0)
        assert [m for m, _ in received] == [0, 1, 2]

    def test_deeper_channel_decouples(self):
        sim = Simulator()
        ch = Channel(sim, capacity=3)
        sent = []

        def sender():
            for k in range(3):
                yield ch.put(k)
                sent.append(sim.now)

        sim.process(sender())
        sim.run()
        assert sent == [0.0, 0.0, 0.0]
        assert ch.occupancy == 3

    def test_get_before_put(self):
        sim = Simulator()
        ch = Channel(sim, capacity=1)
        got = []

        def receiver():
            msg = yield ch.get()
            got.append((msg, sim.now))

        def sender():
            yield 5.0
            yield ch.put("hello")

        sim.process(receiver())
        sim.process(sender())
        sim.run()
        assert got == [("hello", 5.0)]

    def test_fifo_order(self):
        sim = Simulator()
        ch = Channel(sim, capacity=10)
        for k in range(5):
            ch.put(k)
        order = []

        def receiver():
            for _ in range(5):
                msg = yield ch.get()
                order.append(msg)

        sim.process(receiver())
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class TestTrace:
    """The bare simulator's emissions into the ambient ``repro.trace``
    recorder (the one tracing layer)."""

    @staticmethod
    def _run_two_processes(recorder):
        with use_recorder(recorder):
            sim = Simulator()  # captures the ambient recorder

        def p(delay):
            yield delay

        sim.process(p(5.0), name="a", tid=1)
        sim.process(p(7.0), name="b", tid=2)
        sim.run()
        return sim

    def test_causality(self):
        rec = MemoryRecorder(verbose=True)
        sim = self._run_two_processes(rec)
        spans = [e for e in rec.events if e.cat == "sim.process"]
        assert [e.name for e in spans] == ["a", "b"]  # completion order
        assert [e.dur_us for e in spans] == [5.0 / 1e3, 7.0 / 1e3]
        for e in spans:
            assert e.ts_us == 0.0
            assert (e.ts_us + e.dur_us) * 1e3 <= sim.now
        assert len([e for e in rec.events if e.name == "a"]) == 1

    def test_format_and_disable(self):
        # No recorder installed: the simulator holds the disabled null one.
        assert not self._run_two_processes(None).recorder.enabled
        # Phase-granularity recorder: per-process spans stay off.
        quiet = MemoryRecorder()
        self._run_two_processes(quiet)
        assert quiet.events == []
        # Verbose: recorded, and the Chrome export carries them.
        rec = MemoryRecorder(verbose=True)
        self._run_two_processes(rec)
        doc = to_chrome_trace(rec)
        assert {"a", "b"} <= {e["name"] for e in doc["traceEvents"]}
