"""Property tests for the DES resource layer: arbitrary schedules pushed
through Resource and Channel never violate capacity, FIFO grant order or
clock monotonicity -- with the runtime sanitizer auditing every grant,
release and buffer operation as the schedule plays out."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.resources import Channel, Resource
from repro.verify import Sanitizer, use_sanitizer


@given(
    capacity=st.integers(min_value=1, max_value=4),
    jobs=st.lists(
        st.tuples(
            st.floats(0.0, 10.0),  # arrival delay
            st.floats(0.0, 10.0),  # hold time
        ),
        min_size=1,
        max_size=30,
    ),
)
@settings(max_examples=50, deadline=None)
def test_resource_schedules_grant_fifo_within_capacity(capacity, jobs):
    san = Sanitizer()
    with use_sanitizer(san):
        sim = Simulator()
        res = Resource(sim, capacity=capacity, name="r")
        grant_order = []

        def job(idx, arrive, hold):
            yield arrive
            yield res.acquire()
            grant_order.append(idx)
            try:
                yield hold
            finally:
                res.release()

        for i, (arrive, hold) in enumerate(jobs):
            sim.process(job(i, arrive, hold), name=f"job{i}")
        sim.run()

    assert not san.violations
    assert sorted(grant_order) == list(range(len(jobs)))
    assert res.in_use == 0 and not res._waiters
    assert res.total_acquisitions == len(jobs)
    # The sanitizer audited every grant and release.
    assert san.checks["resource.fifo-grant"] == len(jobs)
    assert san.checks["resource.idle-release"] == len(jobs)
    assert san.checks["resource.mutual-exclusion"] == len(jobs)


@given(
    capacity=st.integers(min_value=1, max_value=3),
    n_items=st.integers(min_value=1, max_value=20),
    put_delays=st.lists(st.floats(0.0, 5.0), min_size=20, max_size=20),
    get_delays=st.lists(st.floats(0.0, 5.0), min_size=20, max_size=20),
)
@settings(max_examples=50, deadline=None)
def test_channel_schedules_deliver_in_order_within_capacity(
    capacity, n_items, put_delays, get_delays
):
    san = Sanitizer()
    with use_sanitizer(san):
        sim = Simulator()
        ch = Channel(sim, capacity=capacity, name="c")
        received = []

        def producer():
            for i in range(n_items):
                yield put_delays[i]
                yield ch.put(i)

        def consumer():
            for i in range(n_items):
                yield get_delays[i]
                item = yield ch.get()
                received.append(item)
                assert ch.occupancy <= ch.capacity

        sim.process(producer(), name="producer")
        sim.process(consumer(), name="consumer")
        sim.run()

    assert not san.violations
    assert received == list(range(n_items))  # FIFO delivery
    assert ch.occupancy == 0 and ch.blocked_senders == 0
    assert ch.messages_passed == n_items
    assert san.checks["channel.occupancy"] == 2 * n_items
    # Every step the schedule took was clock-monotonicity checked.
    assert san.checks["sim.clock-monotone"] == sim.events_processed


@given(
    delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40),
)
@settings(max_examples=50, deadline=None)
def test_random_timeout_storm_is_clock_monotone(delays):
    san = Sanitizer()
    with use_sanitizer(san):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.timeout(d).add_callback(lambda ev, d=d: fired.append(sim.now))
        sim.run()
    assert not san.violations
    assert fired == sorted(fired)
    assert san.checks["sim.clock-monotone"] == sim.events_processed
