"""FaultPlan determinism, caps, scripting and directive drawing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    SITES,
    FaultPlan,
    FaultStats,
    current_fault_plan,
    pool_directives,
    use_fault_plan,
)


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        a = FaultPlan(42, {"pool.worker.crash": 0.3, "shm.attach": 0.2})
        b = FaultPlan(42, {"pool.worker.crash": 0.3, "shm.attach": 0.2})
        draws_a = [a.should("pool.worker.crash") for _ in range(200)]
        draws_b = [b.should("pool.worker.crash") for _ in range(200)]
        assert draws_a == draws_b
        assert a.events == b.events

    def test_different_seeds_differ(self):
        a = FaultPlan(0, {"shm.attach": 0.5})
        b = FaultPlan(1, {"shm.attach": 0.5})
        assert [a.should("shm.attach") for _ in range(64)] != [
            b.should("shm.attach") for _ in range(64)
        ]

    def test_sites_independent_streams(self):
        """Probing one site never perturbs another's schedule."""
        a = FaultPlan(7, {"cache.corrupt": 0.4, "cache.enospc": 0.4})
        b = FaultPlan(7, {"cache.corrupt": 0.4, "cache.enospc": 0.4})
        seq_a = [a.should("cache.corrupt") for _ in range(50)]
        for _ in range(33):  # interleave probes of an unrelated site
            b.should("cache.enospc")
        seq_b = [b.should("cache.corrupt") for _ in range(50)]
        assert seq_a == seq_b

    @given(
        seed=st.integers(0, 2**31 - 1),
        site=st.sampled_from(sorted(SITES)),
        rate=st.floats(0.0, 1.0, allow_nan=False),
        n=st.integers(1, 128),
    )
    @settings(max_examples=60, deadline=None)
    def test_replay_property(self, seed, site, rate, n):
        """Any (seed, rate) plan replays the identical schedule twice."""
        a = FaultPlan(seed, {site: rate})
        b = FaultPlan(seed, {site: rate})
        assert [a.should(site) for _ in range(n)] == [
            b.should(site) for _ in range(n)
        ]
        assert a.events == b.events
        assert a.stats().injected == b.stats().injected


class TestKnobs:
    def test_zero_rate_never_fires(self):
        plan = FaultPlan(0, {})
        assert not any(plan.should("pool.worker.crash") for _ in range(100))
        assert plan.stats().total_injected == 0

    def test_rate_one_always_fires(self):
        plan = FaultPlan(0, {"cache.corrupt": 1.0})
        assert all(plan.should("cache.corrupt") for _ in range(20))

    def test_cap_bounds_injections(self):
        plan = FaultPlan(0, {"cache.corrupt": 1.0}, max_per_site=3)
        fired = sum(plan.should("cache.corrupt") for _ in range(50))
        assert fired == 3
        assert plan.probes("cache.corrupt") == 50

    def test_per_site_cap_mapping(self):
        plan = FaultPlan(
            0,
            {"cache.corrupt": 1.0, "cache.enospc": 1.0},
            max_per_site={"cache.corrupt": 1},
        )
        assert sum(plan.should("cache.corrupt") for _ in range(10)) == 1
        assert sum(plan.should("cache.enospc") for _ in range(10)) == 10

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan(0, {"nope.bad": 0.5})
        plan = FaultPlan(0)
        with pytest.raises(ValueError, match="unknown fault site"):
            plan.should("nope.bad")

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError, match="must be in"):
            FaultPlan(0, {"shm.attach": 1.5})


class TestScripted:
    def test_fires_exactly_at_indices(self):
        plan = FaultPlan.scripted({"shm.create": [1, 3]})
        assert [plan.should("shm.create") for _ in range(5)] == [
            False, True, False, True, False,
        ]
        assert [(e.site, e.index) for e in plan.events] == [
            ("shm.create", 1), ("shm.create", 3),
        ]

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.scripted({"bogus": [0]})


class TestStats:
    def test_since_delta(self):
        plan = FaultPlan.scripted({"cache.corrupt": [0, 1]})
        plan.should("cache.corrupt")
        plan.note_recovered("cache.corrupt")
        before = plan.stats()
        plan.should("cache.corrupt")
        delta = plan.stats().since(before)
        assert delta.injected == {"cache.corrupt": 1}
        assert delta.recovered == {}

    def test_all_recovered(self):
        assert FaultStats({"a": 2}, {"a": 2}).all_recovered
        assert not FaultStats({"a": 2}, {"a": 1}).all_recovered
        assert FaultStats().all_recovered  # vacuously

    def test_kinds_only_fired(self):
        s = FaultStats({"a": 2, "b": 0}, {})
        assert s.kinds == ("a",)


class TestAmbientContext:
    def test_install_and_restore(self):
        assert current_fault_plan() is None
        plan = FaultPlan(0)
        with use_fault_plan(plan):
            assert current_fault_plan() is plan
            with use_fault_plan(None):
                assert current_fault_plan() is None
            assert current_fault_plan() is plan
        assert current_fault_plan() is None


class TestPoolDirectives:
    def test_no_plan_no_directives(self):
        directives, issued = pool_directives(4, allow_process_faults=True)
        assert directives == [None] * 4
        assert issued == []

    def test_process_faults_gated(self):
        plan = FaultPlan(0, {"pool.worker.crash": 1.0})
        with use_fault_plan(plan):
            directives, issued = pool_directives(4, allow_process_faults=False)
        assert directives == [None] * 4
        assert issued == []
        assert plan.probes("pool.worker.crash") == 0  # never even probed

    def test_crash_directive_issued(self):
        plan = FaultPlan(0, {"pool.worker.crash": 1.0}, max_per_site=1)
        with use_fault_plan(plan):
            directives, issued = pool_directives(3, allow_process_faults=True)
        assert directives[0] == ("crash", None)
        assert directives[1:] == [None, None]
        assert issued == ["pool.worker.crash"]

    def test_attach_fault_allowed_without_process_faults(self):
        plan = FaultPlan.scripted({"shm.attach": [0]})
        with use_fault_plan(plan):
            directives, issued = pool_directives(2, allow_process_faults=False)
        assert directives[0] == ("attach-fail", None)
        assert issued == ["shm.attach"]

    def test_slow_carries_duration(self):
        plan = FaultPlan.scripted(
            {"pool.worker.slow": [0]}, slow_s=0.123
        )
        with use_fault_plan(plan):
            directives, _ = pool_directives(1, allow_process_faults=True)
        assert directives[0] == ("slow", 0.123)
