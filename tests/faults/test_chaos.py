"""End-to-end chaos harness tests (`python -m repro chaos`)."""

import io
import re

import pytest

from repro.faults import FaultPlan, FaultStats
from repro.faults import chaos
from repro.faults.chaos import MIN_FAULT_KINDS, SCENARIOS, Scenario, run_chaos

pytestmark = pytest.mark.chaos


def _run(seed=0, **kwargs):
    out = io.StringIO()
    code = run_chaos(seed=seed, small=True, stream=out, **kwargs)
    return code, out.getvalue()


class TestChaosMatrix:
    def test_small_matrix_passes(self):
        code, text = _run()
        assert code == 0, text
        assert "all scenarios passed" in text
        # The acceptance bar: >= MIN_FAULT_KINDS distinct kinds injected
        # and a nonzero recovery count.
        m = re.search(
            r"(\d+) fault\(s\) across (\d+) kind\(s\) injected, (\d+) recovered",
            text,
        )
        assert m, text
        injected, kinds, recovered = map(int, m.groups())
        assert kinds >= MIN_FAULT_KINDS
        assert injected > 0
        assert recovered == injected

    def test_same_seed_replays_identical_totals(self):
        """The whole matrix is deterministic per seed: identical fault
        schedules, hence identical injection totals."""
        _, a = _run(seed=3)
        _, b = _run(seed=3)
        pat = r"\d+ fault\(s\) across \d+ kind\(s\) injected, \d+ recovered"
        assert re.search(pat, a).group() == re.search(pat, b).group()

    def test_scripted_scenarios_guarantee_core_kinds(self):
        """Coverage holds for ANY seed because the scripted scenarios pin
        one fault of each core kind; spot-check an arbitrary seed."""
        code, text = _run(seed=991)
        assert code == 0, text

    def test_soak_repeats_rounds(self):
        code, text = _run(soak=2)
        assert code == 0, text
        assert "soak round 1/2" in text
        assert "soak round 2/2" in text

    def test_bad_soak_rejected(self):
        with pytest.raises(ValueError):
            run_chaos(soak=0, stream=io.StringIO())

    def test_scenario_registry_is_nonempty(self):
        assert len(SCENARIOS) >= 6


class TestChaosCli:
    def test_module_dispatch(self, capsys):
        from repro.__main__ import main

        # argparse-level smoke only: --help exits 0 without running.
        with pytest.raises(SystemExit) as e:
            main(["chaos", "--help"])
        assert e.value.code == 0
        assert "fault" in capsys.readouterr().out.lower()

    def test_every_printed_name_is_accepted(self, capsys, monkeypatch):
        """The name a run prints is the name ``--scenario`` takes, and an
        unknown name is answered with exactly the table's names."""
        from repro.__main__ import main

        def passes(seed, small):
            return FaultStats(), ""

        names = [s.name for s in SCENARIOS]
        monkeypatch.setattr(
            chaos, "SCENARIOS", tuple(Scenario(n, passes) for n in names)
        )
        main(["chaos", "--small"])  # fails the coverage floor; prints all
        printed = re.findall(r"^  ok   (\S+)", capsys.readouterr().out, re.M)
        assert printed == names
        for name in printed:
            assert main(["chaos", "--small", "--scenario", name]) == 0
        capsys.readouterr()
        assert main(["chaos", "--scenario", "cache"]) == 2
        known = capsys.readouterr().out.rpartition("choose from: ")[2]
        assert known.strip().split(", ") == names


class TestPlanReplayEndToEnd:
    def test_plan_replay_identical_schedule_twice(self):
        """Satellite requirement: FaultPlan(seed) replays the identical
        schedule across two full probe sequences mimicking a sort."""
        def schedule(plan):
            fired = []
            for phase in range(6):
                for task in range(4):
                    for site in (
                        "pool.worker.crash",
                        "pool.worker.slow",
                        "shm.attach",
                    ):
                        if plan.should(site):
                            fired.append((phase, task, site))
            return fired

        rates = {
            "pool.worker.crash": 0.2,
            "pool.worker.slow": 0.3,
            "shm.attach": 0.1,
        }
        assert schedule(FaultPlan(17, rates)) == schedule(FaultPlan(17, rates))
