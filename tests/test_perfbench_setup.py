"""The benchmark builds its objects through the library's constructors; this
guards the keywords it passes (``exact=``, ``mode=``, ``scale=``,
``anchor=``, ...). A constructor that stops accepting one fails here, not
in a benchmark run."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    return workloads


def test_every_workload_sets_up(workloads, tmp_path):
    assert workloads.WORKLOADS
    for name, workload in workloads.WORKLOADS.items():
        assert workload(0, tmp_path / name).setup() is not None, name


def test_every_workload_plays_a_correct_pass(workloads, tmp_path):
    """One untraced pass per workload at seed 0: an output a workload's
    checks reject fails here, not in a benchmark run."""
    for name, workload in workloads.WORKLOADS.items():
        w = workload(0, tmp_path / name)
        played = w.play(w.setup())
        assert played.failed == 0 and not played.problems, (name, played.problems)


def test_bandit_workload_banks_and_plays_the_traced_points(workloads, tmp_path):
    """The untraced bandit pass runs its 64 leader oracles as one bank; the
    traced pass wraps each learner, so it runs them one at a time. Both must
    be correct and play the same points."""
    from ocoboost.weak import LeaderBank, LearnerList
    from tracing import Tracer

    w = workloads.WORKLOADS["bandit-simplex-n64"](0, tmp_path)
    bandit = w.setup()
    assert isinstance(bandit.inner.bank, LeaderBank)
    untraced = w.play(bandit)
    tracer = Tracer()
    bandit = w.setup(tracer)
    assert isinstance(bandit.inner.bank, LearnerList)
    traced = w.play(bandit, tracer)
    for played in (untraced, traced):
        assert played.failed == 0 and not played.problems, played.problems
    assert untraced.digest == traced.digest


def test_stump_workload_banks_and_plays_the_traced_points(workloads, tmp_path):
    """The untraced stump pass runs its 5 decision stumps as one bank; the
    traced pass wraps each learner, so it runs them one at a time. Both must
    be correct and play the same points."""
    from ocoboost.weak import LearnerList, StumpBank
    from tracing import Tracer

    w = workloads.WORKLOADS["regress-stump-n5"](0, tmp_path)
    system = w.setup()
    assert isinstance(system[0].bank, StumpBank)
    untraced = w.play(system)
    tracer = Tracer()
    system = w.setup(tracer)
    assert isinstance(system[0].bank, LearnerList)
    traced = w.play(system, tracer)
    for played in (untraced, traced):
        assert played.failed == 0 and not played.problems, played.problems
    assert untraced.digest == traced.digest
