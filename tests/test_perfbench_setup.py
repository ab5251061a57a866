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
