"""``tools/bench_record.py`` compares two BENCH files: it names a changed
digest (and returns 1), marks an end-to-end metric beyond its bound, and
reads an older file that has no ``src_lines``. Its paired runs alternate
which side goes first and print the parent's median and quartiles and the
pairs the change won."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

BENCHMARK = {"end_to_end": [{"name": "rounds_per_s", "unit": "1/s",
                             "better": "higher", "bound": 0.15}],
             "per_layer": [{"name": "weak.calls", "unit": "count", "better": "lower"}]}


def _record(rounds_per_s=100.0, digest="ab12", src_lines=3000):
    run = {"correct": 1, "metrics": {
        "w/rounds_per_s": {"value": rounds_per_s, "unit": "1/s"},
        "w/weak.calls": {"value": 10, "unit": "count"}}}
    record = {"tree": {"src": "0" * 40, "perfbench": "1" * 40}, "seed": 0,
              "seconds": 20.0, "untraced": run, "traced": run,
              "digests": {"w": digest}, "checks": {"w": ["gap 0.1"]}}
    if src_lines is not None:
        record["src_lines"] = src_lines
    return record


def test_a_changed_digest_is_named_and_counted(capsys):
    assert bench_record.compare(_record(), _record(digest="cd34"), BENCHMARK) == 1
    out = capsys.readouterr().out
    assert "digest changed: w: ab12 -> cd34" in out
    assert "digests unchanged" not in out


@pytest.mark.parametrize("after, worse", [(80.0, True), (90.0, False), (200.0, False)])
def test_a_metric_beyond_its_bound_is_marked_worse(capsys, after, worse):
    assert bench_record.compare(_record(), _record(rounds_per_s=after), BENCHMARK) == 0
    (line,) = {line for line in capsys.readouterr().out.splitlines()
               if "w/rounds_per_s" in line}
    assert line.endswith("(bound 15%, WORSE)" if worse else "(bound 15%)")


def test_a_file_without_src_lines_still_compares(capsys):
    assert bench_record.compare(_record(src_lines=None), _record(src_lines=2990),
                                BENCHMARK) == 0
    out = capsys.readouterr().out
    assert "src lines: n/a -> 2990" in out
    assert "digests unchanged" in out


def test_src_lines_counts_newlines_as_wc_does(tmp_path):
    package = tmp_path / "src" / "ocoboost"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "sub" / "b.py").write_text("z = 3\nw = 4")  # no final newline
    (package / "notes.txt").write_text("not\ncounted\n")
    assert bench_record.src_lines(tmp_path) == 3


def _run(rounds_per_s, calls, digest="ab12", failed=0):
    """One untraced run as ``run_pairs`` keeps it: (JSON line, digests)."""
    return ({"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": {
        "w/rounds_per_s": {"value": rounds_per_s, "unit": "1/s"},
        "w/weak.calls": {"value": calls, "unit": "count"}}}, {"w": digest})


def _metric_line(out, key):
    (line,) = [line.strip() for line in out.splitlines() if line.strip().startswith(key)]
    return line


def test_pairs_print_the_parents_quartiles_and_the_changes_wins(capsys):
    # rounds_per_s: higher is better; pair 3 is a tie and pair 4 a loss
    parents = [_run(100.0, 10), _run(104.0, 10), _run(102.0, 10), _run(106.0, 12)]
    changes = [_run(110.0, 9), _run(108.0, 10), _run(102.0, 11), _run(105.0, 11)]
    assert bench_record.summarize_pairs(parents, changes, BENCHMARK) == 0
    out = capsys.readouterr().out
    assert out.startswith("4 pairs\n")
    # inclusive quartiles of 100, 102, 104, 106; the change's median is 106.5
    assert _metric_line(out, "w/rounds_per_s:") == (
        "w/rounds_per_s: parent 103 (quartiles 101.5-104.5), change 106.5 1/s"
        "  x1.034  change better in 2/4")
    # weak.calls: lower is better; 9 < 10 wins, 10 = 10 ties, 11 < 12 wins
    assert _metric_line(out, "w/weak.calls:").endswith("change better in 2/4")
    assert "parent: 0 of 400 operations failed, 0 runs not correct" in out
    assert out.rstrip().endswith("digests unchanged")


def test_pairs_count_failures_and_other_digests(capsys):
    parents = [_run(100.0, 10), _run(100.0, 10)]
    changes = [_run(100.0, 10, digest="cd34", failed=3), _run(100.0, 10)]
    assert bench_record.summarize_pairs(parents, changes, BENCHMARK) == 1
    out = capsys.readouterr().out
    assert _metric_line(out, "w/rounds_per_s:").endswith("change better in 0/2")
    assert "change: 3 of 200 operations failed, 1 runs not correct" in out
    assert "digests differ in 1 runs" in out


def test_pairs_alternate_which_side_runs_first(monkeypatch):
    calls = []

    def fake_run(root, trace, seed):
        calls.append((root, trace, seed))
        return _run(1.0, 1)[0], {"w": "ab12"}, {}

    monkeypatch.setattr(bench_record, "run", fake_run)
    parents, changes = bench_record.run_pairs(Path("p"), Path("c"), 3, 7)
    assert [root.name for root, _, _ in calls] == ["p", "c", "c", "p", "p", "c"]
    assert {(trace, seed) for _, trace, seed in calls} == {(0, 7)}
    assert len(parents) == len(changes) == 3
