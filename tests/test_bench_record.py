"""``tools/bench_record.py`` compares two BENCH files: it names a changed
digest (and returns 1), marks an end-to-end metric beyond its bound, and
reads an older file that has no ``src_lines``."""

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
