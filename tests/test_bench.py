import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import ocoboost
from ocoboost.bench.cli import main
from ocoboost.bench.data import (ingest, load_dataset, synthetic_regression,
                                 write_synthetic_csv)
from ocoboost.bench.experiment import (ExperimentConfig, emit_table,
                                       run_experiment,
                                       square_loss_gradient_bound)
from ocoboost.errors import ConfigError, DataError
from ocoboost.geometry import Interval
from ocoboost.weak import DecisionStump

_WITHOUT_OPTIONAL_DEPS = """
import sys
from importlib.abc import MetaPathFinder


class Blocked(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("numba", "sklearn"):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, Blocked())
import ocoboost as ob
from ocoboost.bench import cli, data

cfg = ob.BoosterConfig(n_learners=2, gamma=0.5, lipschitz=4.0)
booster = ob.OnlineBooster(ob.Interval(-1.0, 1.0),
                           lambda i, s: ob.UniformBaseline(s), cfg)
played, traj = booster.predict([0.0])
booster.update(ob.QuadraticLoss([0.5]), traj)
assert booster.rounds_done == 1
bandit = ob.BanditBooster(ob.Simplex(3), lambda i, s: ob.UniformBaseline(s),
                          cfg, explore_rate=0.5, seed=1)
bandit.step([0.0])
bandit.feedback(0.3)
assert bandit.rounds_done == 1
oracle = ob.FiniteSupportOracle([(ob.QuadraticLoss([0.2]), [0.0]),
                                 (ob.QuadraticLoss([-0.4]), [1.0])])
wopt = ob.ErmWeakOptimizer([ob.ConstantHypothesis([0.5]),
                            ob.ConstantHypothesis([-0.5])], 0.5, exact=True)
fitted = ob.fit_boosted_hypothesis(oracle, wopt, ob.Interval(-1.0, 1.0),
                                   n_stages=2, gamma=0.5, stage_budget=1,
                                   lipschitz=4.0)
assert len(fitted.to_dict()["stages"]) == 1
try:
    data.load_dataset("diabetes")
except ob.DataError:
    pass
else:
    raise AssertionError("diabetes loaded without sklearn")
assert not {"numba", "sklearn"} & {m.partition(".")[0] for m in sys.modules}
print("ok")
"""

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "src" / "ocoboost" / "bench" / "result_schema.json"


def _write_csv(path, text):
    path.write_text(text)
    return path


class TestIngest:
    def test_toy_exact_values(self, tmp_path):
        path = _write_csv(tmp_path / "toy.csv",
                          "a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        ds = ingest(path)
        assert ds.n_rows == 3 and ds.n_features == 2
        assert ds.feature_names == ["a", "b"]
        np.testing.assert_allclose(ds.feature_means, [4.0, 5.0])
        assert ds.raw_target_range == (3.0, 9.0)
        # standardization is exact for this column
        np.testing.assert_allclose(ds.features[:, 0],
                                   (np.array([1, 4, 7]) - 4.0) / np.std([1, 4, 7]))
        ds.validate()

    def test_headerless_file(self, tmp_path):
        path = _write_csv(tmp_path / "toy.csv", "1,2\n3,4\n5,7\n")
        ds = ingest(path)
        assert ds.feature_names == ["col0"]
        assert ds.target_name == "col1"

    def test_malformed_row_reports_line(self, tmp_path):
        path = _write_csv(tmp_path / "bad.csv", "a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="line 3"):
            ingest(path)

    def test_non_numeric_cell_reports_column(self, tmp_path):
        path = _write_csv(tmp_path / "bad.csv", "a,b\n1,2\n3,oops\n")
        with pytest.raises(DataError, match="column 'b'"):
            ingest(path)

    def test_constant_column_guard(self, tmp_path):
        path = _write_csv(tmp_path / "c.csv", "a,b,y\n5,1,0\n5,2,1\n5,3,2\n")
        ds = ingest(path)
        assert ds.guarded_columns == [0]
        np.testing.assert_allclose(ds.features[:, 0], 0.0)
        ds.validate()

    def test_target_column_by_name(self, tmp_path):
        path = _write_csv(tmp_path / "t.csv", "y,a\n1,10\n2,20\n3,30\n")
        ds = ingest(path, target_col="y")
        assert ds.target_name == "y"
        assert ds.feature_names == ["a"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            ingest(tmp_path / "nope.csv")

    def test_diabetes_shape(self):
        pytest.importorskip("sklearn.datasets")
        ds = load_dataset("diabetes")
        assert ds.n_rows == 442
        assert ds.n_features == 10
        ds.validate()

    def test_synthetic_roundtrip(self, tmp_path):
        ds_mem = synthetic_regression(n=300, p=4, seed=7)
        path = tmp_path / "synth.csv"
        write_synthetic_csv(path, n=300, p=4, seed=7)
        ds_file = ingest(path)
        np.testing.assert_allclose(ds_file.features, ds_mem.features, atol=1e-12)
        np.testing.assert_allclose(ds_file.targets, ds_mem.targets, atol=1e-12)

    def test_unknown_name(self):
        with pytest.raises(DataError):
            load_dataset("atlantis")


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "small.csv"
    write_synthetic_csv(path, n=120, p=3, seed=11)
    return str(path)


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "t.csv"
    write_synthetic_csv(path, n=80, p=3, seed=2)
    cfg = ExperimentConfig(dataset=str(path), learners=("stump", "ridge"),
                           n_values=(2, 3), runs=2, seed=0)
    return run_experiment(cfg)


class TestExperiment:
    def test_standalone_column_is_one(self, small_csv):
        cfg = ExperimentConfig(dataset=small_csv, learners=("stump",),
                               n_values=(2, 3), runs=2, seed=1)
        result = run_experiment(cfg)
        assert result.rows[0]["wl"] == 1.0

    def test_bit_reproducible(self, small_csv):
        cfg = ExperimentConfig(dataset=small_csv, learners=("ridge",),
                               n_values=(2,), runs=2, seed=5)
        tables = [emit_table(run_experiment(cfg), fmt)
                  for fmt in ("markdown", "csv", "json")]
        tables2 = [emit_table(run_experiment(cfg), fmt)
                   for fmt in ("markdown", "csv", "json")]
        assert tables == tables2

    def test_stream_isolation_read_only(self, small_csv, monkeypatch):
        # a learner that writes into its context would change the stream
        # the other predictors see; the write itself must fail
        def writes_context(self, context):
            context[0] = 0.0
            return np.zeros(1)

        monkeypatch.setattr(DecisionStump, "predict", writes_context)
        cfg = ExperimentConfig(dataset=small_csv, learners=("stump",),
                               n_values=(2, 4), runs=1, seed=3)
        with pytest.raises(ValueError, match="read-only"):
            run_experiment(cfg)

    def test_seed_discipline_across_n_lists(self, small_csv):
        base = dict(dataset=small_csv, learners=("stump",), runs=2, seed=9)
        r1 = run_experiment(ExperimentConfig(n_values=(2,), **base))
        r2 = run_experiment(ExperimentConfig(n_values=(2, 3), **base))
        assert (r1.rows[0]["per_run_ratio"]["N=2"]
                == r2.rows[0]["per_run_ratio"]["N=2"])

    def test_too_small_dataset_refused(self, tmp_path):
        path = _write_csv(tmp_path / "tiny.csv", "a,y\n" +
                          "\n".join(f"{i},{i}" for i in range(5)) + "\n")
        cfg = ExperimentConfig(dataset=str(path), learners=("stump",), runs=1)
        with pytest.raises(DataError, match="at least 10"):
            run_experiment(cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(dataset="synthetic", learners=("forest",))
        with pytest.raises(ConfigError):
            ExperimentConfig(dataset="synthetic", runs=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(dataset="synthetic", gamma=2.0)

    def test_gradient_bound_covers_scaled_interval(self):
        iv = Interval(-2.0, 2.0)
        bound = square_loss_gradient_bound(iv, 0.1, 4)
        # gradients at the working-region edge with the farthest target
        reach = 2.0 / 0.1 + 2.0
        assert bound >= 2.0 * reach


class TestTables:
    def test_markdown_shape(self, result):
        text = emit_table(result, "markdown")
        lines = text.strip().splitlines()
        assert lines[0].startswith("| Learner | WL | N=2 | N=3 | Improvement")
        assert len(lines) == 2 + 2
        assert "**" in text  # best column bolded

    def test_csv_round_trip(self, result):
        text = emit_table(result, "csv")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [r["Learner"] for r in rows] == ["stump", "ridge"]
        for row, orig in zip(rows, result.rows):
            assert float(row["WL"]) == 1.0
            assert set(row) == {"Learner", "WL", *orig["normalized"],
                                "Improvement"}
            for lab, val in orig["normalized"].items():
                assert float(row[lab]) == pytest.approx(val, abs=5e-4)
            assert float(row["Improvement"]) == pytest.approx(
                orig["improvement"], abs=0.05)
        # emitting again is byte-identical
        assert emit_table(result, "csv") == text

    def test_json_schema_validates(self, result):
        payload = json.loads(emit_table(result, "json"))
        schema = json.loads(SCHEMA_PATH.read_text())
        jsonschema.validate(payload, schema)

    def test_single_row_table(self, tmp_path):
        path = tmp_path / "u.csv"
        write_synthetic_csv(path, n=60, p=2, seed=4)
        cfg = ExperimentConfig(dataset=str(path), learners=("mlp",),
                               n_values=(2,), runs=1, seed=0)
        text = emit_table(run_experiment(cfg), "markdown")
        assert len(text.strip().splitlines()) == 3

    def test_unknown_format(self, result):
        with pytest.raises(ConfigError):
            emit_table(result, "yaml")


class TestCli:
    def test_run_markdown(self, tmp_path, capsys):
        path = tmp_path / "cli.csv"
        write_synthetic_csv(path, n=80, p=3, seed=1)
        code = main(["run", "--dataset", str(path), "--learner", "stump",
                     "--n", "2", "--runs", "1", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("| Learner | WL | N=2 |")

    def test_data_error_exit_code(self, tmp_path, capsys):
        code = main(["run", "--dataset", str(tmp_path / "missing.csv"),
                     "--learner", "stump", "--runs", "1"])
        assert code == 3

    def test_config_error_exit_code(self, capsys):
        code = main(["run", "--dataset", "synthetic", "--learner", "forest",
                     "--runs", "1"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["run", "--dataset", "synthetic", "--n", "2", "--runs", "1"],
        ["synth", "--scenario", "oco", "--n", "2", "--horizon", "10",
         "--seeds", "1"],
        ["synth", "--scenario", "bandit", "--n", "2", "--horizon", "10",
         "--seeds", "1"],
        ["synth", "--scenario", "sco", "--n", "2"],
    ], ids=["run", "synth-oco", "synth-bandit", "synth-sco"])
    def test_negative_seed_exits_with_config_error(self, argv, capsys):
        code = main([*argv, "--seed", "-1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "seed" in err

    @pytest.mark.parametrize("argv", [
        ["synth", "--scenario", "oco", "--seeds", "0"],
        ["synth", "--scenario", "bandit", "--explore-rate", "high"],
        ["synth", "--scenario", "bandit", "--explore-rate", "0"],
        ["run", "--dataset", "synthetic", "--n", ""],
        ["synth", "--scenario", "oco", "--horizon", "-5", "--n", "4",
         "--seeds", "1"],
        ["synth", "--scenario", "bandit", "--horizon", "-3", "--seeds", "1"],
        ["synth", "--scenario", "oco", "--horizon", "0", "--n", "4",
         "--seeds", "1"],
        ["synth", "--scenario", "oco", "--n", ",", "--horizon", "10",
         "--seeds", "1"],
        ["synth", "--scenario", "oco", "--n", "2,-1", "--horizon", "10",
         "--seeds", "1"],
        ["synth", "--scenario", "sco", "--n", "0"],
        ["run", "--dataset", "synthetic", "--step", "nan"],
        ["run", "--dataset", "synthetic", "--step", "inf"],
    ])
    def test_bad_values_exit_with_config_error(self, argv, capsys):
        code = main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err
        if "--step" in argv:
            assert "step" in err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["run"])  # missing required --dataset
        assert exc.value.code == 2

    def test_synth_bandit_prints_one_row_per_n(self, capsys):
        code = main(["synth", "--scenario", "bandit", "--n", "2,3",
                     "--horizon", "20", "--seeds", "1", "--out", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "T,N,explore_rate,mean_regret"
        assert [line.split(",")[:2] for line in lines[1:]] == [["20", "2"],
                                                               ["20", "3"]]

    def test_synth_sco_runs(self, capsys):
        code = main(["synth", "--scenario", "sco", "--n", "4", "--out", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "N,gap,bound"

    def test_library_runs_without_numba_or_sklearn(self):
        # a fresh interpreter in which numba and sklearn cannot be imported,
        # whether or not they are installed
        src = str(Path(ocoboost.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _WITHOUT_OPTIONAL_DEPS],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["ok"]

    def test_bench_data_dir_env(self, tmp_path, capsys):
        # BENCH_DATA_DIR overrides the dataset search path
        write_synthetic_csv(tmp_path / "california_housing.csv", n=60, p=3,
                            seed=8)
        env_before = os.environ.get("BENCH_DATA_DIR")
        os.environ["BENCH_DATA_DIR"] = str(tmp_path)
        try:
            ds = load_dataset("california")
            assert ds.n_rows == 60
        finally:
            if env_before is None:
                del os.environ["BENCH_DATA_DIR"]
            else:
                os.environ["BENCH_DATA_DIR"] = env_before
