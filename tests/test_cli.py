import json
import os
import subprocess
import sys

import numpy as np
import pytest

from umlr.cli import load_config_file, load_csv, main
from umlr.errors import CsvParseError


def run_cli(args, env=None):
    return subprocess.run([sys.executable, "-m", "umlr", *args],
                          capture_output=True, text=True,
                          env=None if env is None else {**os.environ, **env})


def assert_contract_error(r, code):
    """Exit 3 with a one-line JSON error document and no traceback."""
    assert r.returncode == 3, r.stderr
    assert "Traceback" not in r.stderr
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["code"] == code


def write_cohort(path, n=160, p=3, effect=1.5, seed=5, confounding=0.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    t = (rng.random(n) < 1.0 / (1.0 + np.exp(-confounding * X[:, 0]))).astype(int)
    y = effect * t + X[:, 0] + 0.5 * rng.standard_normal(n)
    cols = ["y", "t"] + [f"x{j}" for j in range(1, p + 1)]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(n):
            fh.write(f"{y[i]},{t[i]}," + ",".join(str(v) for v in X[i]) + "\n")
    return path


class TestLoadCsv:
    def test_minimal_ingest(self, tmp_path):
        f = tmp_path / "tiny.csv"
        f.write_text("y,t,x1\n1.0,0,0.5\n2.0,1,-0.5\n0.0,0,0.1\n")
        data, covs = load_csv(str(f), "y", "t")
        assert data.n == 3 and data.p == 1
        assert covs == ["x1"]
        assert data.t.tolist() == [0, 1, 0]

    def test_bad_treatment_names_row(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("y,t,x1\n1.0,0,0.5\n2.0,2,0.1\n")
        with pytest.raises(CsvParseError) as exc_info:
            load_csv(str(f), "y", "t")
        assert ":3:" in str(exc_info.value)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        f = tmp_path / "bad2.csv"
        f.write_text("y,t,x1\n1.0,0,abc\n")
        with pytest.raises(CsvParseError) as exc_info:
            load_csv(str(f), "y", "t")
        msg = str(exc_info.value)
        assert ":2:" in msg and "x1" in msg

    def test_missing_column(self, tmp_path):
        f = tmp_path / "cols.csv"
        f.write_text("a,b\n1,2\n")
        with pytest.raises(CsvParseError):
            load_csv(str(f), "y", "t")

    def test_explicit_covariate_selection(self, tmp_path):
        f = tmp_path / "sel.csv"
        f.write_text("y,t,x1,x2,junk\n1,0,0.5,1.0,9\n2,1,0.1,2.0,9\n0,0,0.2,0.5,9\n")
        data, covs = load_csv(str(f), "y", "t", ["x2", "x1"])
        assert covs == ["x2", "x1"]
        assert data.p == 2
        assert data.X[0].tolist() == [1.0, 0.5]

    def test_wide_cohort_shape(self, tmp_path):
        # wide file shaped like a real cohort export: 40 rows, 35 covariates
        rng = np.random.default_rng(0)
        cols = ["sbp", "opioid"] + [f"c{j}" for j in range(35)]
        f = tmp_path / "wide.csv"
        rows = [",".join(cols)]
        for i in range(40):
            rows.append(",".join(
                [str(120 + rng.normal()), str(int(rng.random() < 0.3))]
                + [f"{v:.4f}" for v in rng.standard_normal(35)]
            ))
        f.write_text("\n".join(rows) + "\n")
        data, covs = load_csv(str(f), "sbp", "opioid")
        assert data.n == 40 and data.p == 35


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nn = 140\nlam = 2.5\nmode = umlr\n")
        parsed = load_config_file(str(cfg))
        assert parsed == {"n": "140", "lam": "2.5", "mode": "umlr"}

    def test_bad_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not a pair\n")
        from umlr.errors import InvalidInputError
        with pytest.raises(InvalidInputError):
            load_config_file(str(cfg))

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 120\nreps = 10\nbootstrap = 0\nestimator = t\n"
                       "mode = mlr\np = 5\ns = 2\nlam = 1.0\ngamma-scale = 0.0\n")
        out = tmp_path / "r.json"
        r = run_cli(["simulate", "--config", str(cfg), "--n", "100",
                     "--seed", "3", "--out", str(out)])
        assert r.returncode == 0, r.stderr
        rep = json.loads(out.read_text())
        assert rep["config"]["n"] == 100  # flag wins
        assert rep["config"]["reps"] == 10  # file wins over default

    @pytest.mark.parametrize("line", ["n = abc", "lam = 1,5"])
    def test_unconvertible_value_exits_3(self, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        r = run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert_contract_error(r, "invalid_input")
        key, raw = (s.strip() for s in line.split("="))
        message = json.loads(r.stderr)["error"]["message"]
        assert repr(key) in message and repr(raw) in message
        assert not (tmp_path / "r.json").exists()


class TestSimulateCommand:
    def test_report_schema_and_determinism(self, tmp_path):
        args = ["simulate", "--n", "100", "--p", "4", "--s", "2", "--reps", "10",
                "--bootstrap", "60", "--estimator", "t", "--mode", "both",
                "--seed", "11", "--lam", "2.0", "--gamma-scale", "0.0"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(args + ["--out", str(out1)]).returncode == 0
        assert run_cli(args + ["--out", str(out2)]).returncode == 0
        rep1, rep2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        for rep in (rep1, rep2):
            assert rep["schema"] == "v1"
            assert "created" in rep["metadata"]
            assert rep["config"]["seed"] == 11
        rep1.pop("metadata"); rep2.pop("metadata")
        assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
        modes = [(r["estimator"], r["mode"]) for r in rep1["results"]]
        assert modes == [("t_learner", "mlr"), ("t_learner", "umlr")]

    def test_per_replicate_csv(self, tmp_path):
        csv_path = tmp_path / "reps.csv"
        r = run_cli(["simulate", "--n", "100", "--p", "4", "--s", "2",
                     "--reps", "10", "--bootstrap", "0", "--estimator", "t",
                     "--mode", "mlr", "--seed", "1", "--lam", "1.0",
                     "--out", str(tmp_path / "r.json"),
                     "--per-replicate", str(csv_path)])
        assert r.returncode == 0, r.stderr
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("rep,estimator,mode,true_ate,point")
        assert len(lines) == 11

    def test_non_integer_workers_env_exits_3(self, tmp_path):
        r = run_cli(["simulate", "--n", "100", "--p", "4", "--s", "2", "--reps", "10",
                     "--bootstrap", "0", "--out", str(tmp_path / "r.json")],
                    env={"UMLR_WORKERS": "two"})
        assert_contract_error(r, "invalid_input")
        assert not (tmp_path / "r.json").exists()


class TestEstimateCommand:
    def test_rows_and_att_tagging(self, tmp_path):
        data = write_cohort(tmp_path / "cohort.csv")
        out = tmp_path / "est.json"
        r = run_cli(["estimate", "--data", str(data), "--estimator", "s,t,x,psm",
                     "--mode", "umlr", "--bootstrap", "60", "--lam", "1.0",
                     "--out", str(out)])
        assert r.returncode == 0, r.stderr
        rep = json.loads(out.read_text())
        rows = {row["estimator"]: row for row in rep["results"]}
        assert set(rows) == {"s_learner", "t_learner", "x_learner", "psm_att"}
        assert rows["psm_att"]["estimand"] == "att"
        for name in ("s_learner", "t_learner", "x_learner"):
            assert rows[name]["estimand"] == "ate"
            assert rows[name]["ci_low"] <= rows[name]["point"] <= rows[name]["ci_high"]
        # component-model shrinkage reports present
        assert any(d["model"] == "mu1" for d in rep["diagnostics"])

    def test_estimates_near_truth(self, tmp_path):
        data = write_cohort(tmp_path / "cohort.csv", n=400, effect=1.5, seed=9)
        out = tmp_path / "est.json"
        r = run_cli(["estimate", "--data", str(data), "--estimator", "t,aipw,dml",
                     "--mode", "mlr", "--bootstrap", "0", "--lam", "1.0",
                     "--out", str(out)])
        assert r.returncode == 0, r.stderr
        rep = json.loads(out.read_text())
        for row in rep["results"]:
            assert row["point"] == pytest.approx(1.5, abs=0.35)

    def test_unknown_estimator_exits_3(self, tmp_path):
        data = write_cohort(tmp_path / "cohort.csv", n=60)
        r = run_cli(["estimate", "--data", str(data), "--estimator", "nope"])
        assert r.returncode == 3
        err = json.loads(r.stderr)
        assert err["error"]["code"] == "invalid_input"

    def test_bad_treatment_value_exits_3(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("y,t,x1\n1.0,0,0.5\n2.0,0.4,0.1\n")
        r = run_cli(["estimate", "--data", str(f), "--estimator", "t"])
        assert r.returncode == 3
        err = json.loads(r.stderr)
        assert err["error"]["code"] == "csv_parse"

    def test_missing_data_file_exits_3(self, tmp_path):
        r = run_cli(["estimate", "--data", str(tmp_path / "absent.csv"),
                     "--estimator", "t", "--bootstrap", "0"])
        assert_contract_error(r, "io_error")

    def test_unwritable_out_path_exits_3(self, tmp_path):
        data = write_cohort(tmp_path / "cohort.csv", n=60)
        r = run_cli(["estimate", "--data", str(data), "--estimator", "t",
                     "--mode", "mlr", "--bootstrap", "0",
                     "--out", str(tmp_path / "no-such-dir" / "est.json")])
        assert_contract_error(r, "io_error")

    def test_bootstrap_refits_apply_propensity_clip(self, tmp_path):
        # confounded cohort whose fitted propensities reach past 0.2 / 0.8:
        # narrowing the clip must reach the bootstrap refits, not only the
        # point estimate, so the interval width moves with it
        data = write_cohort(tmp_path / "cohort.csv", n=120, seed=3, confounding=2.5)
        widths = []
        for lo, hi in (("0.01", "0.99"), ("0.2", "0.8")):
            out = tmp_path / f"est-{lo}.json"
            rc = main(["estimate", "--data", str(data), "--estimator", "aipw,psm",
                       "--mode", "mlr", "--bootstrap", "50", "--lam", "1.0",
                       "--clip-lo", lo, "--clip-hi", hi, "--out", str(out)])
            assert rc == 0
            rows = json.loads(out.read_text())["results"]
            widths.append({row["estimator"]: row["ci_high"] - row["ci_low"]
                           for row in rows})
        for name in ("aipw", "psm_att"):
            assert abs(widths[0][name] - widths[1][name]) > 1e-3 * widths[0][name]


class TestDiagnoseCommand:
    def test_perfect_predictions(self, tmp_path):
        f = tmp_path / "preds.csv"
        f.write_text("y,y_hat\n" + "\n".join(f"{v},{v}" for v in np.linspace(0, 5, 40)))
        out = tmp_path / "d.json"
        r = run_cli(["diagnose", "--pred-file", str(f), "--out", str(out)])
        assert r.returncode == 0, r.stderr
        rep = json.loads(out.read_text())
        row = rep["results"][0]
        assert row["eta_hat"] == pytest.approx(1.0)
        assert row["rmse"] == pytest.approx(0.0)

    def test_scatter_export(self, tmp_path):
        f = tmp_path / "preds.csv"
        f.write_text("y,y_hat\n1.0,0.5\n2.0,1.0\n3.0,1.5\n")
        scat = tmp_path / "scatter.csv"
        r = run_cli(["diagnose", "--pred-file", str(f), "--scatter-out", str(scat),
                     "--out", str(tmp_path / "d.json")])
        assert r.returncode == 0
        lines = scat.read_text().splitlines()
        assert lines[0].startswith("# eta_hat=0.5")
        assert lines[1] == "y,y_hat"
        assert len(lines) == 5

    def test_concatenation_equals_pooled(self, tmp_path):
        rng = np.random.default_rng(3)
        y1, p1 = rng.standard_normal(30), rng.standard_normal(30)
        y2, p2 = rng.standard_normal(20), rng.standard_normal(20)
        fa, fb, fc = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        for f, (yy, pp) in ((fa, (y1, p1)), (fb, (y2, p2)),
                            (fc, (np.concatenate([y1, y2]), np.concatenate([p1, p2])))):
            f.write_text("y,y_hat\n" + "\n".join(
                f"{float(a)!r},{float(b)!r}" for a, b in zip(yy, pp)))
        outs = []
        for f in (fa, fb, fc):
            out = tmp_path / (f.stem + ".json")
            assert run_cli(["diagnose", "--pred-file", str(f), "--out", str(out)]).returncode == 0
            outs.append(json.loads(out.read_text())["results"][0])
        # pooled run equals the computation over the concatenated rows (no
        # streaming approximation): check by recomputation
        from umlr.diagnostics import evaluate_predictions
        pooled = evaluate_predictions(np.concatenate([y1, y2]), np.concatenate([p1, p2]))
        assert outs[2]["eta_hat"] == pytest.approx(pooled.eta_hat, rel=1e-12)
        assert outs[2]["n"] == 50

    def test_missing_column_exit_code(self, tmp_path):
        f = tmp_path / "preds.csv"
        f.write_text("a,b\n1,2\n")
        r = run_cli(["diagnose", "--pred-file", str(f)])
        assert r.returncode == 3


class TestMainEntry:
    def test_main_callable_directly(self, tmp_path, capsys):
        f = tmp_path / "preds.csv"
        f.write_text("y,y_hat\n1.0,1.0\n2.0,2.0\n3.0,3.0\n")
        rc = main(["diagnose", "--pred-file", str(f)])
        assert rc == 0
        out = capsys.readouterr().out
        assert json.loads(out)["schema"] == "v1"
