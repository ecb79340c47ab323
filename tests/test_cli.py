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

    @pytest.mark.parametrize("header,outcome,covs", [
        ("y,t,x1,x2", "y", ["x1", "x1"]),  # a covariate named twice
        ("y,t,x1,x2", "x1", ["x1", "x2"]),  # the outcome reused as a covariate
        ("y,t,x1,x1", "y", "all-others"),  # a selected name the header repeats
    ])
    def test_selected_columns_must_be_distinct(self, tmp_path, header, outcome, covs):
        f = tmp_path / "dup.csv"
        f.write_text(header + "\n1.0,0,0.5,0.2\n2.0,1,0.1,0.3\n")
        with pytest.raises(CsvParseError, match="'x1'.*more than once"):
            load_csv(str(f), outcome, "t", covs)

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

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfn = 140\nlam = 2.5\n")  # as spreadsheets save UTF-8
        assert load_config_file(str(cfg)) == {"n": "140", "lam": "2.5"}

    def test_non_utf8_file_exits_3(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("# r\xe9sum\xe9\nn = 60\n".encode("latin-1"))
        out = tmp_path / "r.json"
        r = run_cli(["simulate", "--config", str(cfg), "--out", str(out)])
        assert_contract_error(r, "invalid_input")
        assert str(cfg) in json.loads(r.stderr)["error"]["message"]
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    @pytest.mark.parametrize("key", ["mode", "umlr_route", "ci_method", "learner"])
    def test_unknown_choice_value_exits_3(self, tmp_path, command, key):
        # config-file values bypass argparse's choices; a bad one must stop
        # the run before any work, also when no bootstrap is asked for
        cfg = tmp_path / "run.cfg"
        lines = [f"{key} = bogus", "bootstrap = 0", "estimator = t"]
        if command == "simulate":
            lines += ["n = 60", "p = 4", "s = 2", "reps = 10"]
            args = ["simulate"]
        else:
            args = ["estimate", "--data", str(write_cohort(tmp_path / "cohort.csv", n=60))]
        cfg.write_text("\n".join(lines) + "\n")
        out = tmp_path / "r.json"
        r = run_cli([*args, "--config", str(cfg), "--out", str(out)])
        assert_contract_error(r, "invalid_input")
        message = json.loads(r.stderr)["error"]["message"]
        assert repr(key) in message and "'bogus'" in message
        assert not out.exists()


class TestNumericKnobs:
    @pytest.mark.parametrize("command,flags", [
        ("estimate", ["--estimator", "dml", "--mode", "mlr", "--level", "1.5"]),
        ("simulate", ["--estimator", "dml", "--mode", "mlr", "--level", "1.5"]),
        ("simulate", ["--estimator", "aipw", "--mode", "mlr", "--propensity-l2", "-1"]),
        ("simulate", ["--estimator", "dml", "--mode", "mlr", "--folds", "1"]),
        ("estimate", ["--estimator", "psm", "--caliper", "nan"]),
        ("estimate", ["--estimator", "t", "--mode", "both", "--lam", "nan"]),
        ("simulate", ["--estimator", "t", "--mode", "both", "--lam", "inf"]),
    ])
    def test_invalid_value_exits_3(self, tmp_path, command, flags):
        args = [command, *flags, "--bootstrap", "0"]
        if command == "estimate":
            args += ["--data", str(write_cohort(tmp_path / "c.csv", n=80))]
        else:
            args += ["--n", "60", "--p", "4", "--s", "1", "--reps", "10"]
        assert_contract_error(run_cli(args), "invalid_input")


class TestRejectedBeforeAnyWork:
    SIMULATE = ["--estimator", "t", "--reps", "10", "--n", "60", "--p", "4", "--s", "1"]
    CASES = [
        # the constrained route has no gbt form: every umlr replicate failed
        ("simulate", ["--learner", "gbt", "--trees", "5", "--umlr-route", "constrained",
                      "--mode", "both", "--bootstrap", "0"]),
        ("estimate", ["--learner", "gbt", "--trees", "5", "--umlr-route", "constrained",
                      "--mode", "both", "--bootstrap", "0"]),
        # B in 1-49 failed every bootstrapped cell; a negative B was reported as given
        ("simulate", ["--mode", "mlr", "--bootstrap", "10"]),
        ("simulate", ["--mode", "mlr", "--bootstrap", "-5"]),
        ("estimate", ["--mode", "mlr", "--bootstrap", "-5"]),
        ("estimate", ["--mode", "mlr", "--bootstrap", "10"]),
        # 0 workers was reported as 0 and run on 1
        ("simulate", ["--mode", "mlr", "--bootstrap", "0", "--workers", "0"]),
        # a nan DGP scale made every replicate fail
        ("simulate", ["--mode", "mlr", "--bootstrap", "0", "--gamma-scale", "nan"]),
        # a negative seed ended the bootstrap in a numpy traceback
        ("estimate", ["--mode", "mlr", "--bootstrap", "50", "--seed", "-1"]),
    ]

    IDS = ["simulate-gbt-constrained", "estimate-gbt-constrained", "simulate-B10",
           "simulate-B-5", "estimate-B-5", "estimate-B10", "simulate-workers0",
           "simulate-gamma-nan", "estimate-seed-1"]

    def args(self, tmp_path, command, flags):
        if command == "simulate":
            return ["simulate", *self.SIMULATE, *flags]
        return ["estimate", "--data", str(write_cohort(tmp_path / "c.csv", n=80)), "--estimator",
                "t", *flags]

    @pytest.mark.parametrize("command,flags", CASES, ids=IDS)
    def test_exits_3_without_a_report(self, tmp_path, command, flags):
        out = tmp_path / "r.json"
        assert_contract_error(run_cli([*self.args(tmp_path, command, flags), "--out", str(out)]),
                              "invalid_input")
        assert not out.exists()

    @pytest.mark.parametrize("command,flags", CASES, ids=IDS)
    def test_no_data_is_read_or_drawn(self, tmp_path, command, flags, monkeypatch):
        import umlr.cli
        import umlr.simulation

        def no_work(*args):
            raise AssertionError("work started before the knobs were checked")

        monkeypatch.setattr(umlr.cli, "load_csv", no_work)
        monkeypatch.setattr(umlr.simulation, "generate_replicate", no_work)
        assert main(self.args(tmp_path, command, flags)) == 3


class TestOptionTable:
    """Each simulate/estimate option is declared once, in ``cli``'s table."""

    COMMON = {
        "--config": None, "--out": None, "--csv-out": None, "--estimator": None,
        "--mode": ("mlr", "umlr", "both"), "--umlr-route": ("auto", "constrained", "anchored"),
        "--bootstrap": None, "--ci-method": ("normal", "percentile"), "--level": None,
        "--folds": None, "--propensity-l2": None, "--clip-lo": None, "--clip-hi": None,
        "--seed": None, "--learner": ("ridge", "lasso", "gbt"), "--lam": None, "--trees": None,
        "--depth": None, "--learning-rate": None, "--min-leaf": None,
    }
    # flag -> choices, as the parser declared them before the table
    PINNED = {
        "simulate": {**COMMON, **dict.fromkeys([
            "--n", "--p", "--s", "--sigma", "--mu1", "--mu0", "--beta-scale", "--gamma-scale",
            "--effect-scale", "--confound-sign", "--reps", "--workers", "--per-replicate"])},
        "estimate": {**COMMON, **dict.fromkeys([
            "--data", "--outcome-col", "--treatment-col", "--covariate-cols", "--caliper"])},
    }
    DEFAULTS = {"--outcome-col": "y", "--treatment-col": "t", "--covariate-cols": "all-others"}

    @staticmethod
    def actions(command):
        from umlr.cli import build_parser

        sub = next(a for a in build_parser()._actions if a.dest == "command")
        return [a for a in sub.choices[command]._actions if a.dest != "help"]

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_flags_match_the_pinned_list(self, command):
        actions = self.actions(command)
        assert len(actions) == len(self.PINNED[command])
        for a in actions:
            (flag,) = a.option_strings
            assert a.choices == self.PINNED[command][flag], flag
            assert a.default == self.DEFAULTS.get(flag), flag

    def test_table_defaults_equal_library_defaults(self):
        import dataclasses
        import inspect

        from umlr import DgpConfig, LearnerConfig, run_monte_carlo
        from umlr.cli import _ESTIMATE_OPTIONS, _SIMULATE_OPTIONS
        from umlr.estimators import DEFAULT_CLIP, EstimatorSpec

        learner, spec, dgp = LearnerConfig(), EstimatorSpec(LearnerConfig()), DgpConfig()
        harness = {name: p.default
                   for name, p in inspect.signature(run_monte_carlo).parameters.items()}
        library = {
            "learner": learner.kind, "lam": learner.lam, "trees": learner.n_trees,
            "depth": learner.max_depth, "learning_rate": learner.learning_rate,
            "min_leaf": learner.min_leaf,
            **{key: getattr(spec, key)
               for key in ("umlr_route", "propensity_l2", "folds", "level", "caliper")},
            "clip_lo": DEFAULT_CLIP[0], "clip_hi": DEFAULT_CLIP[1],
            **{f.name: getattr(dgp, f.name) for f in dataclasses.fields(dgp)},
            "bootstrap": harness["B"], "ci_method": harness["ci_method"],
            "workers": harness["workers"],
        }
        table = {**_SIMULATE_OPTIONS, **_ESTIMATE_OPTIONS}
        # the selection defaults have no library counterpart
        assert set(table) - set(library) == {"estimator", "mode", "reps"}
        for key, (default, _, _) in table.items():
            if key in library:
                assert default == library[key] and type(default) is type(library[key]), key

    @pytest.mark.parametrize("command", ["simulate", "estimate", "diagnose"])
    def test_help_exits_0(self, command):
        r = run_cli([command, "--help"])
        assert r.returncode == 0, r.stderr
        assert "usage: umlr " + command in r.stdout


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

    def test_psm_reports_its_mlr_row_only(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["simulate", "--n", "60", "--p", "4", "--s", "2", "--reps", "10",
                   "--bootstrap", "0", "--estimator", "psm", "--mode", "both",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())["results"]
        assert [(r["estimator"], r["mode"]) for r in rows] == [("psm_att", "mlr")]

    def test_lost_resamples_are_reported(self, tmp_path):
        # 20 units with a strong propensity leave one arm small, so some
        # resamples draw fewer than 5 of its units; records count them
        out, csv_path = tmp_path / "r.json", tmp_path / "reps.csv"
        rc = main(["simulate", "--n", "20", "--p", "2", "--s", "1", "--reps", "10",
                   "--bootstrap", "50", "--estimator", "t", "--mode", "both",
                   "--gamma-scale", "3.0", "--seed", "2", "--out", str(out),
                   "--per-replicate", str(csv_path)])
        assert rc == 0
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
        expected = []
        for mode in ("mlr", "umlr"):
            lost = [int(r[7]) for r in rows if r[2] == mode and r[7]]
            assert sum(lost) > 0
            expected.append(f"t_learner/{mode}: {sum(lost)} of {len(lost) * 50} "
                            "bootstrap resamples failed")
        warnings = json.loads(out.read_text())["warnings"]
        assert [w for w in warnings if "bootstrap resamples" in w] == expected

    @pytest.mark.parametrize("source,workers", [("flag", 2), ("config", 2), ("neither", 1)],
                             ids=["flag", "config", "neither"])
    def test_workers_flag_or_config_overrides_the_env(self, tmp_path, source, workers):
        # workers comes from the option table alone; the environment is not read
        args = ["simulate", "--n", "60", "--p", "4", "--s", "1", "--reps", "10",
                "--bootstrap", "0", "--estimator", "t", "--mode", "mlr",
                "--out", str(tmp_path / "r.json")]
        if source == "flag":
            args += ["--workers", "2"]
        elif source == "config":
            (tmp_path / "sim.toml").write_text("workers = 2\n")
            args += ["--config", str(tmp_path / "sim.toml")]
        r = run_cli(args, env={"UMLR_WORKERS": "two"})
        assert r.returncode == 0, r.stderr
        assert json.loads((tmp_path / "r.json").read_text())["config"]["workers"] == workers


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

    def test_non_utf8_data_exits_3(self, tmp_path):
        f = tmp_path / "cohort.csv"
        f.write_bytes(b"y,t,x1\n1.0,0,0.5\n2.0,1,\xff\n")
        r = run_cli(["estimate", "--data", str(f), "--estimator", "t", "--bootstrap", "0"])
        assert_contract_error(r, "csv_parse")
        assert str(f) in json.loads(r.stderr)["error"]["message"]

    def test_outcome_reused_as_covariate_exits_3(self, tmp_path):
        data = write_cohort(tmp_path / "cohort.csv", n=60)
        r = run_cli(["estimate", "--data", str(data), "--estimator", "t", "--bootstrap", "0",
                     "--outcome-col", "x1", "--covariate-cols", "x1,x2"])
        assert_contract_error(r, "csv_parse")
        assert "'x1' is selected more than once" in json.loads(r.stderr)["error"]["message"]

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

    def test_every_row_carries_the_requested_level(self, tmp_path):
        data = write_cohort(tmp_path / "cohort.csv", n=120, seed=3, confounding=1.0)
        out = tmp_path / "est.json"
        rc = main(["estimate", "--data", str(data), "--estimator", "s,t,x,aipw,dml,psm",
                   "--mode", "mlr", "--bootstrap", "50", "--level", "0.8",
                   "--out", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())["results"]
        assert len(rows) == 6
        assert {row["estimator"]: row["level"] for row in rows} == dict.fromkeys(
            ("s_learner", "t_learner", "x_learner", "aipw", "dml", "psm_att"), 0.8)

    @staticmethod
    def write_rare_cohort(path, n_treated, n=120):
        """Only the first ``n_treated`` rows are treated, so some bootstrap
        resamples draw fewer than the 5 treated units an arm model needs."""
        rng = np.random.default_rng(0)
        X = rng.standard_normal((n, 2))
        t = (np.arange(n) < n_treated).astype(int)
        y = 1.5 * t + X[:, 0] + 0.5 * rng.standard_normal(n)
        rows = zip(y.tolist(), t.tolist(), X.tolist())
        path.write_text("y,t,x1,x2\n" + "".join(f"{yi!r},{ti},{x[0]!r},{x[1]!r}\n"
                                                 for yi, ti, x in rows))
        return path

    def test_rare_treatment_bootstrap_failures_are_reported(self, tmp_path, capsys):
        args = ["--estimator", "t,aipw", "--mode", "both", "--bootstrap", "60"]
        data = self.write_rare_cohort(tmp_path / "rare.csv", n_treated=10)
        out = tmp_path / "est.json"
        assert main(["estimate", "--data", str(data), *args, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["warnings"] == [
            f"{row}: 3 of 60 bootstrap resamples failed (InvalidInputError)"
            for row in ("t_learner/mlr", "t_learner/umlr", "aipw/mlr", "aipw/umlr")]
        # 7 of 60 resamples (11.7 %) is past the 10 % limit: the first row fails the run
        data = self.write_rare_cohort(tmp_path / "rarer.csv", n_treated=8)
        assert main(["estimate", "--data", str(data), *args]) == 4
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"code": "unstable_bootstrap",
                         "message": "estimator failed on 11.7% of bootstrap resamples"}


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

    def test_ragged_row_names_path_and_line(self, tmp_path):
        f = tmp_path / "preds.csv"
        f.write_text("y,y_hat\n1.0,1.0\n2.0,2.0,9.0\n3.0,3.0\n")
        r = run_cli(["diagnose", "--pred-file", str(f), "--out", str(tmp_path / "d.json")])
        assert_contract_error(r, "csv_parse")
        assert f"{f}:3:" in json.loads(r.stderr)["error"]["message"]

    def test_byte_order_mark_is_not_part_of_the_first_column(self, tmp_path):
        f = tmp_path / "preds.csv"
        f.write_bytes(b"\xef\xbb\xbfy,y_hat\n1.0,1.0\n2.0,2.5\n3.0,2.0\n")  # "CSV UTF-8"
        out = tmp_path / "d.json"
        assert main(["diagnose", "--pred-file", str(f), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["results"][0]["n"] == 3

    def test_non_utf8_file_exits_3(self, tmp_path):
        f = tmp_path / "preds.csv"
        f.write_bytes(b"y,y_hat\n1.0,1.0\n2.0,\xff\n")
        r = run_cli(["diagnose", "--pred-file", str(f)])
        assert_contract_error(r, "csv_parse")
        assert str(f) in json.loads(r.stderr)["error"]["message"]

    def test_same_column_twice_exits_3(self, tmp_path):
        f = tmp_path / "preds.csv"
        f.write_text("y,y_hat\n1.0,1.0\n2.0,2.5\n3.0,2.0\n")
        r = run_cli(["diagnose", "--pred-file", str(f), "--y-col", "y", "--yhat-col", "y"])
        assert_contract_error(r, "csv_parse")

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
