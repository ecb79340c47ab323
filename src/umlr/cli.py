"""Command-line front end: ``umlr simulate | estimate | diagnose``.

Reports are single JSON documents (schema "v1") with sections
``config`` (fully resolved, including the seed), ``results``,
``diagnostics``, and ``warnings``; wall-clock timestamps live only in a
separate ``metadata`` section so re-running an embedded config reproduces
the rest of the document byte for byte. CSV and plot exports are flat
projections of the same data. All file writes are atomic
(write-temp-then-rename).

Exit codes: 0 success; 2 usage or configuration error; 3 input/validation
error, including a file that cannot be read or written; 4 numerical or
estimation error. On failure a machine-readable
``{"error": {"code", "message"}}`` document is printed to stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import json
import os
import sys
import tempfile

import numpy as np

from .core import Dataset
from .diagnostics import evaluate_predictions
from .errors import CsvParseError, InvalidInputError, UmlrError
from .estimators import (
    aipw,
    bootstrap_ci,
    dml,
    fit_propensity,
    psm_att,
    s_learner,
    t_learner,
    x_learner,
)
from .learners import LearnerConfig
from .simulation import DgpConfig, run_monte_carlo

SCHEMA = "v1"
_ESTIMATOR_ALIASES = {
    "s": "s_learner", "s_learner": "s_learner",
    "t": "t_learner", "t_learner": "t_learner",
    "x": "x_learner", "x_learner": "x_learner",
    "aipw": "aipw",
    "dml": "dml",
    "psm": "psm_att", "psm_att": "psm_att",
}


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------

def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".umlr-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_report(path: str | None, report: dict):
    report = dict(report)
    report["metadata"] = {
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat()
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if path:
        _atomic_write(path, text)
    else:
        sys.stdout.write(text)


def _write_csv(path: str, header: list[str], rows: list[list]):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            "" if v is None else repr(float(v)) if isinstance(v, float) else str(v)
            for v in row
        ))
    _atomic_write(path, "\n".join(lines) + "\n")


def load_config_file(path: str) -> dict:
    """Parse a ``key = value`` config file; '#' starts a comment."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidInputError(
                    f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}"
                )
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def load_csv(path: str, outcome_col: str, treatment_col: str,
             covariate_cols: str | list[str] = "all-others") -> tuple[Dataset, list[str]]:
    """Read a comma-separated UTF-8 file with a header row into a Dataset.

    ``covariate_cols`` is either an explicit list of column names or
    "all-others" (every column except outcome and treatment). Returns the
    dataset and the covariate column names actually used.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        for col in (outcome_col, treatment_col):
            if col not in header:
                raise CsvParseError(f"{path}: column {col!r} not found in header {header}")
        if covariate_cols == "all-others":
            cov_names = [h for h in header if h not in (outcome_col, treatment_col)]
        else:
            cov_names = list(covariate_cols)
            for col in cov_names:
                if col not in header:
                    raise CsvParseError(f"{path}: covariate column {col!r} not found")
        if not cov_names:
            raise CsvParseError(f"{path}: no covariate columns selected")
        col_idx = {h: i for i, h in enumerate(header)}

        ys, ts, xs = [], [], []
        for rownum, raw in enumerate(reader, start=2):  # header is line 1
            if not raw or all(not c.strip() for c in raw):
                continue
            if len(raw) != len(header):
                raise CsvParseError(
                    f"{path}:{rownum}: expected {len(header)} fields, got {len(raw)}"
                )

            def cell(col: str) -> float:
                text = raw[col_idx[col]].strip()
                try:
                    return float(text)
                except ValueError:
                    raise CsvParseError(
                        f"{path}:{rownum}: column {col!r}: non-numeric value {text!r}"
                    ) from None

            ys.append(cell(outcome_col))
            tv = cell(treatment_col)
            if tv not in (0.0, 1.0):
                raise CsvParseError(
                    f"{path}:{rownum}: treatment column {treatment_col!r} must be 0 or 1, "
                    f"got {raw[col_idx[treatment_col]].strip()!r}"
                )
            ts.append(int(tv))
            xs.append([cell(c) for c in cov_names])
    return Dataset(np.asarray(xs, dtype=float), np.asarray(ts), np.asarray(ys)), cov_names


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_learner_args(p: argparse.ArgumentParser):
    p.add_argument("--learner", choices=("ridge", "lasso", "gbt"), default=None)
    p.add_argument("--lam", type=float, default=None, help="regularization weight")
    p.add_argument("--trees", type=int, default=None, help="gbt boosting rounds")
    p.add_argument("--depth", type=int, default=None, help="gbt max tree depth")
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--min-leaf", type=int, default=None)


def _add_common_args(p: argparse.ArgumentParser):
    p.add_argument("--config", default=None, help="key = value config file; flags override")
    p.add_argument("--estimator", default=None,
                   help="comma list of s,t,x,aipw,dml,psm")
    p.add_argument("--mode", choices=("mlr", "umlr", "both"), default=None)
    p.add_argument("--umlr-route", choices=("auto", "constrained", "anchored"), default=None)
    p.add_argument("--bootstrap", type=int, default=None, help="bootstrap resamples B")
    p.add_argument("--ci-method", choices=("normal", "percentile"), default=None)
    p.add_argument("--level", type=float, default=None)
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--propensity-l2", type=float, default=None)
    p.add_argument("--clip-lo", type=float, default=None,
                   help="lower propensity clipping bound")
    p.add_argument("--clip-hi", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="report JSON path (default: stdout)")
    p.add_argument("--csv-out", default=None,
                   help="also write the results table as flat CSV")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="umlr",
                                 description="Unbiased ML regression for ATE estimation")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte-Carlo study on synthetic data")
    _add_common_args(sim)
    _add_learner_args(sim)
    sim.add_argument("--n", type=int, default=None)
    sim.add_argument("--p", type=int, default=None)
    sim.add_argument("--s", type=int, default=None, help="active components per block")
    sim.add_argument("--sigma", type=float, default=None)
    sim.add_argument("--mu1", type=float, default=None)
    sim.add_argument("--mu0", type=float, default=None)
    sim.add_argument("--beta-scale", type=float, default=None)
    sim.add_argument("--gamma-scale", type=float, default=None)
    sim.add_argument("--effect-scale", type=float, default=None)
    sim.add_argument("--confound-sign", type=float, default=None)
    sim.add_argument("--reps", type=int, default=None)
    sim.add_argument("--workers", type=int, default=None,
                     help="worker threads (default: env UMLR_WORKERS or 1)")
    sim.add_argument("--per-replicate", default=None,
                     help="also write per-replicate records to this CSV")

    est = sub.add_parser("estimate", help="estimate ATE from a CSV dataset")
    _add_common_args(est)
    _add_learner_args(est)
    est.add_argument("--data", required=True, help="CSV with header row")
    est.add_argument("--outcome-col", default="y")
    est.add_argument("--treatment-col", default="t")
    est.add_argument("--covariate-cols", default="all-others",
                     help='comma list of columns, or "all-others"')
    est.add_argument("--caliper", type=float, default=None, help="PSM caliper multiplier")

    dia = sub.add_parser("diagnose", help="shrinkage report for a (y, yhat) file")
    dia.add_argument("--pred-file", required=True, help="CSV with y and yhat columns")
    dia.add_argument("--y-col", default="y")
    dia.add_argument("--yhat-col", default="y_hat")
    dia.add_argument("--scatter-out", default=None,
                     help="write (y, yhat) scatter data CSV for external plotting")
    dia.add_argument("--out", default=None)
    return ap


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """File < flags < nothing: start from defaults, overlay config file, then
    any flag the user actually passed."""
    resolved = dict(defaults)
    if getattr(args, "config", None):
        file_cfg = load_config_file(args.config)
        for key, raw in file_cfg.items():
            if key not in defaults:
                raise InvalidInputError(f"unknown config key {key!r}")
            template = defaults[key]
            if isinstance(template, bool):
                resolved[key] = raw.lower() in ("1", "true", "yes")
            elif isinstance(template, int):
                resolved[key] = int(raw)
            elif isinstance(template, float):
                resolved[key] = float(raw)
            else:
                resolved[key] = raw
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            resolved[key] = val
    return resolved


def _parse_estimators(spec: str) -> list[str]:
    names = []
    for token in spec.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token not in _ESTIMATOR_ALIASES:
            raise InvalidInputError(
                f"unknown estimator {token!r}; expected s,t,x,aipw,dml,psm"
            )
        names.append(_ESTIMATOR_ALIASES[token])
    if not names:
        raise InvalidInputError("no estimators selected")
    return names


def _modes(mode: str) -> list[str]:
    return ["mlr", "umlr"] if mode == "both" else [mode]


def _learner_from(resolved: dict) -> LearnerConfig:
    return LearnerConfig(
        kind=resolved["learner"],
        lam=resolved["lam"],
        n_trees=resolved["trees"],
        max_depth=resolved["depth"],
        learning_rate=resolved["learning_rate"],
        min_leaf=resolved["min_leaf"],
    )


_COMMON_DEFAULTS = {
    "estimator": "t",
    "mode": "both",
    "umlr_route": "auto",
    "bootstrap": 200,
    "ci_method": "normal",
    "level": 0.95,
    "folds": 5,
    "propensity_l2": 1.0,
    "clip_lo": 0.01,
    "clip_hi": 0.99,
    "seed": 0,
    "learner": "ridge",
    "lam": 1.0,
    "trees": 200,
    "depth": 3,
    "learning_rate": 0.1,
    "min_leaf": 5,
}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _env_workers() -> int:
    raw = os.environ.get("UMLR_WORKERS", "1")
    try:
        return int(raw)
    except ValueError:
        raise InvalidInputError(f"UMLR_WORKERS must be an integer, got {raw!r}") from None


def _cmd_simulate(args) -> dict:
    defaults = dict(_COMMON_DEFAULTS)
    defaults.update({
        "n": 1000, "p": 200, "s": 10, "sigma": 1.0, "mu1": 2.0, "mu0": 0.0,
        "beta_scale": 0.5, "gamma_scale": 0.5, "effect_scale": 0.5,
        "confound_sign": -1.0, "reps": 100,
        "workers": _env_workers(),
    })
    cfg = _merge_config(args, defaults)
    dgp = DgpConfig(
        n=cfg["n"], p=cfg["p"], s=cfg["s"], mu1=cfg["mu1"], mu0=cfg["mu0"],
        beta_scale=cfg["beta_scale"], gamma_scale=cfg["gamma_scale"],
        effect_scale=cfg["effect_scale"], sigma=cfg["sigma"],
        confound_sign=cfg["confound_sign"], seed=cfg["seed"],
    )
    learner = _learner_from(cfg)
    scenario = [(name, mode)
                for name in _parse_estimators(cfg["estimator"])
                for mode in _modes(cfg["mode"])]
    summaries, records = run_monte_carlo(
        dgp, learner, scenario, reps=cfg["reps"], B=cfg["bootstrap"],
        level=cfg["level"], propensity_l2=cfg["propensity_l2"], folds=cfg["folds"],
        workers=cfg["workers"], umlr_route=cfg["umlr_route"],
        ci_method=cfg["ci_method"], collect_slopes=True, return_records=True,
    )
    warnings = [
        f"{s.estimator}/{s.mode}: {s.n_failed} of {s.reps} replicates failed"
        for s in summaries if s.n_failed > 0
    ]
    if args.per_replicate:
        header = ["rep", "estimator", "mode", "true_ate", "point", "ci_low",
                  "ci_high", "error"]
        _write_csv(args.per_replicate, header,
                   [[r[h] for h in header] for r in records])
    if args.csv_out:
        cols = ["estimator", "mode", "reps", "bias_pct_signed", "bias_pct_abs",
                "rmse", "coverage", "mc_se", "n_failed"]
        _write_csv(args.csv_out, cols,
                   [[getattr(s, c) for c in cols] for s in summaries])
    return {
        "schema": SCHEMA,
        "config": {"command": "simulate", **cfg},
        "results": [s.to_dict() for s in summaries],
        "diagnostics": [],
        "warnings": warnings,
    }


def _spb_dict(report) -> dict:
    return dataclasses.asdict(report)


def _cmd_estimate(args) -> dict:
    cfg = _merge_config(args, dict(_COMMON_DEFAULTS, caliper=0.2))
    covs = args.covariate_cols
    if covs != "all-others":
        covs = [c.strip() for c in covs.split(",") if c.strip()]
    data, cov_names = load_csv(args.data, args.outcome_col, args.treatment_col, covs)
    learner = _learner_from(cfg)
    names = _parse_estimators(cfg["estimator"])
    route = cfg["umlr_route"]

    results, diagnostics, warnings = [], [], []
    prop = None
    if any(n in ("x_learner", "aipw", "psm_att") for n in names):
        prop = fit_propensity(data.X, data.t, l2=cfg["propensity_l2"],
                              clip=(cfg["clip_lo"], cfg["clip_hi"]))

    for name in names:
        for mode in (["mlr"] if name == "psm_att" else _modes(cfg["mode"])):
            if name == "t_learner":
                m0, m1, est = t_learner(data, learner, mode, route)
            elif name == "s_learner":
                _, est = s_learner(data, learner, mode, route)
            elif name == "x_learner":
                est = x_learner(data, learner, mode, prop, route)
            elif name == "aipw":
                m0, m1, _ = t_learner(data, learner, mode, route)
                est = aipw(data, m0, m1, prop, mode=mode)
            elif name == "dml":
                est = dml(data, learner, mode, folds=cfg["folds"],
                          l2=cfg["propensity_l2"], level=cfg["level"],
                          clip=(cfg["clip_lo"], cfg["clip_hi"]),
                          umlr_route=route)
            else:  # psm_att
                est = psm_att(data, prop, caliper=cfg["caliper"])

            if est.ci_low is None and cfg["bootstrap"] > 0:
                closure = _point_closure_cli(name, mode, learner, cfg, prop, route)
                lo, hi = bootstrap_ci(data, closure, B=cfg["bootstrap"],
                                      level=cfg["level"], seed=cfg["seed"],
                                      method=cfg["ci_method"], center=est.point)
                est = est.with_interval(lo, hi)
            results.append({
                "estimator": est.estimator,
                "estimand": "att" if name == "psm_att" else "ate",
                "mode": est.mode,
                "point": est.point,
                "ci_low": est.ci_low,
                "ci_high": est.ci_high,
                "level": est.level,
                "n_used": est.n_used,
            })
            for label, rep in (est.diagnostics or {}).items():
                if rep is not None:
                    diagnostics.append({
                        "estimator": est.estimator, "mode": est.mode,
                        "model": label, **_spb_dict(rep),
                    })
    if args.csv_out:
        cols = ["estimator", "estimand", "mode", "point", "ci_low", "ci_high",
                "level", "n_used"]
        _write_csv(args.csv_out, cols, [[row[c] for c in cols] for row in results])
    return {
        "schema": SCHEMA,
        "config": {
            "command": "estimate", "data": args.data,
            "outcome_col": args.outcome_col, "treatment_col": args.treatment_col,
            "covariate_cols": cov_names, "n": data.n, "p": data.p, **cfg,
        },
        "results": results,
        "diagnostics": diagnostics,
        "warnings": warnings,
    }


def _point_closure_cli(name, mode, learner, cfg, prop, route):
    l2 = cfg["propensity_l2"]
    clip = (cfg["clip_lo"], cfg["clip_hi"])

    def closure(d):
        if name == "t_learner":
            return t_learner(d, learner, mode, route, with_diagnostics=False)[2].point
        if name == "s_learner":
            return s_learner(d, learner, mode, route, with_diagnostics=False)[1].point
        if name == "x_learner":
            pr = fit_propensity(d.X, d.t, l2=l2, clip=clip)
            return x_learner(d, learner, mode, pr, route, with_diagnostics=False).point
        if name == "aipw":
            m0, m1, _ = t_learner(d, learner, mode, route, with_diagnostics=False)
            pr = fit_propensity(d.X, d.t, l2=l2, clip=clip)
            return aipw(d, m0, m1, pr, mode=mode).point
        if name == "psm_att":
            pr = fit_propensity(d.X, d.t, l2=l2, clip=clip)
            return psm_att(d, pr, caliper=cfg["caliper"]).point
        raise InvalidInputError(name)

    return closure


def _cmd_diagnose(args) -> dict:
    ys, yhats = [], []
    path = args.pred_file
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise CsvParseError(f"{path}: empty file") from None
        for col in (args.y_col, args.yhat_col):
            if col not in header:
                raise CsvParseError(f"{path}: column {col!r} not found")
        yi, pi = header.index(args.y_col), header.index(args.yhat_col)
        for rownum, raw in enumerate(reader, start=2):
            if not raw or all(not c.strip() for c in raw):
                continue
            try:
                ys.append(float(raw[yi]))
                yhats.append(float(raw[pi]))
            except (ValueError, IndexError):
                raise CsvParseError(f"{path}:{rownum}: non-numeric or missing cell") from None
    report = evaluate_predictions(np.asarray(ys), np.asarray(yhats))
    if args.scatter_out:
        lines = [f"# eta_hat={report.eta_hat!r} intercept={report.intercept!r}",
                 f"{args.y_col},{args.yhat_col}"]
        lines += [f"{y!r},{p!r}" for y, p in zip(ys, yhats)]
        _atomic_write(args.scatter_out, "\n".join(lines) + "\n")
    return {
        "schema": SCHEMA,
        "config": {"command": "diagnose", "pred_file": path,
                   "y_col": args.y_col, "yhat_col": args.yhat_col},
        "results": [_spb_dict(report)],
        "diagnostics": [],
        "warnings": [],
    }


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            report = _cmd_simulate(args)
        elif args.command == "estimate":
            report = _cmd_estimate(args)
        else:
            report = _cmd_diagnose(args)
        _write_report(getattr(args, "out", None), report)
    except (InvalidInputError, CsvParseError) as exc:
        return _fail(exc.code, exc, 3)
    except OSError as exc:  # unreadable input or unwritable output path
        return _fail("io_error", exc, 3)
    except UmlrError as exc:
        return _fail(exc.code, exc, 4)
    return 0


def _fail(code: str, exc: Exception, exit_code: int) -> int:
    doc = {"schema": SCHEMA, "error": {"code": code, "message": str(exc)}}
    sys.stderr.write(json.dumps(doc, sort_keys=True) + "\n")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
