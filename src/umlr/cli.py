"""Command-line front end: ``umlr simulate | estimate | diagnose``.

Reports are single JSON documents (schema "v1") with sections
``config`` (fully resolved, including the seed), ``results``,
``diagnostics``, and ``warnings``; wall-clock timestamps live only in a
separate ``metadata`` section so re-running an embedded config reproduces
the rest of the document byte for byte. CSV and plot exports are flat
projections of the same data. All file writes are atomic
(write-temp-then-rename).

Each simulate/estimate option is one key of an option table: ``--key-name``
as a flag, ``key_name`` or ``key-name`` in a ``key = value`` config file,
and ``config.key_name`` in the report. Every knob is checked before any
work runs.

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
import stat
import sys
import tempfile

import numpy as np

from .core import Dataset
from .diagnostics import evaluate_predictions
from .errors import CsvParseError, InvalidInputError, UmlrError, check_choice, check_count
from .estimators import (
    CI_METHODS,
    ESTIMATORS,
    MODES,
    UMLR_ROUTES,
    EstimatorSpec,
    Nuisances,
    bootstrap_interval,
    check_bootstrap,
    resampled_points,
)
from .learners import _KINDS, LearnerConfig
from .simulation import DgpConfig, run_monte_carlo

SCHEMA = "v1"
_ALIASES = {alias: name for name, entry in ESTIMATORS.items()
            for alias in (name, *entry.aliases)}
_SHORT_NAMES = ",".join(min((name, *entry.aliases), key=len)
                        for name, entry in ESTIMATORS.items())


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------

def _atomic_write(path: str, text: str):
    """Write a temporary file and rename it over ``path``, with the mode that
    ``open(path, "w")`` leaves, not mkstemp's 0o600."""
    d = os.path.dirname(os.path.abspath(path))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".umlr-tmp-")
    try:
        os.fchmod(fd, mode)
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


def _utf8_lines(fh, path: str, error: type[InvalidInputError]):
    """The lines of a file opened as UTF-8; other bytes raise ``error``."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_config_file(path: str) -> dict:
    """Parse a ``key = value`` UTF-8 config file, a leading byte-order mark
    skipped; '#' starts a comment."""
    out = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(_utf8_lines(fh, path, InvalidInputError), start=1):
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


def _read_csv(path: str, select) -> tuple[list[str], list[int], np.ndarray]:
    """Read a comma-separated UTF-8 file with a header row; a leading
    byte-order mark, which spreadsheets write, is skipped.

    ``select(header)`` names the columns to read, each once and each found
    once in the header. Returns those names, the line number of each
    non-blank data row, and the rows' values as a float table. Every row
    must have as many fields as the header.
    """
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(_utf8_lines(fh, path, CsvParseError))
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise CsvParseError(f"{path}: empty file") from None
        cols = select(header)
        for k, col in enumerate(cols):
            if col not in header:
                raise CsvParseError(f"{path}: column {col!r} not found in header {header}")
            if header.count(col) > 1:
                raise CsvParseError(f"{path}: column {col!r} appears more than once in the header")
            if col in cols[:k]:
                raise CsvParseError(f"{path}: column {col!r} is selected more than once")
        picks = [(col, header.index(col)) for col in cols]

        lines, rows = [], []
        for rownum, raw in enumerate(reader, start=2):  # header is line 1
            if not raw or all(not c.strip() for c in raw):
                continue
            if len(raw) != len(header):
                raise CsvParseError(
                    f"{path}:{rownum}: expected {len(header)} fields, got {len(raw)}"
                )
            values = []
            for col, i in picks:
                try:
                    values.append(float(raw[i]))
                except ValueError:
                    raise CsvParseError(
                        f"{path}:{rownum}: column {col!r}: non-numeric value {raw[i].strip()!r}"
                    ) from None
            lines.append(rownum)
            rows.append(values)
    return cols, lines, np.array(rows, dtype=float).reshape(len(rows), len(cols))


def load_csv(path: str, outcome_col: str, treatment_col: str,
             covariate_cols: str | list[str] = "all-others") -> tuple[Dataset, list[str]]:
    """Read a comma-separated UTF-8 file with a header row into a Dataset.

    ``covariate_cols`` is either an explicit list of column names or
    "all-others" (every column except outcome and treatment). Returns the
    dataset and the covariate column names actually used.
    """
    def select(header: list[str]) -> list[str]:
        if covariate_cols == "all-others":
            covs = [h for h in header if h not in (outcome_col, treatment_col)]
        else:
            covs = list(covariate_cols)
        if not covs:
            raise CsvParseError(f"{path}: no covariate columns selected")
        return [outcome_col, treatment_col, *covs]

    cols, lines, table = _read_csv(path, select)
    bad = np.flatnonzero((table[:, 1] != 0.0) & (table[:, 1] != 1.0))
    if bad.size:
        raise CsvParseError(
            f"{path}:{lines[bad[0]]}: treatment column {treatment_col!r} must be 0 or 1, "
            f"got {table[bad[0], 1]:g}"
        )
    return Dataset(table[:, 2:], table[:, 1], table[:, 0]), cols[2:]


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

# config key -> (default, choices, help); the flag is typed by the default
_OPTIONS = {
    "estimator": ("t", None, f"comma list of {_SHORT_NAMES}"),
    "mode": ("both", (*MODES, "both"), None),
    "umlr_route": ("auto", UMLR_ROUTES, None),
    "bootstrap": (200, None, "bootstrap resamples B"),
    "ci_method": ("normal", CI_METHODS, None),
    "level": (0.95, None, None),
    "folds": (5, None, None),
    "propensity_l2": (1.0, None, None),
    "clip_lo": (0.01, None, "lower propensity clipping bound"),
    "clip_hi": (0.99, None, None),
    "seed": (0, None, None),
    "learner": ("ridge", _KINDS, None),
    "lam": (1.0, None, "regularization weight"),
    "trees": (200, None, "gbt boosting rounds"),
    "depth": (3, None, "gbt max tree depth"),
    "learning_rate": (0.1, None, None),
    "min_leaf": (5, None, None),
}
_SIMULATE_OPTIONS = {
    **_OPTIONS,
    **{f.name: (f.default, None, None) for f in dataclasses.fields(DgpConfig)
       if f.name not in ("shared_noise", "seed")},  # no flag; seed is common
    "reps": (100, None, None),
    "workers": (1, None, "worker threads (default 1); results do not depend on it"),
}
_ESTIMATE_OPTIONS = {**_OPTIONS, "caliper": (0.2, None, "PSM caliper multiplier")}


def _add_options(p: argparse.ArgumentParser, options: dict):
    p.add_argument("--config", default=None, help="key = value config file; flags override")
    for key, (default, choices, text) in options.items():
        p.add_argument("--" + key.replace("_", "-"), type=type(default), choices=choices,
                       default=None, help=text)
    p.add_argument("--out", default=None, help="report JSON path (default: stdout)")
    p.add_argument("--csv-out", default=None,
                   help="also write the results table as flat CSV")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="umlr",
                                 description="Unbiased ML regression for ATE estimation")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte-Carlo study on synthetic data")
    _add_options(sim, _SIMULATE_OPTIONS)
    sim.add_argument("--per-replicate", default=None,
                     help="also write per-replicate records to this CSV")

    est = sub.add_parser("estimate", help="estimate ATE from a CSV dataset")
    _add_options(est, _ESTIMATE_OPTIONS)
    est.add_argument("--data", required=True, help="CSV with header row")
    est.add_argument("--outcome-col", default="y")
    est.add_argument("--treatment-col", default="t")
    est.add_argument("--covariate-cols", default="all-others",
                     help='comma list of columns, or "all-others"')

    dia = sub.add_parser("diagnose", help="shrinkage report for a (y, yhat) file")
    dia.add_argument("--pred-file", required=True, help="CSV with y and yhat columns")
    dia.add_argument("--y-col", default="y")
    dia.add_argument("--yhat-col", default="y_hat")
    dia.add_argument("--scatter-out", default=None,
                     help="write (y, yhat) scatter data CSV for external plotting")
    dia.add_argument("--out", default=None)
    return ap


def _merge_config(args: argparse.Namespace, options: dict) -> dict:
    """Defaults < config file < flags: start from the table's defaults,
    overlay the config file, then any flag actually passed."""
    resolved = {key: default for key, (default, _, _) in options.items()}
    if args.config:
        for key, raw in load_config_file(args.config).items():
            if key not in options:
                raise InvalidInputError(f"unknown config key {key!r}")
            default, choices, _ = options[key]
            kind = type(default)  # int, float or str
            try:
                resolved[key] = kind(raw)
            except ValueError:
                raise InvalidInputError(
                    f"config key {key!r} must be {kind.__name__}, got {raw!r}"
                ) from None
            if choices:
                check_choice(key, resolved[key], choices)
    for key in options:
        val = getattr(args, key)
        if val is not None:
            resolved[key] = val
    return resolved


def _parse_estimators(spec: str) -> list[str]:
    tokens = [token.strip().lower() for token in spec.split(",") if token.strip()]
    for token in tokens:
        if token not in _ALIASES:
            raise InvalidInputError(f"unknown estimator {token!r}; expected {_SHORT_NAMES}")
    if not tokens:
        raise InvalidInputError("no estimators selected")
    return [_ALIASES[token] for token in tokens]


def _learner_from(cfg: dict) -> LearnerConfig:
    return LearnerConfig(kind=cfg["learner"], lam=cfg["lam"], n_trees=cfg["trees"],
                         max_depth=cfg["depth"], learning_rate=cfg["learning_rate"],
                         min_leaf=cfg["min_leaf"])


def _cells(cfg: dict, learner: LearnerConfig) -> list[tuple[str, EstimatorSpec]]:
    """(estimator, spec) pairs in report order: each selected estimator in
    each selected mode, or in its only mode if it has one (psm_att runs in
    mlr mode whatever is selected). Building the specs checks every
    estimator knob, before any work runs."""
    base = EstimatorSpec(learner, "mlr", cfg["umlr_route"], cfg["propensity_l2"],
                         (cfg["clip_lo"], cfg["clip_hi"]), cfg["folds"], cfg["level"],
                         cfg.get("caliper", EstimatorSpec.caliper))
    selected = [dataclasses.replace(base, mode=mode)
                for mode in (MODES if cfg["mode"] == "both" else (cfg["mode"],))]
    cells = []
    for name in _parse_estimators(cfg["estimator"]):
        modes = ESTIMATORS[name].modes
        cells += ([(name, spec) for spec in selected] if len(modes) > 1
                  else [(name, dataclasses.replace(base, mode=modes[0]))])
    return cells


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> dict:
    cfg = _merge_config(args, _SIMULATE_OPTIONS)
    dgp = DgpConfig(**{f.name: cfg[f.name] for f in dataclasses.fields(DgpConfig)
                       if f.name in cfg})
    learner = _learner_from(cfg)
    scenario = [(name, spec.mode) for name, spec in _cells(cfg, learner)]
    summaries, records = run_monte_carlo(
        dgp, learner, scenario, reps=cfg["reps"], B=cfg["bootstrap"],
        level=cfg["level"], propensity_l2=cfg["propensity_l2"], folds=cfg["folds"],
        workers=cfg["workers"], umlr_route=cfg["umlr_route"],
        ci_method=cfg["ci_method"], clip=(cfg["clip_lo"], cfg["clip_hi"]),
        collect_slopes=True, return_records=True,
    )
    warnings = [
        f"{s.estimator}/{s.mode}: {s.n_failed} of {s.reps} replicates failed"
        for s in summaries if s.n_failed > 0
    ]
    for s in summaries:  # each bootstrapped record counts the resamples its cell lost
        lost = [r["n_boot_failed"] for r in records if r["n_boot_failed"] is not None
                and (r["estimator"], r["mode"]) == (s.estimator, s.mode)]
        if sum(lost) > 0:
            warnings.append(f"{s.estimator}/{s.mode}: {sum(lost)} of "
                            f"{len(lost) * cfg['bootstrap']} bootstrap resamples failed")
    if args.per_replicate:
        header = ["rep", "estimator", "mode", "true_ate", "point", "ci_low",
                  "ci_high", "n_boot_failed", "error"]
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


def _cmd_estimate(args) -> dict:
    cfg = _merge_config(args, _ESTIMATE_OPTIONS)
    cells = _cells(cfg, _learner_from(cfg))
    B, warnings = cfg["bootstrap"], []
    check_count("bootstrap", B, 0)
    check_count("seed", cfg["seed"], 0)
    boot = [(k, ESTIMATORS[name], spec) for k, (name, spec) in enumerate(cells)
            if B > 0 and not ESTIMATORS[name].analytic_interval]
    if boot:
        check_bootstrap(B, cfg["level"], cfg["ci_method"])
    covs = args.covariate_cols
    if covs != "all-others":
        covs = [c.strip() for c in covs.split(",") if c.strip()]
    data, cov_names = load_csv(args.data, args.outcome_col, args.treatment_col, covs)

    # one memo serves every row's point; resampled_points shares each resample's fits
    nuis = Nuisances(data)
    ests = [ESTIMATORS[name].run(data, spec, nuis, diagnostics=True) for name, spec in cells]
    if boot:
        points, failures = resampled_points(data, [(entry, spec) for _, entry, spec in boot],
                                            B, cfg["seed"])
        for (k, _, spec), pts, failed in zip(boot, points, failures):
            est = ests[k]
            ests[k] = est.with_interval(*bootstrap_interval(
                pts, B, spec.level, cfg["ci_method"], lambda: est.point), spec.level)
            if failed:
                warnings.append(f"{est.estimator}/{est.mode}: {sum(failed.values())} of {B} "
                                f"bootstrap resamples failed ({', '.join(sorted(failed))})")
    cols = ["estimator", "estimand", "mode", "point", "ci_low", "ci_high", "level", "n_used"]
    results, diagnostics = [], []
    for (name, _), est in zip(cells, ests):
        results.append({"estimand": ESTIMATORS[name].estimand,
                        **{c: getattr(est, c) for c in cols if c != "estimand"}})
        for label, rep in (est.diagnostics or {}).items():
            if rep is not None:
                diagnostics.append({
                    "estimator": est.estimator, "mode": est.mode,
                    "model": label, **dataclasses.asdict(rep),
                })
    if args.csv_out:
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


def _cmd_diagnose(args) -> dict:
    path = args.pred_file
    _, _, table = _read_csv(path, lambda header: [args.y_col, args.yhat_col])
    ys, yhats = (np.array(col) for col in table.T)
    report = evaluate_predictions(ys, yhats)
    if args.scatter_out:
        lines = [f"# eta_hat={report.eta_hat!r} intercept={report.intercept!r}",
                 f"{args.y_col},{args.yhat_col}"]
        lines += [f"{y!r},{p!r}" for y, p in table.tolist()]
        _atomic_write(args.scatter_out, "\n".join(lines) + "\n")
    return {
        "schema": SCHEMA,
        "config": {"command": "diagnose", "pred_file": path,
                   "y_col": args.y_col, "yhat_col": args.yhat_col},
        "results": [dataclasses.asdict(report)],
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
