"""The benchmark's workloads: inputs made from the seed, one call of work,
and the check that the call's results are right.

A call goes through umlr's public entry points only: ``run_monte_carlo``
for the ``mc_*`` workloads and ``umlr.cli.main`` for ``cli_estimate_gbt``.
Every call of a run uses the same inputs, so each call's results digest
must equal the warm-up call's.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REPS_PER_CALL = 10  # the fewest replicates run_monte_carlo accepts


@dataclass
class Outcome:
    """What one call did: ``units`` finished, ``ops`` attempted (scenario
    cells or CLI calls) of which ``failed_ops`` failed, and the results
    ``digest``. ``problems`` lists every failed correctness check."""

    units: int
    ops: int
    failed_ops: int
    failed_units: int
    digest: str
    problems: list[str] = field(default_factory=list)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _bias(s) -> float:
    return abs(s.bias_pct_signed)


def _check_bias_removed(summaries) -> list[str]:
    by_mode = {s.mode: s for s in summaries}
    mlr, umlr = by_mode["mlr"], by_mode["umlr"]
    if _bias(umlr) < _bias(mlr):
        return []
    return [f"umlr |bias| {_bias(umlr):.3f}% not below mlr |bias| {_bias(mlr):.3f}%"]


def _check_slopes_restored(summaries) -> list[str]:
    problems = _check_bias_removed(summaries)
    by_mode = {s.mode: s for s in summaries}
    mlr, umlr = by_mode["mlr"], by_mode["umlr"]
    for arm in ("slope_out_1", "slope_out_0"):
        lo, hi = getattr(mlr, arm), getattr(umlr, arm)
        if lo is None or hi is None or not hi > lo:
            problems.append(f"{arm}: umlr {hi} does not exceed mlr {lo}")
    return problems


def _check_null_recovered(summaries) -> list[str]:
    problems = []
    for s in summaries:
        if s.n_failed != 0:
            problems.append(f"{s.estimator}/{s.mode}: {s.n_failed} failed replicates")
        if not _bias(s) <= 5.0:
            problems.append(f"{s.estimator}/{s.mode}: |bias| {_bias(s):.3f}% > 5%")
    return problems


@dataclass(frozen=True)
class MonteCarlo:
    """One ``run_monte_carlo`` call of REPS_PER_CALL replicates; a unit is
    one replicate."""

    dgp: dict
    learner: dict
    scenario: tuple
    study: dict
    check: object

    def prepare(self, seed: int, workdir: Path) -> dict:
        return {"dgp_seed": seed % 2**32}

    def run(self, umlr, inputs: dict) -> Outcome:
        summaries, records = umlr.run_monte_carlo(
            umlr.DgpConfig(**self.dgp, seed=inputs["dgp_seed"]),
            umlr.LearnerConfig(**self.learner),
            list(self.scenario),
            reps=REPS_PER_CALL,
            workers=1,
            return_records=True,
            **self.study,
        )
        failed = [r for r in records if r["error"] is not None]
        return Outcome(
            units=REPS_PER_CALL,
            ops=len(records),
            failed_ops=len(failed),
            failed_units=len({r["rep"] for r in failed}),
            digest=digest({"summaries": [s.to_dict() for s in summaries],
                           "records": records}),
            problems=self.check(summaries),
        )


# ---------------------------------------------------------------------------
# CLI cohort
# ---------------------------------------------------------------------------

COHORT_N, COHORT_P = 1000, 20


def write_cohort(path: Path, seed: int):
    """Confounded CSV cohort drawn here with numpy, never by umlr, so a
    change to the program cannot change the data it is measured on.

    Four covariates raise both the treatment odds and (with opposite sign)
    the baseline outcome; four more modify the effect. True ATE is 2.
    """
    n, p = COHORT_N, COHORT_P
    rng = np.random.default_rng([0x756D6C72, seed % 2**32])
    X = rng.standard_normal((n, p))
    signs = rng.choice((-1.0, 1.0), size=4)
    logit = X[:, :4] @ (0.4 * signs)
    t = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(int)
    baseline = 1.0 + X[:, :4] @ (-0.8 * signs) + X[:, 8:12].sum(axis=1) * 0.3
    effect = 2.0 + X[:, 4:8] @ (0.5 * rng.choice((-1.0, 1.0), size=4))
    y = baseline + t * effect + rng.standard_normal(n)
    table = np.column_stack([y, t, X])
    header = ",".join(["y", "t"] + [f"x{j}" for j in range(p)])
    np.savetxt(path, table, delimiter=",", header=header, comments="", fmt="%.17g")


@dataclass(frozen=True)
class CliEstimate:
    """One ``umlr estimate`` call on the bench's cohort; a unit is one call."""

    args: tuple

    def prepare(self, seed: int, workdir: Path) -> dict:
        data = workdir / "cohort.csv"
        write_cohort(data, seed)
        return {"data": str(data), "out": str(workdir / "report.json")}

    def run(self, umlr, inputs: dict) -> Outcome:
        out = Path(inputs["out"])
        out.unlink(missing_ok=True)
        argv = ["estimate", "--data", inputs["data"], *self.args, "--out", str(out)]
        try:
            code = umlr.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
        if code != 0:
            return Outcome(units=1, ops=1, failed_ops=1, failed_units=1, digest="",
                           problems=[f"umlr estimate exited with {code}"])
        report = json.loads(out.read_text())
        report.pop("metadata")  # holds a wall-clock timestamp
        report["config"].pop("data")  # the per-run working directory
        return Outcome(units=1, ops=1, failed_ops=0, failed_units=0,
                       digest=digest(report), problems=_check_report(report))


def _check_report(report) -> list[str]:
    rows = report["results"]
    problems = []
    if len(rows) != 7:
        problems.append(f"{len(rows)} result rows, expected 7")
    for row in rows:
        label = f"{row['estimator']}/{row['mode']}"
        if not math.isfinite(row["point"]):
            problems.append(f"{label}: point {row['point']} not finite")
        if row["estimator"] == "dml" and not row["ci_low"] <= row["point"] <= row["ci_high"]:
            problems.append(f"{label}: interval does not contain the point")
        if row["estimator"] == "psm_att" and row["estimand"] != "att":
            problems.append(f"{label}: estimand {row['estimand']!r}, expected 'att'")
    if sum(row["estimator"] == "psm_att" for row in rows) != 1:
        problems.append("expected exactly one psm_att row")
    return problems


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

# Criterion-3 design of the acceptance gate (n=500, p=200).
TABLE_DGP = dict(n=500, p=200, s=10, mu1=6.0, mu0=0.0, gamma_scale=0.3, sigma=2.0)
# Criterion-9 randomized null of the acceptance gate.
NULL_DGP = dict(n=160, p=4, s=2, mu1=2.0, mu0=0.0, gamma_scale=0.0,
                effect_scale=0.0, sigma=0.4, beta_scale=2.5)
T_BOTH = (("t_learner", "mlr"), ("t_learner", "umlr"))

# Why each workload was chosen is in README.md and BENCHMARK.json.
WORKLOADS = {
    "mc_ridge_t_n500": MonteCarlo(
        dgp=TABLE_DGP,
        learner=dict(kind="ridge", lam=250.0),
        scenario=T_BOTH,
        study=dict(B=200, collect_slopes=True, umlr_route="anchored"),
        check=_check_slopes_restored,
    ),
    "mc_null_p4": MonteCarlo(
        dgp=NULL_DGP,
        learner=dict(kind="ridge", lam=0.1),
        scenario=tuple((name, mode)
                       for name in ("s_learner", "t_learner", "x_learner", "aipw", "dml")
                       for mode in ("mlr", "umlr")),
        study=dict(B=100),
        check=_check_null_recovered,
    ),
    "mc_lasso_t_n500": MonteCarlo(
        dgp=TABLE_DGP,
        learner=dict(kind="lasso", lam=0.1),
        scenario=T_BOTH,
        study=dict(B=0, umlr_route="constrained"),
        check=_check_bias_removed,
    ),
    "cli_estimate_gbt": CliEstimate(
        args=("--learner", "gbt", "--trees", "100", "--estimator", "t,aipw,dml,psm",
              "--mode", "both", "--bootstrap", "0"),
    ),
}
