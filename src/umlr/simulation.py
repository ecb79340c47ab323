"""Synthetic data generation and the Monte-Carlo harness.

The data-generating process draws standard-normal covariates, assigns
treatment through a sparse logistic propensity, and builds linear potential
outcomes with sparse coefficient vectors. The confounded block of the
outcome coefficients shares its support and (sign-aligned) direction with
the propensity vector, so treated units sit systematically lower (by
default) on the baseline outcome surface and shrinkage-biased outcome models
produce a consistently signed ATE error; effect heterogeneity comes from a
disjoint modifier block present only in the treated-arm coefficients.

``inject_spb`` bypasses model fitting entirely: it produces prediction
vectors that follow the linear-shrinkage model exactly, which lets the
closed-form bias expression be verified against the plug-in estimator to
floating-point accuracy.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .core import Dataset, partition_by_mean
from .diagnostics import BiasInputs, counterfactual_slopes, shrinkage_ate_bias
from .errors import InvalidInputError, UmlrError
from .estimators import (
    DEFAULT_CLIP,
    aipw,
    bootstrap_ci,
    check_clip,
    dml,
    fit_propensity,
    outcome_regression_ate,
    psm_att,
    s_learner,
    t_learner,
    x_learner,
)
from .learners import LearnerConfig, anchor_recalibrate, fit

__all__ = [
    "DgpConfig",
    "SimReplicate",
    "McSummary",
    "SweepCell",
    "generate_replicate",
    "inject_spb",
    "run_monte_carlo",
    "shrinkage_oracle_study",
    "aipw_oracle_sweep",
    "default_sweep_learner",
]

ESTIMATOR_NAMES = ("s_learner", "t_learner", "x_learner", "aipw", "dml", "psm_att")


@dataclass(frozen=True)
class DgpConfig:
    """Configuration of the synthetic data-generating process.

    ``s`` confounder coefficients are shared (support and sign direction)
    between the propensity vector and both outcome arms; ``effect_scale``
    controls a disjoint block of ``s`` treated-arm-only coefficients that
    makes the unit-level effect heterogeneous (set 0 for a constant effect).
    ``confound_sign = -1`` makes high-propensity units sit lower on the
    baseline surface, so shrinkage-biased fits underestimate the ATE.
    """

    n: int = 1000
    p: int = 200
    s: int = 10
    mu1: float = 2.0
    mu0: float = 0.0
    beta_scale: float = 0.5
    gamma_scale: float = 0.5
    effect_scale: float = 0.5
    sigma: float = 1.0
    confound_sign: float = -1.0
    shared_noise: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n < 20:
            raise InvalidInputError("need n >= 20")
        if not 1 <= self.s <= self.p:
            raise InvalidInputError("need 1 <= s <= p")
        if self.effect_scale != 0.0 and 2 * self.s > self.p:
            raise InvalidInputError("heterogeneous effects need 2*s <= p")
        if self.sigma < 0:
            raise InvalidInputError("sigma must be >= 0")
        if self.seed < 0:
            raise InvalidInputError("seed must be >= 0")
        if self.confound_sign not in (-1.0, 1.0):
            raise InvalidInputError("confound_sign must be -1 or +1")


@dataclass(frozen=True)
class SimReplicate:
    """One synthetic dataset plus its oracle quantities."""

    data: Dataset
    mu0_star: np.ndarray  # oracle surface of the control arm at each unit
    mu1_star: np.ndarray
    y0: np.ndarray  # potential outcomes
    y1: np.ndarray
    true_cate: np.ndarray  # y1 - y0 per unit
    true_ate: float
    gamma: np.ndarray
    beta0: np.ndarray
    beta1: np.ndarray
    e_star: np.ndarray  # oracle propensity at each unit


def _expit(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def generate_replicate(cfg: DgpConfig, rep_index: int) -> SimReplicate:
    """Draw one replicate; a pure function of (cfg.seed, rep_index)."""
    if rep_index < 0:
        raise InvalidInputError("rep_index must be >= 0")
    rng = np.random.default_rng((cfg.seed, rep_index))
    X = rng.standard_normal((cfg.n, cfg.p))

    conf_idx = rng.choice(cfg.p, size=cfg.s, replace=False)
    signs = rng.choice((-1.0, 1.0), size=cfg.s)
    gamma = np.zeros(cfg.p)
    gamma[conf_idx] = cfg.gamma_scale * signs
    beta0 = np.zeros(cfg.p)
    beta0[conf_idx] = cfg.confound_sign * cfg.beta_scale * signs
    beta1 = beta0.copy()
    if cfg.effect_scale != 0.0:
        rest = np.setdiff1d(np.arange(cfg.p), conf_idx)
        mod_idx = rng.choice(rest, size=cfg.s, replace=False)
        mod_signs = rng.choice((-1.0, 1.0), size=cfg.s)
        beta1[mod_idx] += cfg.effect_scale * mod_signs

    e_star = _expit(X @ gamma)
    t = (rng.random(cfg.n) < e_star).astype(np.int64)
    eps1 = rng.standard_normal(cfg.n) * cfg.sigma
    eps0 = eps1 if cfg.shared_noise else rng.standard_normal(cfg.n) * cfg.sigma

    mu1_star = cfg.mu1 + X @ beta1
    mu0_star = cfg.mu0 + X @ beta0
    y1 = mu1_star + eps1
    y0 = mu0_star + eps0
    y = np.where(t == 1, y1, y0)
    cate = y1 - y0
    return SimReplicate(
        data=Dataset(X, t, y),
        mu0_star=mu0_star,
        mu1_star=mu1_star,
        y0=y0,
        y1=y1,
        true_cate=cate,
        true_ate=float(np.mean(cate)),
        gamma=gamma,
        beta0=beta0,
        beta1=beta1,
        e_star=e_star,
    )


def inject_spb(rep: SimReplicate, eta_in: float, eta_out: float, w: float):
    """Oracle prediction vectors following the linear-shrinkage model exactly.

    Each arm's "model" predicts eta_in * mu_t*(X) + (1 - eta_in) * (own-arm
    mean) on its own arm, and eta_out * mu_t*(X) + (1 - eta_out) * target on
    the opposite arm, with target = w * (training-arm mean) +
    (1 - w) * (opposite-arm mean). Returns (mu0_hat, mu1_hat).
    """
    for name, v in (("eta_in", eta_in), ("eta_out", eta_out)):
        if not 0 <= v <= 1:
            raise InvalidInputError(f"{name} must lie in [0, 1]")
    if not 0 < w <= 1:
        raise InvalidInputError("w must lie in (0, 1]")
    t = rep.data.t
    treated = t == 1
    control = ~treated
    m1_in = float(rep.mu1_star[treated].mean())
    m1_out = float(rep.mu1_star[control].mean())
    m0_in = float(rep.mu0_star[control].mean())
    m0_out = float(rep.mu0_star[treated].mean())

    mu1_hat = np.empty(rep.data.n)
    mu1_hat[treated] = eta_in * rep.mu1_star[treated] + (1 - eta_in) * m1_in
    target1 = w * m1_in + (1 - w) * m1_out
    mu1_hat[control] = eta_out * rep.mu1_star[control] + (1 - eta_out) * target1

    mu0_hat = np.empty(rep.data.n)
    mu0_hat[control] = eta_in * rep.mu0_star[control] + (1 - eta_in) * m0_in
    target0 = w * m0_in + (1 - w) * m0_out
    mu0_hat[treated] = eta_out * rep.mu0_star[treated] + (1 - eta_out) * target0
    return mu0_hat, mu1_hat


# ---------------------------------------------------------------------------
# Monte-Carlo harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McSummary:
    """Aggregated performance of one (estimator, mode) across replicates.

    ``bias_pct_abs`` is the mean of |error| / |true ATE| in percent;
    ``bias_pct_signed`` is the mean of the signed relative error, which is
    what decays to zero for an unbiased estimator. ``mc_se`` is the Monte-
    Carlo standard error of ``bias_pct_signed``.
    """

    estimator: str
    mode: str
    reps: int
    bias_pct_abs: float
    bias_pct_signed: float
    rmse: float
    coverage: float | None
    mc_se: float
    n_failed: int
    valid: bool
    slope_out_1: float | None = None  # mean OOD slope of the arm-1 model
    slope_out_0: float | None = None

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in (
            "estimator", "mode", "reps", "bias_pct_abs", "bias_pct_signed",
            "rmse", "coverage", "mc_se", "n_failed", "valid",
            "slope_out_1", "slope_out_0",
        )}


def _point_closure(name: str, mode: str, learner: LearnerConfig,
                   propensity_l2: float, folds: int, umlr_route: str, clip):
    if name == "t_learner":
        return lambda d: t_learner(d, learner, mode, umlr_route,
                                   with_diagnostics=False)[2].point
    if name == "s_learner":
        return lambda d: s_learner(d, learner, mode, umlr_route,
                                   with_diagnostics=False)[1].point
    if name == "x_learner":
        def _x(d):
            prop = fit_propensity(d.X, d.t, l2=propensity_l2, clip=clip)
            return x_learner(d, learner, mode, prop, umlr_route,
                             with_diagnostics=False).point
        return _x
    if name == "aipw":
        def _a(d):
            m0, m1, _ = t_learner(d, learner, mode, umlr_route,
                                  with_diagnostics=False)
            prop = fit_propensity(d.X, d.t, l2=propensity_l2, clip=clip)
            return aipw(d, m0, m1, prop, mode=mode).point
        return _a
    if name == "psm_att":
        def _p(d):
            prop = fit_propensity(d.X, d.t, l2=propensity_l2, clip=clip)
            return psm_att(d, prop).point
        return _p
    raise InvalidInputError(f"unknown estimator {name!r}")


def _replicate_task(dgp: DgpConfig, learner: LearnerConfig, scenario, r: int,
                    B: int, level: float, propensity_l2: float, folds: int,
                    collect_slopes: bool, umlr_route: str, ci_method: str, clip):
    rep = generate_replicate(dgp, r)
    out = []
    for k, (name, mode) in enumerate(scenario):
        row = {"rep": r, "estimator": name, "mode": mode, "true_ate": rep.true_ate,
               "point": None, "ci_low": None, "ci_high": None, "error": None,
               "slope_out_1": None, "slope_out_0": None}
        try:
            if name == "dml":
                est = dml(rep.data, learner, mode, folds=folds, l2=propensity_l2,
                          clip=clip, level=level, umlr_route=umlr_route)
                row["point"] = est.point
                row["ci_low"], row["ci_high"] = est.ci_low, est.ci_high
            else:
                closure = _point_closure(name, mode, learner, propensity_l2, folds,
                                         umlr_route, clip)
                if collect_slopes and name == "t_learner":
                    m0, m1, est = t_learner(rep.data, learner, mode, umlr_route)
                    row["point"] = est.point
                    try:
                        slopes = counterfactual_slopes(
                            rep.data, rep.mu0_star, rep.mu1_star, m0, m1
                        )
                        row["slope_out_1"] = slopes.eta_1_0
                        row["slope_out_0"] = slopes.eta_0_1
                    except UmlrError:
                        pass
                else:
                    row["point"] = closure(rep.data)
                if B > 0:
                    ci_seed = ((dgp.seed + 1) * 1_000_003 + r) * 131 + k
                    lo, hi = bootstrap_ci(rep.data, closure, B=B, level=level,
                                          seed=ci_seed, method=ci_method,
                                          center=row["point"])
                    row["ci_low"] = min(lo, row["point"])
                    row["ci_high"] = max(hi, row["point"])
        except UmlrError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        out.append(row)
    return out


def run_monte_carlo(dgp: DgpConfig, learner: LearnerConfig, scenario,
                    reps: int, B: int = 200, level: float = 0.95,
                    propensity_l2: float = 1.0, folds: int = 5,
                    workers: int = 1, collect_slopes: bool = False,
                    return_records: bool = False, umlr_route: str = "auto",
                    ci_method: str = "normal", clip=DEFAULT_CLIP):
    """Generate-fit-estimate loop over ``reps`` replicates.

    ``scenario`` is a list of (estimator_name, mode) pairs evaluated on the
    same replicates. Replicates are independent and may run on several
    worker threads; per-replicate seeds are derived from (seed, index) and
    aggregation runs in index order, so results are identical for any
    ``workers`` value. Set ``B = 0`` to skip bootstrap intervals (DML keeps
    its analytic interval). ``clip`` bounds every fitted propensity score,
    in the point estimates and in the bootstrap refits alike.

    Intervals default to the normal-approximation bootstrap
    (``ci_method="normal"``): regularized fits grow extra shrinkage bias
    under row duplication, which shifts the whole resampling distribution
    and makes percentile intervals systematically miss; the normal form
    stays centered on the point estimate.
    """
    if reps < 10:
        raise InvalidInputError("need reps >= 10")
    check_clip(clip)
    scenario = [tuple(sc) for sc in scenario]
    for name, mode in scenario:
        if name not in ESTIMATOR_NAMES:
            raise InvalidInputError(f"unknown estimator {name!r}")
        if mode not in ("mlr", "umlr"):
            raise InvalidInputError(f"unknown mode {mode!r}")

    task = lambda r: _replicate_task(dgp, learner, scenario, r, B, level,
                                     propensity_l2, folds, collect_slopes,
                                     umlr_route, ci_method, clip)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_rep = list(pool.map(task, range(reps)))
    else:
        per_rep = [task(r) for r in range(reps)]

    records = [row for rep_rows in per_rep for row in rep_rows]
    summaries = []
    for k, (name, mode) in enumerate(scenario):
        rows = [per_rep[r][k] for r in range(reps)]
        ok = [row for row in rows if row["error"] is None]
        n_failed = reps - len(ok)
        if not ok:
            summaries.append(McSummary(estimator=name, mode=mode, reps=reps,
                                       bias_pct_abs=math.nan, bias_pct_signed=math.nan,
                                       rmse=math.nan, coverage=None, mc_se=math.nan,
                                       n_failed=n_failed, valid=False))
            continue
        err = np.array([row["point"] - row["true_ate"] for row in ok])
        rel = np.array([
            (row["point"] - row["true_ate"]) / row["true_ate"] for row in ok
        ]) * 100.0
        with_ci = [row for row in ok if row["ci_low"] is not None]
        coverage = None
        if with_ci:
            coverage = float(np.mean([
                row["ci_low"] <= row["true_ate"] <= row["ci_high"] for row in with_ci
            ]))
        slopes1 = [row["slope_out_1"] for row in ok if row["slope_out_1"] is not None]
        slopes0 = [row["slope_out_0"] for row in ok if row["slope_out_0"] is not None]
        summaries.append(McSummary(
            estimator=name,
            mode=mode,
            reps=reps,
            bias_pct_abs=float(np.mean(np.abs(rel))),
            bias_pct_signed=float(np.mean(rel)),
            rmse=float(np.sqrt(np.mean(err**2))),
            coverage=coverage,
            mc_se=float(np.std(rel, ddof=1) / np.sqrt(len(rel))) if len(rel) > 1 else math.nan,
            n_failed=n_failed,
            valid=n_failed <= 0.05 * reps,
            slope_out_1=float(np.mean(slopes1)) if slopes1 else None,
            slope_out_0=float(np.mean(slopes0)) if slopes0 else None,
        ))
    if return_records:
        return summaries, records
    return summaries


# ---------------------------------------------------------------------------
# oracle studies
# ---------------------------------------------------------------------------

def shrinkage_oracle_study(dgp: DgpConfig, reps: int, eta_in: float,
                           eta_out: float, w: float) -> dict[str, np.ndarray]:
    """Per-replicate plug-in ATE bias under injected shrinkage, the matching
    closed-form value (from realized sample strata), and the oracle-propensity
    AIPW bias. Arrays are aligned by replicate index."""
    or_bias = np.empty(reps)
    closed = np.empty(reps)
    aipw_bias = np.empty(reps)
    for r in range(reps):
        rep = generate_replicate(dgp, r)
        mu0_hat, mu1_hat = inject_spb(rep, eta_in, eta_out, w)
        point = outcome_regression_ate(rep.data, mu0_hat, mu1_hat)
        or_bias[r] = point - rep.true_ate
        t = rep.data.t
        inputs = BiasInputs(
            pi=float(np.mean(t)),
            eta_1_0=eta_out,
            eta_0_1=eta_out,
            w1=w,
            w0=w,
            mu1_in=float(rep.mu1_star[t == 1].mean()),
            mu1_out=float(rep.mu1_star[t == 0].mean()),
            mu0_in=float(rep.mu0_star[t == 0].mean()),
            mu0_out=float(rep.mu0_star[t == 1].mean()),
        )
        closed[r] = shrinkage_ate_bias(inputs)
        aipw_bias[r] = aipw(rep.data, mu0_hat, mu1_hat, rep.e_star).point - rep.true_ate
    return {"or_bias": or_bias, "closed_form": closed, "aipw_bias": aipw_bias}


def default_sweep_learner(n: int, p: int, sigma: float) -> LearnerConfig:
    """Lasso with a noise-scaled universal penalty for the nuisance sweep."""
    n_arm = max(n // 2, 2)
    lam = sigma * math.sqrt(2.0 * math.log(max(p, 2)) / n_arm)
    return LearnerConfig(kind="lasso", lam=lam)


@dataclass(frozen=True)
class SweepCell:
    n: int
    sigma: float
    variant: str
    mean_bias: float
    mc_se: float
    reps: int


def aipw_oracle_sweep(n_grid, sigma_grid, template: DgpConfig, reps: int,
                      variants=("aipw_oracle_mlr", "po_mean_oracle"),
                      learner_rule=default_sweep_learner) -> list[SweepCell]:
    """Oracle-propensity AIPW bias across sample sizes and noise levels.

    Outcome nuisances are fit in-sample on each arm (no cross-fitting), so
    the finite-sample bias induced by shrinkage-biased outcome models is
    isolated from propensity estimation error. Variants:

    - ``aipw_oracle_mlr``: plain nuisance fits from ``learner_rule``;
    - ``aipw_oracle_umlr``: mean-anchored nuisance fits; least squares with
      an affine anchoring layer when the arm is comfortably overdetermined,
      otherwise the anchored ``learner_rule`` fit;
    - ``po_mean_oracle``: difference of potential-outcome means (the
      randomized-benchmark reference, identically unbiased under shared
      noise).
    """
    if not n_grid or not sigma_grid:
        raise InvalidInputError("n_grid and sigma_grid must be nonempty")
    known = {"aipw_oracle_mlr", "aipw_oracle_umlr", "po_mean_oracle"}
    for v in variants:
        if v not in known:
            raise InvalidInputError(f"unknown sweep variant {v!r}")
    cells = []
    for n in n_grid:
        for sigma in sigma_grid:
            cfg = replace(template, n=n, sigma=sigma)
            learner = learner_rule(n, cfg.p, sigma)
            bias = {v: [] for v in variants}
            for r in range(reps):
                rep = generate_replicate(cfg, r)
                t = rep.data.t
                ctrl, trt = t == 0, t == 1
                for v in variants:
                    if v == "po_mean_oracle":
                        point = float(np.mean(rep.y1 - rep.y0))
                    else:
                        mode_umlr = v.endswith("umlr")
                        preds = []
                        for rows in (ctrl, trt):
                            Xa, ya = rep.data.X[rows], rep.data.y[rows]
                            if mode_umlr:
                                split = partition_by_mean(ya)
                                if Xa.shape[0] > cfg.p + 2:
                                    base = fit(LearnerConfig(kind="ridge", lam=0.0),
                                               Xa, ya)
                                else:
                                    base = fit(learner, Xa, ya)
                                model = anchor_recalibrate(base, Xa, ya, split)
                            else:
                                model = fit(learner, Xa, ya)
                            preds.append(model.predict(rep.data.X))
                        point = aipw(rep.data, preds[0], preds[1], rep.e_star).point
                    bias[v].append(point - rep.true_ate)
            for v in variants:
                arr = np.asarray(bias[v])
                cells.append(SweepCell(
                    n=n, sigma=sigma, variant=v,
                    mean_bias=float(arr.mean()),
                    mc_se=float(arr.std(ddof=1) / np.sqrt(reps)),
                    reps=reps,
                ))
    return cells
