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
from dataclasses import asdict, dataclass, replace

import numpy as np

from .core import Dataset
from .diagnostics import BiasInputs, counterfactual_slopes, shrinkage_ate_bias
from .errors import (
    InvalidInputError,
    UmlrError,
    check_choice,
    check_count,
    check_nonnegative,
    check_unit,
)
from .estimators import (
    CI_METHODS,
    DEFAULT_CLIP,
    ESTIMATORS,
    EstimatorSpec,
    Nuisances,
    _expit,
    aipw,
    bootstrap_ci,  # unused here; bench/tests checks the tracer reaches this binding
    bootstrap_interval,
    check_bootstrap,
    outcome_regression_ate,
    resampled_points,
)
from .learners import LearnerConfig

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
        check_count("n", self.n, 20)
        check_count("s", self.s, 1)
        check_count("p", self.p, self.s)
        if self.effect_scale != 0.0 and 2 * self.s > self.p:
            raise InvalidInputError("heterogeneous effects need 2*s <= p")
        check_nonnegative("sigma", self.sigma)
        for key in ("mu1", "mu0", "beta_scale", "gamma_scale", "effect_scale"):
            if not math.isfinite(getattr(self, key)):
                raise InvalidInputError(f"{key!r} must be finite; got {getattr(self, key)!r}")
        check_count("seed", self.seed, 0)
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


def generate_replicate(cfg: DgpConfig, rep_index: int) -> SimReplicate:
    """Draw one replicate; a pure function of (cfg.seed, rep_index)."""
    check_count("rep_index", rep_index, 0)
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


def _check_spb(eta_in: float, eta_out: float, w: float) -> None:
    check_unit("eta_in", eta_in, "[]")
    check_unit("eta_out", eta_out, "[]")
    check_unit("w", w, "(]")


def inject_spb(rep: SimReplicate, eta_in: float, eta_out: float, w: float):
    """Oracle prediction vectors following the linear-shrinkage model exactly.

    Each arm's "model" predicts eta_in * mu_t*(X) + (1 - eta_in) * (own-arm
    mean) on its own arm, and eta_out * mu_t*(X) + (1 - eta_out) * target on
    the opposite arm, with target = w * (training-arm mean) +
    (1 - w) * (opposite-arm mean). Returns (mu0_hat, mu1_hat).
    """
    _check_spb(eta_in, eta_out, w)
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
        return asdict(self)


def _replicate_task(dgp: DgpConfig, cells, r: int, B: int, ci_method: str,
                    collect_slopes: bool):
    rep = generate_replicate(dgp, r)
    nuis = Nuisances(rep.data)  # shared by every point estimate of the replicate
    rows, ests = [], []
    for name, spec, entry in cells:
        row = {"rep": r, "estimator": name, "mode": spec.mode, "true_ate": rep.true_ate,
               "point": None, "ci_low": None, "ci_high": None, "error": None,
               "slope_out_1": None, "slope_out_0": None, "n_boot_failed": None}
        est = None
        try:
            est = entry.run(rep.data, spec, nuis)
            row["point"], row["ci_low"], row["ci_high"] = est.point, est.ci_low, est.ci_high
            if collect_slopes and name == "t_learner":
                m0, m1 = (nuis.model(spec.learner, spec.mode, spec.umlr_route, ("arm", arm))
                          for arm in (0, 1))
                try:
                    slopes = counterfactual_slopes(rep.data, rep.mu0_star, rep.mu1_star,
                                                   m0, m1)
                    row["slope_out_1"], row["slope_out_0"] = slopes.eta_1_0, slopes.eta_0_1
                except UmlrError:
                    pass
        except UmlrError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
        ests.append(est)
    if B == 0:
        return rows
    # every bootstrapped cell draws one resample stream (see run_monte_carlo)
    # and a cell failing on a resample loses only its own point
    ks = [k for k, (_, _, entry) in enumerate(cells) if not entry.analytic_interval]
    live = [k for k in ks if ests[k] is not None]
    if not live:
        return rows
    ci_seed = ((dgp.seed + 1) * 1_000_003 + r) * 131 + ks[0]
    points, failures = resampled_points(rep.data, [(cells[k][2], cells[k][1]) for k in live],
                                        B, ci_seed)
    for k, pts, failed in zip(live, points, failures):
        rows[k]["n_boot_failed"] = sum(failed.values())  # resamples lost, by any error
        level, point = cells[k][1].level, ests[k].point
        try:
            interval = bootstrap_interval(pts, B, level, ci_method, lambda: point)
            est = ests[k].with_interval(*interval, level)
            rows[k]["ci_low"], rows[k]["ci_high"] = est.ci_low, est.ci_high
        except UmlrError as exc:
            rows[k]["error"] = f"{type(exc).__name__}: {exc}"
    return rows


def run_monte_carlo(dgp: DgpConfig, learner: LearnerConfig, scenario,
                    reps: int, B: int = 200, level: float = 0.95,
                    propensity_l2: float = 1.0, folds: int = 5,
                    workers: int = 1, collect_slopes: bool = False,
                    return_records: bool = False, umlr_route: str = "auto",
                    ci_method: str = "normal", clip=DEFAULT_CLIP):
    """Generate-fit-estimate loop over ``reps`` replicates.

    ``scenario`` is a list of (estimator_name, mode) pairs evaluated on the
    same replicates; each must be a name and mode that
    :data:`~umlr.estimators.ESTIMATORS` registers (``psm_att`` runs in
    ``mlr`` mode only). Replicates are independent and may run on several
    worker threads; per-replicate seeds are derived from (seed, index) and
    aggregation runs in index order, so results are identical for any
    ``workers`` value. Set ``B = 0`` to skip bootstrap intervals (DML keeps
    its analytic interval), or ``B >= 50``; every knob is checked before the
    first replicate. ``clip`` bounds every fitted propensity score, in the
    point estimates and in the bootstrap refits alike.

    Bootstrapped cells are paired as ``umlr estimate`` pairs its rows: all
    those of a replicate draw the resample stream of the first bootstrapped
    cell in ``scenario``, and :func:`~umlr.estimators.resampled_points`
    evaluates them together on one memo, so cells that ask for the same arm
    or propensity fit of a resample get one fit: ridge s/t/x/aipw cells a
    chunk of resamples at a time through the count kernels, the others one
    resample at a time. A cell that fails on a resample loses only its own
    point, each cell's interval is refused on its own, and its record's
    ``n_boot_failed`` counts the resamples it lost (None when the cell is
    not bootstrapped).

    Intervals default to the normal-approximation bootstrap
    (``ci_method="normal"``): regularized fits grow extra shrinkage bias
    under row duplication, which shifts the whole resampling distribution
    and makes percentile intervals systematically miss; the normal form
    stays centered on the point estimate.
    """
    check_count("reps", reps, 10)
    check_count("workers", workers, 1)
    check_count("B", B, 0)
    check_choice("ci_method", ci_method, CI_METHODS)
    cells = []
    for name, mode in scenario:
        spec = EstimatorSpec(learner, mode, umlr_route, propensity_l2, clip, folds, level)
        entry = ESTIMATORS.get(name)
        if entry is None or mode not in entry.modes:
            raise InvalidInputError(f"no registered estimator {name!r} runs in mode {mode!r}")
        cells.append((name, spec, entry))
    if B > 0 and not all(entry.analytic_interval for _, _, entry in cells):
        check_bootstrap(B, level, ci_method)

    task = lambda r: _replicate_task(dgp, cells, r, B, ci_method, collect_slopes)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_rep = list(pool.map(task, range(reps)))
    else:
        per_rep = [task(r) for r in range(reps)]

    records = [row for rep_rows in per_rep for row in rep_rows]
    summaries = []
    for k, (name, spec, _) in enumerate(cells):
        mode = spec.mode
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
    check_count("reps", reps, 1)
    _check_spb(eta_in, eta_out, w)
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
                      variants=("aipw_oracle_mlr", "po_mean_oracle")) -> list[SweepCell]:
    """Oracle-propensity AIPW bias across sample sizes and noise levels.

    Outcome nuisances are fit in-sample on each arm (no cross-fitting), so
    the finite-sample bias induced by shrinkage-biased outcome models is
    isolated from propensity estimation error. Variants:

    - ``aipw_oracle_mlr``: plain nuisance fits of
      :func:`default_sweep_learner`;
    - ``aipw_oracle_umlr``: mean-anchored nuisance fits; least squares with
      an affine anchoring layer when the arm is comfortably overdetermined,
      otherwise the anchored :func:`default_sweep_learner` fit;
    - ``po_mean_oracle``: difference of potential-outcome means (the
      randomized-benchmark reference, identically unbiased under shared
      noise).
    """
    if not n_grid or not sigma_grid:
        raise InvalidInputError("n_grid and sigma_grid must be nonempty")
    check_count("reps", reps, 2)  # mc_se takes the sd with ddof=1
    for v in variants:
        check_choice("variant", v, ("aipw_oracle_mlr", "aipw_oracle_umlr", "po_mean_oracle"))
    ols = LearnerConfig(kind="ridge", lam=0.0)
    cells = []
    for n in n_grid:
        for sigma in sigma_grid:
            cfg = replace(template, n=n, sigma=sigma)
            learner = default_sweep_learner(n, cfg.p, sigma)
            bias = {v: [] for v in variants}
            for r in range(reps):
                rep = generate_replicate(cfg, r)
                nuis = Nuisances(rep.data)  # shared by the variants of the replicate
                for v in variants:
                    if v == "po_mean_oracle":
                        point = float(np.mean(rep.y1 - rep.y0))
                    else:
                        mode = "umlr" if v.endswith("umlr") else "mlr"
                        preds = []
                        for arm in (0, 1):
                            n_arm = np.count_nonzero(rep.data.t == arm)
                            overdetermined = mode == "umlr" and n_arm > cfg.p + 2
                            preds.append(nuis.predictions(ols if overdetermined else learner,
                                                          mode, "anchored", ("arm", arm)))
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
