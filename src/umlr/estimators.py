"""Average-treatment-effect estimators.

Outcome-regression meta-learners (S/T/X), augmented inverse-probability
weighting, cross-fitted double machine learning, and a propensity-matching
ATT benchmark. Every estimator works in ``mlr`` mode (plain fits) or
``umlr`` mode (mean-anchored fits); the X-learner anchors its stage-1
outcome models only, since stage-2 models target pseudo-outcomes rather
than the observed outcome.

Point estimators are pure functions of (data, config); confidence intervals
come from the case-resampling bootstrap (:func:`bootstrap_ci`, percentile or
normal form), except DML, which carries an analytic influence-function
interval.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, replace

import numpy as np

from .core import Dataset, partition_by_mean
from .diagnostics import SpbReport, evaluate_predictions
from .errors import (
    ConvergenceError,
    DivisionGuardError,
    InvalidInputError,
    NoMatchesError,
    ResamplingError,
    UmlrError,
    UndefinedSlopeError,
    UnstableBootstrapError,
)
from .learners import FittedModel, LearnerConfig, anchor_recalibrate, fit, fit_constrained_linear

__all__ = [
    "AteEstimate",
    "PropensityModel",
    "fit_propensity",
    "outcome_regression_ate",
    "t_learner",
    "s_learner",
    "x_learner",
    "aipw",
    "aipw_scores",
    "dml",
    "psm_att",
    "bootstrap_ci",
]

DEFAULT_CLIP = (0.01, 0.99)


@dataclass(frozen=True)
class AteEstimate:
    """Point estimate with optional interval and component diagnostics.

    ``psm_att`` rows estimate the ATT, not the ATE; report layers must not
    average them together.
    """

    point: float
    estimator: str
    mode: str = "mlr"
    ci_low: float | None = None
    ci_high: float | None = None
    level: float = 0.95
    n_used: int = 0
    diagnostics: dict[str, SpbReport] | None = field(default=None)

    def __post_init__(self):
        if not 0 < self.level < 1:
            raise InvalidInputError("level must lie in (0, 1)")
        if (self.ci_low is None) != (self.ci_high is None):
            raise InvalidInputError("ci_low and ci_high must be set together")
        if self.ci_low is not None and self.ci_low > self.ci_high:
            raise InvalidInputError("ci_low must not exceed ci_high")

    def with_interval(self, lo: float, hi: float) -> "AteEstimate":
        """Attach an interval, widened if needed so it contains the point."""
        return replace(self, ci_low=min(lo, self.point), ci_high=max(hi, self.point))


# ---------------------------------------------------------------------------
# propensity model
# ---------------------------------------------------------------------------

def _expit(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def check_clip(clip) -> None:
    """Reject propensity clipping bounds outside 0 < lo < hi < 1."""
    lo, hi = clip
    if not 0 < lo < hi < 1:
        raise InvalidInputError("clip bounds must satisfy 0 < lo < hi < 1")


@dataclass(frozen=True)
class PropensityModel:
    """L2-penalized logistic model of treatment given covariates."""

    coef: np.ndarray
    intercept: float
    clip: tuple[float, float] = DEFAULT_CLIP

    def __post_init__(self):
        check_clip(self.clip)

    def logit(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return self.intercept + X @ self.coef

    def predict_proba(self, X) -> np.ndarray:
        return np.clip(_expit(self.logit(X)), self.clip[0], self.clip[1])


def fit_propensity(X, t, l2: float = 1.0, clip=DEFAULT_CLIP,
                   max_iter: int = 100, grad_tol: float = 1e-8) -> PropensityModel:
    """Damped-Newton fit of a logistic propensity model.

    The intercept is unpenalized. With ``l2 = 0`` and separable classes the
    likelihood has no maximizer and a :class:`ConvergenceError` is raised;
    pass ``l2 > 0``.
    """
    X = np.asarray(X, dtype=float)
    t = np.asarray(t, dtype=float)
    if X.ndim != 2 or t.ndim != 1 or t.shape[0] != X.shape[0]:
        raise InvalidInputError("X must be (n, p) and t length n")
    if l2 < 0:
        raise InvalidInputError("l2 must be >= 0")
    classes = np.unique(t)
    if not np.all(np.isin(classes, (0.0, 1.0))) or classes.size < 2:
        raise InvalidInputError("t must contain both classes 0 and 1")
    n, p = X.shape
    D = np.column_stack([np.ones(n), X])
    theta = np.zeros(p + 1)
    pen = np.zeros(p + 1)
    pen[1:] = l2

    def objective(th):
        z = D @ th
        return float(np.logaddexp(0.0, z).sum() - t @ z + 0.5 * pen @ th**2)

    obj = objective(theta)
    for _ in range(max_iter):
        z = D @ theta
        prob = _expit(z)
        grad = D.T @ (prob - t) + pen * theta
        if np.max(np.abs(grad)) < grad_tol:
            separated = np.all((2.0 * t - 1.0) * z > 0) and np.max(np.abs(z)) > 10.0
            if l2 == 0.0 and separated:
                # saturated logits silence the gradient under separation;
                # without a penalty there is no finite maximizer
                raise ConvergenceError(
                    "classes are separable and l2 = 0 has no finite optimum "
                    "(try l2 > 0)"
                )
            return PropensityModel(coef=theta[1:].copy(), intercept=float(theta[0]), clip=clip)
        w = prob * (1.0 - prob)
        H = D.T @ (D * w[:, None]) + np.diag(pen)
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"logistic Newton step failed: {exc}") from exc
        scale = 1.0
        for _ in range(50):
            cand = theta - scale * step
            cand_obj = objective(cand)
            if cand_obj <= obj + 1e-12 * abs(obj):
                theta, obj = cand, cand_obj
                break
            scale *= 0.5
        else:
            break
    raise ConvergenceError(
        "logistic fit did not converge; data may be separable with l2 = 0 "
        "(try l2 > 0)"
    )


# ---------------------------------------------------------------------------
# outcome-regression machinery
# ---------------------------------------------------------------------------

def _fit_arm(cfg: LearnerConfig, mode: str, X: np.ndarray, y: np.ndarray,
             umlr_route: str = "auto") -> FittedModel:
    if mode == "mlr":
        return fit(cfg, X, y)
    if mode != "umlr":
        raise InvalidInputError(f"mode must be 'mlr' or 'umlr', got {mode!r}")
    if umlr_route not in ("auto", "constrained", "anchored"):
        raise InvalidInputError(f"unknown umlr_route {umlr_route!r}")
    split = partition_by_mean(y)
    route = umlr_route
    if route == "auto":
        route = "constrained" if cfg.kind in ("ridge", "lasso") else "anchored"
    if route == "constrained":
        return fit_constrained_linear(cfg, X, y, split)
    return anchor_recalibrate(fit(cfg, X, y), X, y, split)


def _min_arm_size(cfg: LearnerConfig) -> int:
    return max(5, cfg.min_leaf) if cfg.kind == "gbt" else 5


def _check_arms(data: Dataset, cfg: LearnerConfig) -> tuple[np.ndarray, np.ndarray]:
    control = data.arm_indices(0)
    treated = data.arm_indices(1)
    need = _min_arm_size(cfg)
    if treated.size < need or control.size < need:
        raise InvalidInputError(
            f"each arm needs >= {need} units; got {treated.size} treated, {control.size} control"
        )
    return control, treated


def _safe_report(y, y_hat) -> SpbReport | None:
    try:
        return evaluate_predictions(y, y_hat)
    except (UndefinedSlopeError, InvalidInputError):
        return None


def _predictions(mu, data: Dataset) -> np.ndarray:
    """Accept a fitted model or a precomputed per-unit prediction vector."""
    if hasattr(mu, "predict"):
        return mu.predict(data.X)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (data.n,):
        raise InvalidInputError(f"prediction vector must have length {data.n}")
    return mu


def outcome_regression_ate(data: Dataset, mu0, mu1) -> float:
    """Plug-in ATE: average of mu1(X_i) - mu0(X_i) over all units."""
    return float(np.mean(_predictions(mu1, data) - _predictions(mu0, data)))


def t_learner(data: Dataset, cfg: LearnerConfig, mode: str = "mlr",
              umlr_route: str = "auto", with_diagnostics: bool = True):
    """Per-arm outcome models; returns (model0, model1, estimate).

    In umlr mode each arm is anchored on its own outcome split;
    ``umlr_route`` picks exact constrained optimization ("constrained",
    the default for linear kinds) or the affine recalibration layer
    ("anchored", always used for gbt).
    """
    control, treated = _check_arms(data, cfg)
    model0 = _fit_arm(cfg, mode, data.X[control], data.y[control], umlr_route)
    model1 = _fit_arm(cfg, mode, data.X[treated], data.y[treated], umlr_route)
    point = outcome_regression_ate(data, model0, model1)
    diag = None
    if with_diagnostics:
        diag = {
            "mu0": _safe_report(data.y[control], model0.predict(data.X[control])),
            "mu1": _safe_report(data.y[treated], model1.predict(data.X[treated])),
        }
    est = AteEstimate(point=point, estimator="t_learner", mode=mode,
                      n_used=data.n, diagnostics=diag)
    return model0, model1, est


def _augment(X: np.ndarray, t_col: np.ndarray) -> np.ndarray:
    return np.column_stack([X, t_col])


def s_learner(data: Dataset, cfg: LearnerConfig, mode: str = "mlr",
              umlr_route: str = "auto", with_diagnostics: bool = True):
    """Single model on [X, t] with a full-sample anchoring split in umlr
    mode; returns (model, estimate)."""
    _check_arms(data, cfg)
    Xa = _augment(data.X, data.t.astype(float))
    model = _fit_arm(cfg, mode, Xa, data.y, umlr_route)
    pred1 = model.predict(_augment(data.X, np.ones(data.n)))
    pred0 = model.predict(_augment(data.X, np.zeros(data.n)))
    point = float(np.mean(pred1 - pred0))
    diag = {"mu": _safe_report(data.y, model.predict(Xa))} if with_diagnostics else None
    est = AteEstimate(point=point, estimator="s_learner", mode=mode,
                      n_used=data.n, diagnostics=diag)
    return model, est


def x_learner(data: Dataset, cfg: LearnerConfig, mode: str, prop: PropensityModel,
              umlr_route: str = "auto", with_diagnostics: bool = True) -> AteEstimate:
    """Two-stage pseudo-outcome learner with propensity-weighted blending.

    Anchoring applies to the stage-1 outcome models only; stage-2 models
    target pseudo-outcomes, not the observed outcome.
    """
    control, treated = _check_arms(data, cfg)
    model0 = _fit_arm(cfg, mode, data.X[control], data.y[control], umlr_route)
    model1 = _fit_arm(cfg, mode, data.X[treated], data.y[treated], umlr_route)
    d_treated = data.y[treated] - model0.predict(data.X[treated])
    d_control = model1.predict(data.X[control]) - data.y[control]
    tau1 = fit(cfg, data.X[treated], d_treated)
    tau0 = fit(cfg, data.X[control], d_control)
    e = prop.predict_proba(data.X)
    tau = e * tau0.predict(data.X) + (1.0 - e) * tau1.predict(data.X)
    diag = None
    if with_diagnostics:
        diag = {
            "mu0": _safe_report(data.y[control], model0.predict(data.X[control])),
            "mu1": _safe_report(data.y[treated], model1.predict(data.X[treated])),
        }
    return AteEstimate(point=float(np.mean(tau)), estimator="x_learner", mode=mode,
                       n_used=data.n, diagnostics=diag)


# ---------------------------------------------------------------------------
# doubly robust estimators
# ---------------------------------------------------------------------------

def _propensities(prop, data: Dataset) -> np.ndarray:
    if isinstance(prop, PropensityModel):
        return prop.predict_proba(data.X)
    e = np.asarray(prop, dtype=float)
    if e.shape != (data.n,):
        raise InvalidInputError(f"propensity vector must have length {data.n}")
    if np.any(e <= 0.0) or np.any(e >= 1.0):
        raise DivisionGuardError("propensities must lie strictly inside (0, 1)")
    return e


def aipw_scores(data: Dataset, mu0, mu1, prop) -> np.ndarray:
    """Per-unit augmented IPW scores whose mean is the AIPW estimate."""
    m0 = _predictions(mu0, data)
    m1 = _predictions(mu1, data)
    e = _propensities(prop, data)
    t = data.t.astype(float)
    return (
        m1 - m0
        + t * (data.y - m1) / e
        - (1.0 - t) * (data.y - m0) / (1.0 - e)
    )


def aipw(data: Dataset, mu0, mu1, prop, mode: str = "mlr") -> AteEstimate:
    """Augmented IPW point estimate from given outcome models/predictions and
    a propensity model or oracle propensity vector."""
    scores = aipw_scores(data, mu0, mu1, prop)
    return AteEstimate(point=float(np.mean(scores)), estimator="aipw", mode=mode,
                       n_used=data.n)


def _canonical_order(data: Dataset) -> np.ndarray:
    """Row order determined by content only, so fold assignment is invariant
    to permutations of the input rows."""
    keys = [data.X[:, j] for j in range(data.p - 1, -1, -1)]
    keys.append(data.y)
    keys.append(data.t)
    return np.lexsort(keys)


def dml(data: Dataset, cfg: LearnerConfig, mode: str = "mlr", folds: int = 5,
        l2: float = 1.0, clip=DEFAULT_CLIP, level: float = 0.95,
        e_oracle=None, mu_oracle=None, umlr_route: str = "auto") -> AteEstimate:
    """K-fold cross-fitted AIPW with an analytic influence-function interval.

    Folds are dealt round-robin within each arm along a canonical row order,
    so the estimate does not depend on how the input rows were arranged.
    ``e_oracle`` (per-unit propensities) and ``mu_oracle`` (pair of per-unit
    oracle outcome-surface vectors) bypass nuisance fitting when supplied.
    """
    if folds < 2:
        raise InvalidInputError("cross-fitting needs folds >= 2")
    if folds > data.n:
        raise InvalidInputError("more folds than units")
    order = _canonical_order(data)
    fold_of = np.empty(data.n, dtype=np.int64)
    offset = 0
    for arm in (0, 1):
        arm_rows = order[data.t[order] == arm]
        # per-arm offset keeps folds evenly filled (folds = n is leave-one-out)
        fold_of[arm_rows] = (np.arange(arm_rows.size) + offset) % folds
        offset += arm_rows.size
    e_all = None if e_oracle is None else _propensities(e_oracle, data)
    m_all = None
    if mu_oracle is not None:
        m_all = (_predictions(mu_oracle[0], data), _predictions(mu_oracle[1], data))

    scores = np.empty(data.n)
    for k in range(folds):
        test = fold_of == k
        if not np.any(test):
            continue
        train = ~test
        t_train = data.t[train]
        if np.count_nonzero(t_train == 0) < 2 or np.count_nonzero(t_train == 1) < 2:
            raise ResamplingError(
                f"training part of fold {k} has fewer than 2 units in an arm"
            )
        test_data = data.subset(np.flatnonzero(test))
        if m_all is not None:
            m0, m1 = m_all[0][test], m_all[1][test]
        else:
            X_tr, y_tr = data.X[train], data.y[train]
            ctrl = t_train == 0
            model0 = _fit_arm(cfg, mode, X_tr[ctrl], y_tr[ctrl], umlr_route)
            model1 = _fit_arm(cfg, mode, X_tr[~ctrl], y_tr[~ctrl], umlr_route)
            m0 = model0.predict(test_data.X)
            m1 = model1.predict(test_data.X)
        if e_all is not None:
            e = e_all[test]
        else:
            e = fit_propensity(data.X[train], t_train, l2=l2, clip=clip).predict_proba(
                test_data.X
            )
        scores[test] = aipw_scores(test_data, m0, m1, e)

    point = float(np.mean(scores))
    se = float(np.std(scores, ddof=1) / np.sqrt(data.n))
    z = statistics.NormalDist().inv_cdf(0.5 + level / 2.0)
    est = AteEstimate(point=point, estimator="dml", mode=mode, level=level,
                      n_used=data.n)
    return est.with_interval(point - z * se, point + z * se)


# ---------------------------------------------------------------------------
# propensity-score matching benchmark
# ---------------------------------------------------------------------------

def psm_att(data: Dataset, prop, caliper: float = 0.2) -> AteEstimate:
    """Greedy 1:1 nearest-neighbor matching on the propensity logit, without
    replacement, caliper = ``caliper`` x sd(logit). Estimates the ATT.

    Treated units are matched in descending propensity order, ties broken by
    original index; equidistant controls resolve to the lower original index.
    """
    treated = data.arm_indices(1)
    if treated.size == 0:
        raise InvalidInputError("no treated units to match")
    control = data.arm_indices(0)
    if control.size == 0:
        raise NoMatchesError("no control units available")
    e = _propensities(prop, data)
    logit = np.log(e / (1.0 - e))
    cal = caliper * float(np.std(logit))

    t_order = treated[np.lexsort((treated, -logit[treated]))]
    c_order = control[np.lexsort((control, logit[control]))]
    c_logit = logit[c_order]
    m = c_order.size
    # doubly linked alive-list over sorted controls
    nxt = np.arange(1, m + 1)
    prv = np.arange(-1, m)

    def remove(i: int):
        if prv[i] >= 0:
            nxt[prv[i]] = nxt[i]
        if nxt[i] < m:
            prv[nxt[i]] = prv[i]

    pairs = []
    removed = np.zeros(m, dtype=bool)
    for ti in t_order:
        target = logit[ti]
        pos = int(np.searchsorted(c_logit, target))
        # nearest alive on each side
        right = pos
        while right < m and removed[right]:
            right = nxt[right]
        left = pos - 1
        while left >= 0 and removed[left]:
            left = prv[left]
        best = -1
        if left >= 0 and right < m:
            d_left = abs(target - c_logit[left])
            d_right = abs(c_logit[right] - target)
            if d_left < d_right:
                best = left
            elif d_right < d_left:
                best = right
            else:
                best = left if c_order[left] < c_order[right] else right
        elif left >= 0:
            best = left
        elif right < m:
            best = right
        if best < 0:
            continue
        if abs(c_logit[best] - target) > cal:
            continue
        removed[best] = True
        remove(best)
        pairs.append((ti, c_order[best]))

    if not pairs:
        raise NoMatchesError("no treated unit found a control within the caliper")
    diffs = [data.y[ti] - data.y[ci] for ti, ci in pairs]
    return AteEstimate(point=float(np.mean(diffs)), estimator="psm_att", mode="mlr",
                       n_used=2 * len(pairs))


# ---------------------------------------------------------------------------
# bootstrap confidence intervals
# ---------------------------------------------------------------------------

def bootstrap_ci(data: Dataset, estimator, B: int = 200, level: float = 0.95,
                 seed: int = 0, max_failure_rate: float = 0.10,
                 method: str = "percentile",
                 center: float | None = None) -> tuple[float, float]:
    """Case-resampling bootstrap interval for a point estimator.

    ``estimator`` maps a Dataset to a float. Resample b draws its indices
    from a generator seeded with (seed, b), so results are reproducible and
    independent of evaluation order.

    ``method="percentile"`` returns the percentile interval of the resampled
    points. ``method="normal"`` returns ``center +- z * sd(resampled
    points)``; for regularized learners, whose resampling distribution is
    shifted by duplicated-row shrinkage, the normal form keeps the interval
    centered on the estimate instead of inheriting that shift (``center``
    defaults to the estimator evaluated on ``data``).

    Raises :class:`UnstableBootstrapError` when the estimator fails on more
    than ``max_failure_rate`` of the resamples.
    """
    if B < 50:
        raise InvalidInputError("need B >= 50 bootstrap resamples")
    if not 0 < level < 1:
        raise InvalidInputError("level must lie in (0, 1)")
    if method not in ("percentile", "normal"):
        raise InvalidInputError("method must be 'percentile' or 'normal'")
    points = []
    failures = 0
    for b in range(B):
        rng = np.random.default_rng((seed, b))
        idx = rng.integers(0, data.n, size=data.n)
        try:
            points.append(float(estimator(data.subset(idx))))
        except UmlrError:
            failures += 1
    if failures > max_failure_rate * B:
        raise UnstableBootstrapError(failures / B)
    alpha = 1.0 - level
    if method == "percentile":
        lo, hi = np.quantile(points, [alpha / 2.0, 1.0 - alpha / 2.0])
        return float(lo), float(hi)
    mid = float(estimator(data)) if center is None else float(center)
    sd = float(np.std(points, ddof=1))
    z = statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0)
    return mid - z * sd, mid + z * sd
