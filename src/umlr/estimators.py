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

:data:`ESTIMATORS` is the one place an estimator is registered; the CLI and
the Monte-Carlo harness both dispatch through it. Estimators run on the same
data share one :class:`Nuisances` memo, so each outcome and propensity model
is fitted once however many estimators and modes ask for it.
"""

from __future__ import annotations

import statistics
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .core import Dataset
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
    "ESTIMATORS",
    "Estimator",
    "EstimatorSpec",
    "Nuisances",
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
    "bootstrap_interval",
    "check_bootstrap",
    "check_choice",
    "resampled_points",
]

DEFAULT_CLIP = (0.01, 0.99)
MODES = ("mlr", "umlr")
UMLR_ROUTES = ("auto", "constrained", "anchored")
CI_METHODS = ("normal", "percentile")
BOOTSTRAP_MAX_FAILURE_RATE = 0.10  # of the B resamples, before an interval is refused
PROPENSITY_MAX_ITER = 100  # Newton steps
PROPENSITY_GRAD_TOL = 1e-8


# one check per knob, called by each reader of it; nan fails every comparison
def check_choice(key: str, value, choices) -> None:
    """Reject ``value`` unless it is one of ``choices``, naming the key."""
    if value not in choices:
        raise InvalidInputError(f"{key!r} must be one of {', '.join(choices)}; got {value!r}")


def check_at_least(key: str, value, low) -> None:
    """Reject ``value`` unless it is >= ``low``, naming the key."""
    if not value >= low:
        raise InvalidInputError(f"{key!r} must be >= {low}; got {value!r}")


def check_nonnegative(key: str, value) -> None:
    """Reject ``value`` unless it is finite and >= 0, naming the key."""
    if not 0 <= value < np.inf:
        raise InvalidInputError(f"{key!r} must be finite and >= 0; got {value!r}")


def check_level(level) -> None:
    """Reject a confidence level outside (0, 1)."""
    if not 0 < level < 1:
        raise InvalidInputError(f"'level' must lie in (0, 1); got {level!r}")


def check_clip(clip) -> None:
    """Reject propensity clipping bounds outside 0 < lo < hi < 1."""
    lo, hi = clip
    if not 0 < lo < hi < 1:
        raise InvalidInputError("clip bounds must satisfy 0 < lo < hi < 1")


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
        check_level(self.level)
        if (self.ci_low is None) != (self.ci_high is None):
            raise InvalidInputError("ci_low and ci_high must be set together")
        if self.ci_low is not None and self.ci_low > self.ci_high:
            raise InvalidInputError("ci_low must not exceed ci_high")

    def with_interval(self, lo: float, hi: float, level: float) -> "AteEstimate":
        """Attach an interval at ``level``, widened if needed so it contains
        the point."""
        return replace(self, ci_low=min(lo, self.point), ci_high=max(hi, self.point),
                       level=level)


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


def fit_propensity(X, t, l2: float = 1.0, clip=DEFAULT_CLIP) -> PropensityModel:
    """Damped-Newton fit of a logistic propensity model.

    The intercept is unpenalized. With ``l2 = 0`` and separable classes the
    likelihood has no maximizer and a :class:`ConvergenceError` is raised;
    pass ``l2 > 0``.
    """
    X = np.asarray(X, dtype=float)
    t = np.asarray(t, dtype=float)
    if X.ndim != 2 or t.ndim != 1 or t.shape[0] != X.shape[0]:
        raise InvalidInputError("X must be (n, p) and t length n")
    check_nonnegative("l2", l2)
    check_clip(clip)
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
    for _ in range(PROPENSITY_MAX_ITER):
        z = D @ theta
        prob = _expit(z)
        grad = D.T @ (prob - t) + pen * theta
        if np.max(np.abs(grad)) < PROPENSITY_GRAD_TOL:
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
# outcome-regression machinery and the nuisance memo
# ---------------------------------------------------------------------------

def _assign_folds(data: Dataset, folds: int) -> np.ndarray:
    """Fold of each row, dealt round-robin within each arm along a row order
    set by content only, so it is invariant to permutations of the rows."""
    order = np.lexsort([*(data.X[:, j] for j in range(data.p - 1, -1, -1)), data.y, data.t])
    fold_of = np.empty(data.n, dtype=np.int64)
    offset = 0
    for arm in (0, 1):
        arm_rows = order[data.t[order] == arm]
        # per-arm offset keeps folds evenly filled (folds = n is leave-one-out)
        fold_of[arm_rows] = (np.arange(arm_rows.size) + offset) % folds
        offset += arm_rows.size
    return fold_of


class Nuisances:
    """The nuisance fits of one Dataset, each made once for every estimator
    and mode that asks; a memo lives for one call, replicate or resample.

    Outcome models are keyed by learner config, mode, umlr route and training
    part: ``("arm", a)``, the rows of arm ``a``; ``("fold", folds, k, a)``,
    those outside DML fold ``k``; ``("s",)``, all rows with ``t`` appended.
    Propensity fits are keyed by ``(l2, clip)`` and the fold left out; no key
    looks at array contents. A fit that raises is not stored. Entries are
    shared between callers, who must not modify them.
    """

    def __init__(self, data: Dataset):
        self.data = data
        self._memo = {}

    def _get(self, key, make):
        value = self._memo.get(key)  # no entry is None
        if value is None:
            value = self._memo[key] = make()
        return value

    def folds(self, folds: int) -> np.ndarray:
        return self._get(("folds", folds), lambda: _assign_folds(self.data, folds))

    def rows(self, arm: int) -> np.ndarray:
        return self._get(("rows", arm), lambda: self.data.arm_indices(arm))

    def _training(self, part) -> tuple[np.ndarray, np.ndarray]:
        X, t, y = self.data.X, self.data.t, self.data.y
        if part[0] == "s":
            return _augment(X, t.astype(float)), y
        if part[0] == "arm":
            rows = self.rows(part[1])
        else:
            rows = np.flatnonzero((t == part[3]) & (self.folds(part[1]) != part[2]))
        return X[rows], y[rows]

    # model and predictions inline the memo lookup: they sit on the
    # bootstrap hot path, where every memo is new
    def model(self, cfg: LearnerConfig, mode: str, umlr_route: str, part) -> FittedModel:
        """The outcome model of ``part``; the "auto" umlr route is constrained
        for ridge and lasso, anchored (wrapping the plain fit) for gbt."""
        key = (cfg, mode, umlr_route if mode == "umlr" else "auto", part)
        model = self._memo.get(key)
        if model is None:
            check_choice("mode", mode, MODES)
            check_choice("umlr_route", umlr_route, UMLR_ROUTES)
            X, y = self._training(part)
            if mode == "mlr":
                model = fit(cfg, X, y)
            elif umlr_route == "constrained" or (umlr_route == "auto" and cfg.kind != "gbt"):
                model = fit_constrained_linear(cfg, X, y)
            else:
                model = anchor_recalibrate(self.model(cfg, "mlr", "auto", part), X, y)
            self._memo[key] = model
        return model

    def predictions(self, cfg: LearnerConfig, mode: str, umlr_route: str, part) -> np.ndarray:
        """The model of an arm part on every row, of a fold part on the fold's
        held-out rows. An anchored model's are ``a + b *`` the plain fit's,
        which is how the anchored model computes them."""
        key = ("pred", cfg, mode, umlr_route if mode == "umlr" else "auto", part)
        pred = self._memo.get(key)
        if pred is None:
            model = self.model(cfg, mode, umlr_route, part)
            if model.anchor is not None:
                a, b = model.anchor
                pred = a + b * self.predictions(cfg, "mlr", "auto", part)
            else:
                X = self.data.X
                pred = model.predict(X if part[0] == "arm" else X[self.folds(part[1]) == part[2]])
            self._memo[key] = pred
        return pred

    def propensity(self, l2: float, clip, fold=None) -> PropensityModel:
        """The full-data propensity fit, or the one that leaves out DML fold
        ``fold = (folds, k)``."""
        def make():
            keep = slice(None) if fold is None else self.folds(fold[0]) != fold[1]
            return fit_propensity(self.data.X[keep], self.data.t[keep], l2=l2, clip=clip)

        return self._get(("prop", l2, tuple(clip), fold), make)


def _check_arms(nuis: Nuisances, cfg: LearnerConfig) -> tuple[np.ndarray, np.ndarray]:
    control, treated = nuis.rows(0), nuis.rows(1)
    need = max(5, cfg.min_leaf) if cfg.kind == "gbt" else 5
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


def _arm_models(data: Dataset, cfg: LearnerConfig, mode: str, umlr_route: str,
                with_diagnostics: bool, nuis: Nuisances):
    """One outcome model per arm from the memo; returns (control rows,
    treated rows, model0, model1, per-arm shrinkage reports or None)."""
    control, treated = _check_arms(nuis, cfg)
    model0, model1 = [nuis.model(cfg, mode, umlr_route, ("arm", arm)) for arm in (0, 1)]
    diag = None
    if with_diagnostics:
        diag = {
            "mu0": _safe_report(data.y[control], model0.predict(data.X[control])),
            "mu1": _safe_report(data.y[treated], model1.predict(data.X[treated])),
        }
    return control, treated, model0, model1, diag


def t_learner(data: Dataset, cfg: LearnerConfig, mode: str = "mlr",
              umlr_route: str = "auto", with_diagnostics: bool = True,
              nuis: Nuisances | None = None):
    """Per-arm outcome models; returns (model0, model1, estimate).

    In umlr mode each arm is anchored on its own outcome split;
    ``umlr_route`` picks exact constrained optimization ("constrained",
    the default for linear kinds) or the affine recalibration layer
    ("anchored", always used for gbt). ``nuis``, a memo built on ``data``,
    supplies the fits; a fresh one is used when it is omitted.
    """
    nuis = nuis or Nuisances(data)
    _, _, model0, model1, diag = _arm_models(data, cfg, mode, umlr_route,
                                             with_diagnostics, nuis)
    mu0, mu1 = [nuis.predictions(cfg, mode, umlr_route, ("arm", arm)) for arm in (0, 1)]
    point = outcome_regression_ate(data, mu0, mu1)
    est = AteEstimate(point=point, estimator="t_learner", mode=mode,
                      n_used=data.n, diagnostics=diag)
    return model0, model1, est


def _augment(X: np.ndarray, t_col: np.ndarray) -> np.ndarray:
    return np.column_stack([X, t_col])


def s_learner(data: Dataset, cfg: LearnerConfig, mode: str = "mlr",
              umlr_route: str = "auto", with_diagnostics: bool = True,
              nuis: Nuisances | None = None):
    """Single model on [X, t] with a full-sample anchoring split in umlr
    mode; returns (model, estimate)."""
    nuis = nuis or Nuisances(data)
    _check_arms(nuis, cfg)
    model = nuis.model(cfg, mode, umlr_route, ("s",))
    pred1 = model.predict(_augment(data.X, np.ones(data.n)))
    pred0 = model.predict(_augment(data.X, np.zeros(data.n)))
    point = float(np.mean(pred1 - pred0))
    diag = None
    if with_diagnostics:
        diag = {"mu": _safe_report(data.y, model.predict(_augment(data.X, data.t.astype(float))))}
    est = AteEstimate(point=point, estimator="s_learner", mode=mode,
                      n_used=data.n, diagnostics=diag)
    return model, est


def x_learner(data: Dataset, cfg: LearnerConfig, mode: str, prop: PropensityModel,
              umlr_route: str = "auto", with_diagnostics: bool = True,
              nuis: Nuisances | None = None) -> AteEstimate:
    """Two-stage pseudo-outcome learner with propensity-weighted blending.

    Anchoring applies to the stage-1 outcome models only; stage-2 models
    target pseudo-outcomes, not the observed outcome.
    """
    control, treated, model0, model1, diag = _arm_models(
        data, cfg, mode, umlr_route, with_diagnostics, nuis or Nuisances(data))
    d_treated = data.y[treated] - model0.predict(data.X[treated])
    d_control = model1.predict(data.X[control]) - data.y[control]
    tau1 = fit(cfg, data.X[treated], d_treated)
    tau0 = fit(cfg, data.X[control], d_control)
    e = prop.predict_proba(data.X)
    tau = e * tau0.predict(data.X) + (1.0 - e) * tau1.predict(data.X)
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


def dml(data: Dataset, cfg: LearnerConfig, mode: str = "mlr", folds: int = 5,
        l2: float = 1.0, clip=DEFAULT_CLIP, level: float = 0.95,
        umlr_route: str = "auto", nuis: Nuisances | None = None) -> AteEstimate:
    """K-fold cross-fitted AIPW with an analytic influence-function interval.

    Folds are dealt round-robin within each arm along a canonical row order,
    so the estimate does not depend on how the input rows were arranged, and
    both modes share the memo's fold assignment and propensity fits.
    """
    check_at_least("folds", folds, 2)
    check_level(level)
    if folds > data.n:
        raise InvalidInputError("more folds than units")
    nuis = nuis or Nuisances(data)
    fold_of = nuis.folds(folds)

    scores = np.empty(data.n)
    for k in range(folds):
        test = fold_of == k
        if not np.any(test):
            continue
        t_train = data.t[~test]
        if np.count_nonzero(t_train == 0) < 2 or np.count_nonzero(t_train == 1) < 2:
            raise ResamplingError(
                f"training part of fold {k} has fewer than 2 units in an arm"
            )
        test_data = data.subset(np.flatnonzero(test))
        m0, m1 = [nuis.predictions(cfg, mode, umlr_route, ("fold", folds, k, arm))
                  for arm in (0, 1)]
        e = nuis.propensity(l2, clip, (folds, k)).predict_proba(test_data.X)
        scores[test] = aipw_scores(test_data, m0, m1, e)

    point = float(np.mean(scores))
    se = float(np.std(scores, ddof=1) / np.sqrt(data.n))
    z = statistics.NormalDist().inv_cdf(0.5 + level / 2.0)
    est = AteEstimate(point=point, estimator="dml", mode=mode, n_used=data.n)
    return est.with_interval(point - z * se, point + z * se, level)


# ---------------------------------------------------------------------------
# propensity-score matching benchmark
# ---------------------------------------------------------------------------

def psm_att(data: Dataset, prop, caliper: float = 0.2) -> AteEstimate:
    """Greedy 1:1 nearest-neighbor matching on the propensity logit, without
    replacement, caliper = ``caliper`` x sd(logit). Estimates the ATT.

    Treated units are matched in descending propensity order, ties broken by
    original index; equidistant controls resolve to the lower original index.
    """
    check_nonnegative("caliper", caliper)
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
    alive = np.ones(c_order.size, dtype=bool)
    pairs = []
    for ti in t_order:
        # the nearest alive control on each side of the unit's logit
        live = np.flatnonzero(alive)
        j = int(np.searchsorted(live, np.searchsorted(c_logit, logit[ti])))
        near = live[max(j - 1, 0):j + 1]
        if near.size == 0:
            break
        dist = np.abs(c_logit[near] - logit[ti])
        k = np.lexsort((c_order[near], dist))[0]
        if dist[k] <= cal:
            alive[near[k]] = False
            pairs.append((ti, c_order[near[k]]))

    if not pairs:
        raise NoMatchesError("no treated unit found a control within the caliper")
    diffs = [data.y[ti] - data.y[ci] for ti, ci in pairs]
    return AteEstimate(point=float(np.mean(diffs)), estimator="psm_att", mode="mlr",
                       n_used=2 * len(pairs))


# ---------------------------------------------------------------------------
# bootstrap confidence intervals
# ---------------------------------------------------------------------------

def check_bootstrap(B: int, level: float, method: str) -> None:
    """Reject a bootstrap request before any resample is drawn."""
    check_at_least("B", B, 50)
    check_level(level)
    check_choice("method", method, CI_METHODS)


def resampled_points(data: Dataset, fns, B: int, seed: int):
    """Each ``fn(resample, memo)`` on the B case resamples of ``data``, where
    resample b draws its indices from a generator seeded with (seed, b) and
    all fns share its :class:`Nuisances` memo. Returns, per fn, the points it
    gave and its failed resamples counted by error class."""
    check_at_least("seed", seed, 0)
    points, failures = [[] for _ in fns], [Counter() for _ in fns]
    for b in range(B):
        sub = data.subset(np.random.default_rng((seed, b)).integers(0, data.n, size=data.n))
        nuis = Nuisances(sub)
        for fn, pts, failed in zip(fns, points, failures):
            try:
                pts.append(float(fn(sub, nuis)))
            except UmlrError as exc:
                failed[type(exc).__name__] += 1
    return points, failures


def bootstrap_interval(points: list[float], B: int, level: float, method: str,
                       center) -> tuple[float, float]:
    """The interval from the points of the resamples that did not fail, or
    :class:`UnstableBootstrapError` when more than BOOTSTRAP_MAX_FAILURE_RATE
    of the B resamples failed; ``center()`` gives the normal form's centre."""
    failures = B - len(points)
    if failures > BOOTSTRAP_MAX_FAILURE_RATE * B:
        raise UnstableBootstrapError(failures / B)
    alpha = 1.0 - level
    if method == "percentile":
        lo, hi = np.quantile(points, [alpha / 2.0, 1.0 - alpha / 2.0])
        return float(lo), float(hi)
    mid = float(center())
    sd = float(np.std(points, ddof=1))
    z = statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0)
    return mid - z * sd, mid + z * sd


def bootstrap_ci(data: Dataset, estimator, B: int = 200, level: float = 0.95,
                 seed: int = 0, method: str = "percentile",
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
    than :data:`BOOTSTRAP_MAX_FAILURE_RATE` of the resamples.
    """
    check_bootstrap(B, level, method)
    (points,), _ = resampled_points(data, [lambda sub, _: estimator(sub)], B, seed)
    mid = (lambda: estimator(data)) if center is None else (lambda: center)
    return bootstrap_interval(points, B, level, method, mid)


# ---------------------------------------------------------------------------
# the estimator registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimatorSpec:
    """Every knob a registered estimator reads, each validated once, here,
    never per bootstrap resample."""

    learner: LearnerConfig
    mode: str = "mlr"
    umlr_route: str = "auto"
    propensity_l2: float = 1.0
    clip: tuple[float, float] = DEFAULT_CLIP
    folds: int = 5
    level: float = 0.95
    caliper: float = 0.2

    def __post_init__(self):
        check_choice("mode", self.mode, MODES)
        check_choice("umlr_route", self.umlr_route, UMLR_ROUTES)
        check_clip(self.clip)
        check_level(self.level)
        check_at_least("folds", self.folds, 2)
        check_nonnegative("propensity_l2", self.propensity_l2)
        check_nonnegative("caliper", self.caliper)
        if self.mode == "umlr" and self.umlr_route == "constrained" and self.learner.kind == "gbt":
            raise InvalidInputError("'umlr_route' constrained needs a ridge or lasso learner")


@dataclass(frozen=True)
class Estimator:
    """``run(data, spec, nuis, diagnostics=False)`` returns the AteEstimate
    (with the outcome models' shrinkage reports if asked and available), its
    fits taken from ``nuis``, the memo of ``data``; an ``analytic_interval``
    estimator carries its own interval and is never bootstrapped."""

    run: Callable[..., AteEstimate]
    aliases: tuple[str, ...] = ()
    estimand: str = "ate"
    modes: tuple[str, ...] = MODES
    analytic_interval: bool = False


def _run_s(data: Dataset, spec: EstimatorSpec, nuis: Nuisances, diagnostics=False):
    return s_learner(data, spec.learner, spec.mode, spec.umlr_route, diagnostics, nuis)[1]


def _run_t(data: Dataset, spec: EstimatorSpec, nuis: Nuisances, diagnostics=False):
    return t_learner(data, spec.learner, spec.mode, spec.umlr_route, diagnostics, nuis)[2]


def _run_x(data: Dataset, spec: EstimatorSpec, nuis: Nuisances, diagnostics=False):
    return x_learner(data, spec.learner, spec.mode,
                     nuis.propensity(spec.propensity_l2, spec.clip),
                     spec.umlr_route, diagnostics, nuis)


def _run_aipw(data: Dataset, spec: EstimatorSpec, nuis: Nuisances, diagnostics=False):
    _check_arms(nuis, spec.learner)
    mu0, mu1 = [nuis.predictions(spec.learner, spec.mode, spec.umlr_route, ("arm", arm))
                for arm in (0, 1)]
    return aipw(data, mu0, mu1, nuis.propensity(spec.propensity_l2, spec.clip),
                mode=spec.mode)


def _run_dml(data: Dataset, spec: EstimatorSpec, nuis: Nuisances, diagnostics=False):
    return dml(data, spec.learner, spec.mode, folds=spec.folds, l2=spec.propensity_l2,
               clip=spec.clip, level=spec.level, umlr_route=spec.umlr_route, nuis=nuis)


def _run_psm(data: Dataset, spec: EstimatorSpec, nuis: Nuisances, diagnostics=False):
    return psm_att(data, nuis.propensity(spec.propensity_l2, spec.clip),
                   caliper=spec.caliper)


ESTIMATORS = {
    "s_learner": Estimator(_run_s, aliases=("s",)),
    "t_learner": Estimator(_run_t, aliases=("t",)),
    "x_learner": Estimator(_run_x, aliases=("x",)),
    "aipw": Estimator(_run_aipw),
    "dml": Estimator(_run_dml, analytic_interval=True),
    "psm_att": Estimator(_run_psm, aliases=("psm",), estimand="att", modes=("mlr",)),
}
