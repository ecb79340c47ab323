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
interval. :func:`resampled_points` evaluates ridge estimators on the
resamples of a dataset as count-weighted fits, stacked where p is small.

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
from .learners import (
    FittedModel,
    STACK_MAX_P,
    LearnerConfig,
    _anchor,
    _anchor_stack,
    _dot,
    _ridge_stack,
    fit,
    fit_constrained_linear,
)

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
STACK_CELLS = 2**16  # (resample, row, column) cells per chunk: 512 KiB a stacked array


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
            else:  # gbt keeps its training predictions; a linear fit makes them
                base = self.model(cfg, "mlr", "auto", part)
                model = _anchor(base, base.predict(X) if base.train_pred is None
                                else base.train_pred, y)
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


def _draw(n: int, seed: int, b: int) -> np.ndarray:
    """The rows of case resample b: n draws from a generator seeded with (seed, b)."""
    return np.random.default_rng((seed, b)).integers(0, n, size=n)


def _on_resample(data: Dataset, seed: int, b: int, fns) -> list:
    """Each ``fn(resample, memo)`` on resample b, all sharing its memo: the
    point, or the class name of the :class:`UmlrError` it raised."""
    sub = data.subset(_draw(data.n, seed, b))
    memo = Nuisances(sub)
    out = []
    for fn in fns:
        try:
            out.append(float(fn(sub, memo)))
        except UmlrError as exc:
            out.append(type(exc).__name__)
    return out


def resampled_points(data: Dataset, cells, B: int, seed: int):
    """The points of each cell, an ``(Estimator, EstimatorSpec)`` pair, on
    the B case resamples of ``data``, where resample b draws its rows from a
    generator seeded with (seed, b). Returns, per cell, the points it gave in
    resample order and its failed resamples counted by error class.

    A resample is a count vector: row i enters resample b ``c[b, i]`` times.
    The cells of a registered s/t/x/aipw estimator whose learner is ridge
    with lam > 0 are evaluated chunk by chunk (STACK_CELLS cells per stacked
    array) as count-weighted fits, whose points equal the per-resample ones
    up to rounding; the ridge fits of a chunk are solved in one batch on at
    most STACK_MAX_P covariates, resample by resample on the distinct drawn
    rows above that. Every other cell is evaluated one resample at a time on
    the resample's rows, all of them sharing the resample's
    :class:`Nuisances` memo, and so is every resample on which a stacked fit
    would fail or comes near a check, so failures are counted by the
    per-resample errors.
    """
    check_at_least("seed", seed, 0)
    values = [[None] * B for _ in cells]  # a point, or the class of the error raised
    for i, b, point in _stacked_points(data, cells, B, seed):
        values[i][b] = point
    fns = [lambda sub, memo, run=entry.run, spec=spec: run(sub, spec, memo).point
           for entry, spec in cells]
    for b in range(B):
        todo = [i for i, vals in enumerate(values) if vals[b] is None]
        if todo:
            for i, value in zip(todo, _on_resample(data, seed, b, [fns[i] for i in todo])):
                values[i][b] = value
    return ([[v for v in vals if isinstance(v, float)] for vals in values],
            [Counter(v for v in vals if isinstance(v, str)) for vals in values])


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
    check_at_least("seed", seed, 0)
    fns = [lambda sub, _: estimator(sub)]
    points = [v for b in range(B) for v in _on_resample(data, seed, b, fns)
              if isinstance(v, float)]
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


# ---------------------------------------------------------------------------
# stacked bootstrap: all resamples of a dataset as count-weighted fits
# ---------------------------------------------------------------------------

def _predict(coef: np.ndarray, intercept: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Each resample's linear model (k, q), (k,) on the rows of X: (k, m)."""
    return intercept[:, None] + (coef[:, None, :] @ X.T)[:, 0]


def _propensity_stack(X: np.ndarray, t: np.ndarray, c: np.ndarray, l2: float):
    """:func:`fit_propensity` on k case resamples at once, resample b drawing
    row i ``c[b, i]`` times: the same damped Newton steps on the
    count-weighted likelihood, one batched solve per step, each resample
    stopping and halving its line-search step on its own. Returns theta
    (k, p + 1), intercept first, and ok (k,): False where the per-resample
    fit would raise, or where one of its comparisons (gradient tolerance,
    line-search acceptance, separation) is too close for the two ways of
    rounding to be sure to agree."""
    k, n = c.shape
    D = np.column_stack([np.ones(n), X])
    q = D.shape[1]
    pen = np.full(q, float(l2))
    pen[0] = 0.0
    t = t.astype(float)
    # sums of n terms round apart far less than 1e-13 of the terms' size
    grad_slack = 1e-13 * n * np.abs(D).max()

    def objective(th, cw):
        """The objective and the size of the terms it sums."""
        z = (th[:, None, :] @ D.T)[:, 0]
        soft, tz = np.logaddexp(0.0, z), t * z
        penalty = 0.5 * _dot(th**2, pen)
        return _dot(cw, soft - tz) + penalty, _dot(cw, soft + np.abs(tz)) + penalty

    theta = np.zeros((k, q))
    ok = ((c * t).sum(axis=1) > 0) & ((c * (1.0 - t)).sum(axis=1) > 0)
    obj, size = objective(theta, c)
    live = np.flatnonzero(ok)  # resamples still stepping
    for _ in range(PROPENSITY_MAX_ITER):
        th, cw = theta[live], c[live]
        z = (th[:, None, :] @ D.T)[:, 0]
        prob = _expit(z)
        grad = ((cw * (prob - t))[:, None, :] @ D)[:, 0] + pen * th
        gmax = np.abs(grad).max(axis=1)
        ok[live] &= np.abs(gmax - PROPENSITY_GRAD_TOL) > grad_slack
        done = gmax < PROPENSITY_GRAD_TOL
        if l2 == 0.0:  # the unpenalized fit's separation test, with a margin
            drawn = cw > 0
            separated = (np.all(~drawn | ((2.0 * t - 1.0) * z > -1e-9), axis=1)
                         & (np.where(drawn, np.abs(z), 0.0).max(axis=1) > 10.0 - 1e-9))
            ok[live[done & separated]] = False
        step_on = ~done & ok[live]
        live, th, cw, prob, grad = live[step_on], th[step_on], cw[step_on], prob[step_on], grad[step_on]
        if not live.size:
            return theta, ok
        H = (D.T * (cw * prob * (1.0 - prob))[:, None, :]) @ D + np.diag(pen)
        step = np.linalg.solve(H, grad[:, :, None])[:, :, 0]
        scale = np.ones(live.size)
        search = np.arange(live.size)  # positions in live still halving
        for _ in range(50):
            rows = live[search]
            cand = th[search] - scale[search, None] * step[search]
            cand_obj, cand_size = objective(cand, cw[search])
            bound = obj[rows] + 1e-12 * np.abs(obj[rows])
            ok[rows] &= np.abs(cand_obj - bound) > 1e-13 * (cand_size + size[rows])
            accept = cand_obj <= bound
            theta[rows[accept]], obj[rows[accept]] = cand[accept], cand_obj[accept]
            size[rows[accept]] = cand_size[accept]
            search = search[~accept]
            if not search.size:
                break
            scale[search] *= 0.5
        ok[live[search]] = False  # no step decreased the objective: ConvergenceError
        live = live[ok[live]]
    ok[live] = False  # not converged within PROPENSITY_MAX_ITER steps
    return theta, ok


class _Stack:
    """What :class:`Nuisances` is to one resample, for k case resamples of
    ``data`` at once, resample b drawing row i ``c[b, i]`` times: the ridge
    outcome fits and the propensity fits, each made once for every cell.

    ``ok`` (k,) turns False for each resample on which a fit asked for would
    raise, or comes too near one of its checks to be sure it passes; the
    caller evaluates those resamples one by one.
    """

    def __init__(self, data: Dataset, c: np.ndarray):
        self.data, self.c = data, c
        self.rows = [data.arm_indices(arm) for arm in (0, 1)]
        control, treated = (c[:, rows].sum(axis=1) for rows in self.rows)
        self.ok = (control >= 5) & (treated >= 5)  # as _check_arms asks of ridge
        self._memo = {}

    def _get(self, key, make):
        value = self._memo.get(key)  # no entry is None
        if value is None:
            value = self._memo[key] = make()
        return value

    def _training(self, part):
        X, t, y = self.data.X, self.data.t, self.data.y
        if part[0] == "s":
            return _augment(X, t.astype(float)), y, self.c
        rows = self.rows[part[1]]
        return X[rows], y[rows], np.take(self.c, rows, axis=1)

    def model(self, cfg: LearnerConfig, mode: str, umlr_route: str, part):
        """``(coef, intercept, layer)`` of the outcome model of ``part``: the
        plain or constrained fit, or for the anchored route the plain fit
        with its layer ``(a, b)``, which is otherwise None."""
        route = umlr_route if mode == "umlr" else "auto"

        def make():
            X, y, c = self._training(part)
            if route == "anchored":
                coef, intercept, _ = self.model(cfg, "mlr", "auto", part)
                a, b, ok = _anchor_stack(_predict(coef, intercept, X), y, c)
                self.ok &= ok
                return coef, intercept, (a, b)
            fits = self._get(("fits", cfg, part),
                             lambda: _ridge_stack(cfg.lam, X, y, c, constrained=True))
            coef, intercept, ok = fits[mode == "umlr"]
            self.ok &= ok
            return coef, intercept, None

        return self._get(("model", cfg, mode, route, part), make)

    def predictions(self, cfg: LearnerConfig, mode: str, umlr_route: str, arm: int):
        """The arm model on every row, (k, n); an anchored model's are
        ``a + b *`` the plain fit's, as in :meth:`Nuisances.predictions`."""
        def make():
            coef, intercept, layer = self.model(cfg, mode, umlr_route, ("arm", arm))
            if layer is None:
                return _predict(coef, intercept, self.data.X)
            a, b = layer
            return a[:, None] + b[:, None] * self.predictions(cfg, "mlr", "auto", arm)

        route = umlr_route if mode == "umlr" else "auto"
        return self._get(("pred", cfg, mode, route, arm), make)

    def propensity(self, l2: float, clip) -> np.ndarray:
        """The clipped propensity scores of every row, (k, n)."""
        def make():
            theta, ok = _propensity_stack(self.data.X, self.data.t, self.c, l2)
            self.ok &= ok
            return np.clip(_expit(_predict(theta[:, 1:], theta[:, 0], self.data.X)), *clip)

        return self._get(("prop", l2, tuple(clip)), make)

    def mean(self, v: np.ndarray) -> np.ndarray:
        """Each resample's mean of per-row values v (k, n)."""
        return _dot(self.c, v) / self.data.n


def _arm_predictions(stack: _Stack, spec: EstimatorSpec):
    return [stack.predictions(spec.learner, spec.mode, spec.umlr_route, arm) for arm in (0, 1)]


def _stack_s(stack: _Stack, spec: EstimatorSpec) -> np.ndarray:
    coef, _, layer = stack.model(spec.learner, spec.mode, spec.umlr_route, ("s",))
    return coef[:, -1] if layer is None else layer[1] * coef[:, -1]


def _stack_t(stack: _Stack, spec: EstimatorSpec) -> np.ndarray:
    mu0, mu1 = _arm_predictions(stack, spec)
    return stack.mean(mu1 - mu0)


def _stack_x(stack: _Stack, spec: EstimatorSpec) -> np.ndarray:
    e = stack.propensity(spec.propensity_l2, spec.clip)
    mu0, mu1 = _arm_predictions(stack, spec)
    X, y = stack.data.X, stack.data.y
    control, treated = stack.rows
    tau = []
    for rows, d in ((control, np.take(mu1, control, axis=1) - y[control]),
                    (treated, y[treated] - np.take(mu0, treated, axis=1))):
        (coef, intercept, ok), = _ridge_stack(spec.learner.lam, X[rows], d,
                                              np.take(stack.c, rows, axis=1))
        stack.ok &= ok
        tau.append(_predict(coef, intercept, X))
    return stack.mean(e * tau[0] + (1.0 - e) * tau[1])


def _stack_aipw(stack: _Stack, spec: EstimatorSpec) -> np.ndarray:
    mu0, mu1 = _arm_predictions(stack, spec)
    e = stack.propensity(spec.propensity_l2, spec.clip)
    t, y = stack.data.t.astype(float), stack.data.y
    return stack.mean(mu1 - mu0 + t * (y - mu1) / e - (1.0 - t) * (y - mu0) / (1.0 - e))


# keyed by the run each mirrors, so an entry whose run is swapped is not stacked
_STACKED = {_run_s: _stack_s, _run_t: _stack_t, _run_x: _stack_x, _run_aipw: _stack_aipw}


def _stacked_points(data: Dataset, cells, B: int, seed: int):
    """Yield ``(cell index, b, point)`` for each stackable cell and each
    resample b that no stacked check flagged, chunk by chunk; a chunk whose
    batched solve raises yields nothing."""
    stacked = [i for i, (entry, spec) in enumerate(cells) if entry.run in _STACKED
               and spec.learner.kind == "ridge" and spec.learner.lam > 0]
    if not stacked:
        return
    # a batched ridge solve or a propensity fit stacks (k, p + 2, n) arrays;
    # above STACK_MAX_P the ridge cells hold about ten (k, n) arrays at once
    props = any(cells[i][0].run in (_run_x, _run_aipw) for i in stacked)
    width = data.p + 2 if data.p <= STACK_MAX_P or props else 10
    chunks = -(-B // max(1, STACK_CELLS // (data.n * width)))
    size = -(-B // chunks)  # chunks of even size
    for lo in range(0, B, size):
        bs = range(lo, min(B, lo + size))
        counts = np.array([np.bincount(_draw(data.n, seed, b), minlength=data.n) for b in bs],
                          dtype=float)
        try:
            with np.errstate(all="ignore"):  # a flagged resample may divide by 0
                stack = _Stack(data, counts)
                points = [_STACKED[cells[i][0].run](stack, cells[i][1]) for i in stacked]
        except np.linalg.LinAlgError:
            continue
        for j in np.flatnonzero(stack.ok):
            for i, pts in zip(stacked, points):
                yield i, bs[j], float(pts[j])
