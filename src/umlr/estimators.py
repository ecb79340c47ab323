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
interval. :func:`resampled_points` evaluates the ridge s/t/x/aipw cells on
all resamples of a chunk at once, through the count kernels, and
:func:`dml` fits the propensities of all folds, and the arm models of a
ridge learner, at once in the same way.

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
    check_choice,
    check_count,
    check_nonnegative,
    check_unit,
)
from .learners import (
    LINEAR_GROUP_TOL,
    STACK_MAX_P,
    LearnerConfig,
    _anchor,
    _anchor_kernel,
    _fail,
    _merge,
    _ok,
    _raise,
    _ridge_kernel,
    _solve,
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


# the checks of several values at once; each single knob's check is in errors
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
        check_unit("level", self.level)
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
    """The logistic function, without overflow: 1 / (1 + e^-z) for z >= 0,
    e^z / (1 + e^z) below, both from e = e^-|z| (min(z, -z) keeps the sign
    of a NaN), so each entry has the bits of the two-branch form."""
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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
    if not np.isin(t, (0.0, 1.0)).all():  # the kernel reports a missing class
        raise InvalidInputError("t must contain both classes 0 and 1")
    theta, status = _propensity_kernel(X, t, np.ones((1, X.shape[0])), l2)
    _raise(status)
    return PropensityModel(coef=theta[0, 1:], intercept=float(theta[0, 0]), clip=clip)


@np.errstate(all="ignore")
def _propensity_kernel(X: np.ndarray, t: np.ndarray, c: np.ndarray, l2: float):
    """The logistic fits of t (n,) on X (n, p) under the case resamples c
    (k, n): damped Newton steps on each resample's count-weighted penalized
    likelihood, each stopping and halving its step on its own. Returns theta
    (k, p + 1), intercept first, and the status (see the count kernels of
    :mod:`umlr.learners`)."""
    c = np.ascontiguousarray(c)  # rows laid out alike for any k
    D = np.column_stack([np.ones(c.shape[1]), X])
    pen = np.full(D.shape[1], float(l2))
    pen[0] = 0.0  # the intercept is unpenalized
    ct = c * t
    status = _ok(len(c))
    treated = ct.sum(axis=1)
    _fail(status, (treated == 0) | (treated == c.sum(axis=1)),
          InvalidInputError, "t must contain both classes 0 and 1")
    stuck = "logistic fit did not converge; data may be separable with l2 = 0 (try l2 > 0)"

    def objective(th, cw, ctw):  # log(1 + e^z) as max(z, 0) + log1p(e^-|z|)
        z = np.matvec(D, th)
        softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
        return (cw * softplus).sum(axis=1) - np.vecdot(ctw, z) + 0.5 * np.vecdot(th**2, pen), z

    theta = np.zeros((len(c), D.shape[1]))
    live = np.flatnonzero(np.equal(status, None))  # the resamples still stepping, and theirs:
    th, cw, ctw = theta[live], c[live], ct[live]
    obj, z = objective(th, cw, ctw)
    H_pen = np.diag(pen)
    for _ in range(PROPENSITY_MAX_ITER):
        prob = _expit(z)
        grad = np.vecmat(cw * (prob - t), D) + pen * th
        done = np.abs(grad).max(axis=1) < PROPENSITY_GRAD_TOL
        if l2 == 0.0:
            # saturated logits silence the gradient under separation;
            # without a penalty there is no finite maximizer
            drawn = cw > 0
            separated = ((~drawn | ((2.0 * t - 1.0) * z > 0)).all(axis=1)
                         & (np.where(drawn, np.abs(z), 0.0).max(axis=1) > 10.0))
            status[live[done & separated]] = ConvergenceError(
                "classes are separable and l2 = 0 has no finite optimum (try l2 > 0)")
        if done.any():
            theta[live[done]] = th[done]
            if done.all():
                return theta, status
            live, th, cw, ctw, obj, z, prob, grad = (
                v[~done] for v in (live, th, cw, ctw, obj, z, prob, grad))
        H = D.T @ (D * (cw * prob * (1.0 - prob))[:, :, None]) + H_pen
        step, failed = _solve(H, grad[:, :, None])
        step, scale = step[:, :, 0], 1.0
        if failed is not None:
            status[live[failed]] = ConvergenceError("logistic Newton step failed: Singular matrix")
            step[failed] = 0.0  # stays put, and is dropped below
        for _ in range(50):
            cand = th - scale * step
            cand_obj, cand_z = objective(cand, cw, ctw)
            accept = cand_obj <= obj + 1e-12 * np.abs(obj)
            if accept.all():
                th, obj, z = cand, cand_obj, cand_z
                break
            np.copyto(th, cand, where=accept[:, None])
            np.copyto(obj, cand_obj, where=accept)
            np.copyto(z, cand_z, where=accept[:, None])
            step[accept] = 0.0  # accepted: stays put while the others halve
            scale *= 0.5
        else:  # no step decreased the objective
            halted = step.any(axis=1)
            status[live[halted]] = ConvergenceError(stuck)
            failed = halted if failed is None else failed | halted
        if failed is not None:
            live, th, cw, ctw, obj, z = (v[~failed] for v in (live, th, cw, ctw, obj, z))
            if not live.size:
                return theta, status
    status[live] = ConvergenceError(stuck)
    return theta, status


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
    Propensity fits are keyed by ``(l2, clip)``, and the memo of all DML
    folds (see :func:`dml`) by ``("cross", folds)``; no
    key looks at array contents. A fit that raises is not stored. Entries are
    shared between callers, who must not modify them.

    Given ``counts`` (k, n), the memo holds k case resamples of ``data``
    (row i drawn ``counts[b, i]`` times), or with 0/1 counts the training
    parts of k DML folds: the count kernels make its ridge (lam > 0) arm and
    s fits and full-data propensity fit, predictions are (k, n), and each
    access to an entry adds its fits' errors to ``status``.
    """

    def __init__(self, data: Dataset, counts: np.ndarray | None = None):
        self.data, self.c = data, counts
        self.status = None if counts is None else _ok(len(counts))
        self._memo = {}

    def _get(self, key, make):
        entry = self._memo.get(key)  # no entry is None
        if entry is None:
            if self.c is None:
                entry = self._memo[key] = make(), None
            else:  # collect the errors of the entry's own fits
                outer, self.status = self.status, _ok(len(self.c))
                try:
                    entry = self._memo[key] = make(), self.status
                finally:
                    self.status = outer
        if entry[1] is not None:
            _merge(self.status, entry[1])
        return entry[0]

    def mean(self, v: np.ndarray):
        """The mean over the units of per-unit values: a float, or with
        counts each resample's (k,) of v (k, n)."""
        return float(np.mean(v)) if self.c is None else np.vecdot(self.c, v) / self.data.n

    def folds(self, folds: int) -> np.ndarray:
        return self._get(("folds", folds), lambda: _assign_folds(self.data, folds))

    def rows(self, arm: int) -> np.ndarray:
        return self._get(("rows", arm), lambda: self.data.arm_indices(arm))

    def _training(self, part):
        X, t, y = self.data.X, self.data.t, self.data.y
        if part[0] == "s":
            rows, X = slice(None), _augment(X, t.astype(float))
        elif part[0] == "arm":
            rows = self.rows(part[1])
        else:
            rows = np.flatnonzero((t == part[3]) & (self.folds(part[1]) != part[2]))
        return X[rows], y[rows], None if self.c is None else np.ascontiguousarray(self.c[:, rows])

    def model(self, cfg: LearnerConfig, mode: str, umlr_route: str, part):
        """The outcome model of ``part``, a FittedModel, or with counts the
        kernel's fits; the "auto" umlr route is constrained for ridge and
        lasso, anchored (wrapping the plain fit) for gbt. A constrained lasso
        warm-starts from the memo's plain fit, so each lasso is fitted once."""
        route = umlr_route if mode == "umlr" else "auto"

        def make():
            check_choice("mode", mode, MODES)
            check_choice("umlr_route", umlr_route, UMLR_ROUTES)
            X, y, c = self._training(part)
            below = None if c is None else y <= ((c * y).sum(axis=1) / c.sum(axis=1))[:, None]
            if route == "anchored" or (route == "auto" and mode == "umlr" and cfg.kind == "gbt"):
                base = self.model(cfg, "mlr", "auto", part)
                if c is None:  # gbt keeps its training predictions; a linear fit makes them
                    return _anchor(base, base.predict(X) if base.train_pred is None
                                   else base.train_pred, y)
                a, b, _, _, status = _anchor_kernel(base.predict(X), y, c, below, LINEAR_GROUP_TOL)
                _merge(self.status, status)
                return base._replace(anchor=(a[:, None], b[:, None]))
            if c is None:
                if mode == "mlr":
                    return fit(cfg, X, y)
                plain = self.model(cfg, "mlr", "auto", part) if cfg.kind == "lasso" else None
                return fit_constrained_linear(cfg, X, y, plain=plain)
            fits = self._get(("fits", cfg, part), lambda: _ridge_kernel(cfg.lam, X, y, c, below))
            _merge(self.status, fits[mode == "umlr"].status)
            return fits[mode == "umlr"]

        return self._get((cfg, mode, route, part), make)

    def predictions(self, cfg: LearnerConfig, mode: str, umlr_route: str, part) -> np.ndarray:
        """The model of an arm part on every row, of a fold part on the fold's
        held-out rows. An anchored model's are ``a + b *`` the plain fit's,
        which is how the anchored model computes them."""
        def make():
            model = self.model(cfg, mode, umlr_route, part)
            if model.anchor is not None:
                a, b = model.anchor
                return a + b * self.predictions(cfg, "mlr", "auto", part)
            X = self.data.X
            return model.predict(X if part[0] == "arm" else X[self.folds(part[1]) == part[2]])

        return self._get(("pred", cfg, mode, umlr_route if mode == "umlr" else "auto", part), make)

    def refit(self, cfg: LearnerConfig, rows: np.ndarray, target: np.ndarray) -> np.ndarray:
        """The plain fit of ``target`` on ``rows``, predicted at every row."""
        X = self.data.X
        if self.c is None:
            return fit(cfg, X[rows], target).predict(X)
        fits, = _ridge_kernel(cfg.lam, X[rows], target, self.c[:, rows])
        _merge(self.status, fits.status)
        return fits.predict(X)

    def propensity(self, l2: float, clip) -> np.ndarray:
        """The clipped propensity scores of every row under the full-data
        fit, or with counts under each resample's fit, (k, n)."""
        def make():
            X, t = self.data.X, self.data.t
            if self.c is None:
                return fit_propensity(X, t, l2=l2, clip=clip).predict_proba(X)
            theta, status = _propensity_kernel(X, t, self.c, l2)
            _merge(self.status, status)
            return np.clip(_expit(theta[:, :1] + np.matvec(X, theta[:, 1:])), *clip)

        return self._get(("prop", l2, tuple(clip)), make)


def _has_count_kernel(cfg: LearnerConfig) -> bool:
    """Whether a :class:`Nuisances` memo with counts can fit ``cfg``: the
    count kernels fit ridge with lam > 0."""
    return cfg.kind == "ridge" and cfg.lam > 0


def _check_arms(nuis: Nuisances, cfg: LearnerConfig) -> tuple[np.ndarray, np.ndarray]:
    control, treated = nuis.rows(0), nuis.rows(1)
    need = max(5, cfg.min_leaf) if cfg.kind == "gbt" else 5
    if nuis.c is None:
        n0, n1 = control.size, treated.size
    else:
        n0, n1 = (nuis._get(("units", arm), lambda: nuis.c[:, rows].sum(axis=1))
                  for arm, rows in enumerate((control, treated)))
    bad = np.minimum(n0, n1) < need
    if bad.any():
        message = f"each arm needs >= {need} units; got {n1} treated, {n0} control"
        if nuis.c is None:
            raise InvalidInputError(message)
        _fail(nuis.status, bad, InvalidInputError, message)
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


def _arm_models(nuis: Nuisances, spec: EstimatorSpec, diagnostics: bool):
    """One outcome model per arm from the memo; returns (control rows,
    treated rows, model0, model1, per-arm shrinkage reports or None)."""
    control, treated = _check_arms(nuis, spec.learner)
    model0, model1 = [nuis.model(spec.learner, spec.mode, spec.umlr_route, ("arm", arm))
                      for arm in (0, 1)]
    diag = None
    if diagnostics:
        X, y = nuis.data.X, nuis.data.y
        diag = {"mu0": _safe_report(y[control], model0.predict(X[control])),
                "mu1": _safe_report(y[treated], model1.predict(X[treated]))}
    return control, treated, model0, model1, diag


# The registered runs of the outcome-regression estimators: each is the one
# formula of its point. On a memo of case resamples (``Nuisances(data,
# counts)``) it evaluates all k of them at once, and its point is (k,).

def _run_s(data: Dataset, spec: EstimatorSpec, nuis: Nuisances, diagnostics=False):
    _check_arms(nuis, spec.learner)
    model = nuis.model(spec.learner, spec.mode, spec.umlr_route, ("s",))
    pred1 = model.predict(_augment(data.X, np.ones(data.n)))
    pred0 = model.predict(_augment(data.X, np.zeros(data.n)))
    diag = None
    if diagnostics:
        diag = {"mu": _safe_report(data.y, model.predict(_augment(data.X, data.t.astype(float))))}
    return AteEstimate(point=nuis.mean(pred1 - pred0), estimator="s_learner", mode=spec.mode,
                       n_used=data.n, diagnostics=diag)


def _run_t(data: Dataset, spec: EstimatorSpec, nuis: Nuisances, diagnostics=False):
    diag = _arm_models(nuis, spec, diagnostics)[-1]
    mu0, mu1 = [nuis.predictions(spec.learner, spec.mode, spec.umlr_route, ("arm", arm))
                for arm in (0, 1)]
    return AteEstimate(point=nuis.mean(mu1 - mu0), estimator="t_learner", mode=spec.mode,
                       n_used=data.n, diagnostics=diag)


def _x_learner(nuis: Nuisances, spec: EstimatorSpec, e: np.ndarray, diagnostics: bool):
    control, treated, model0, model1, diag = _arm_models(nuis, spec, diagnostics)
    X, y = nuis.data.X, nuis.data.y
    tau1 = nuis.refit(spec.learner, treated, y[treated] - model0.predict(X[treated]))
    tau0 = nuis.refit(spec.learner, control, model1.predict(X[control]) - y[control])
    return AteEstimate(point=nuis.mean(e * tau0 + (1.0 - e) * tau1), estimator="x_learner",
                       mode=spec.mode, n_used=nuis.data.n, diagnostics=diag)


def _run_x(data: Dataset, spec: EstimatorSpec, nuis: Nuisances, diagnostics=False):
    return _x_learner(nuis, spec, nuis.propensity(spec.propensity_l2, spec.clip), diagnostics)


def _run_aipw(data: Dataset, spec: EstimatorSpec, nuis: Nuisances, diagnostics=False):
    _check_arms(nuis, spec.learner)
    mu0, mu1 = [nuis.predictions(spec.learner, spec.mode, spec.umlr_route, ("arm", arm))
                for arm in (0, 1)]
    e = nuis.propensity(spec.propensity_l2, spec.clip)
    return AteEstimate(point=nuis.mean(_aipw_scores(data, mu0, mu1, e)), estimator="aipw",
                       mode=spec.mode, n_used=data.n)


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
    est = _run_t(data, EstimatorSpec(cfg, mode, umlr_route), nuis, with_diagnostics)
    model0, model1 = [nuis.model(cfg, mode, umlr_route, ("arm", arm)) for arm in (0, 1)]
    return model0, model1, est


def _augment(X: np.ndarray, t_col: np.ndarray) -> np.ndarray:
    return np.column_stack([X, t_col])


def s_learner(data: Dataset, cfg: LearnerConfig, mode: str = "mlr",
              umlr_route: str = "auto", with_diagnostics: bool = True,
              nuis: Nuisances | None = None):
    """Single model on [X, t] with a full-sample anchoring split in umlr
    mode; returns (model, estimate)."""
    nuis = nuis or Nuisances(data)
    est = _run_s(data, EstimatorSpec(cfg, mode, umlr_route), nuis, with_diagnostics)
    return nuis.model(cfg, mode, umlr_route, ("s",)), est


def x_learner(data: Dataset, cfg: LearnerConfig, mode: str, prop: PropensityModel,
              umlr_route: str = "auto", with_diagnostics: bool = True,
              nuis: Nuisances | None = None) -> AteEstimate:
    """Two-stage pseudo-outcome learner with propensity-weighted blending.

    Anchoring applies to the stage-1 outcome models only; stage-2 models
    target pseudo-outcomes, not the observed outcome.
    """
    return _x_learner(nuis or Nuisances(data), EstimatorSpec(cfg, mode, umlr_route),
                      prop.predict_proba(data.X), with_diagnostics)


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
    return _aipw_scores(data, _predictions(mu0, data), _predictions(mu1, data),
                        _propensities(prop, data))


def _aipw_scores(data: Dataset, m0: np.ndarray, m1: np.ndarray, e: np.ndarray) -> np.ndarray:
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

    The K folds are the K rows of one :class:`Nuisances` memo, counts row
    b being fold b's training indicator (1 outside the fold, 0 inside), kept
    in ``nuis`` for both modes: one propensity kernel call fits every fold,
    and so does one ridge kernel call per arm for a learner with a count
    kernel (ridge, lam > 0); other learners fit each fold's arm models on
    its training rows. Each row's scores are those of its own fold's fits,
    and the first fold that fails, in fold order, raises.
    """
    check_count("folds", folds, 2)
    check_unit("level", level)
    if folds > data.n:
        raise InvalidInputError("more folds than units")
    nuis = nuis or Nuisances(data)
    fold_of = nuis.folds(folds)
    held = fold_of == np.arange(folds)[:, None]  # (folds, n)
    cross = nuis._get(("cross", folds), lambda: Nuisances(data, (~held).astype(float)))
    cross.status = _ok(folds)
    stacked = _has_count_kernel(cfg)
    own = fold_of, np.arange(data.n)  # each row's values under the fits of its own fold
    with np.errstate(all="ignore"):  # a thin fold may divide by 0; it raises below
        e = cross.propensity(l2, clip)[own]
        m0, m1 = ([cross.predictions(cfg, mode, umlr_route, ("arm", arm))[own] for arm in (0, 1)]
                  if stacked else (np.empty(data.n), np.empty(data.n)))
    for k, test in enumerate(held):  # folds <= n rows dealt round-robin: none is empty
        t_train = data.t[~test]
        if np.count_nonzero(t_train == 0) < 2 or np.count_nonzero(t_train == 1) < 2:
            raise ResamplingError(f"training part of fold {k} has fewer than 2 units in an arm")
        if not stacked:
            m0[test], m1[test] = [nuis.predictions(cfg, mode, umlr_route, ("fold", folds, k, arm))
                                  for arm in (0, 1)]
        if cross.status[k] is not None:
            raise cross.status[k]
    scores = _aipw_scores(data, m0, m1, e)

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
    check_count("B", B, 50)
    check_unit("level", level)
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

    The cells of a registered s/t/x/aipw estimator whose learner is ridge
    with lam > 0 run on a :class:`Nuisances` memo of a chunk of resamples
    (STACK_CELLS cells per stacked array), whose count kernels give each
    resample's point and status; a resample with an error status is counted
    under its class. Every other cell is evaluated one resample at a time
    on the resample's rows, all of them sharing the resample's memo.
    """
    check_count("B", B, 0)
    check_count("seed", seed, 0)
    values = [[None] * B for _ in cells]  # a point, or the class of the error raised
    stacked = [i for i, (entry, spec) in enumerate(cells)
               if entry.run in _STACKED and _has_count_kernel(spec.learner)]
    if stacked:
        # a batched ridge solve or a propensity fit stacks (k, p + 2, n) arrays;
        # above STACK_MAX_P the ridge cells hold about ten (k, n) arrays, each of
        # a third of the budget: fewer, larger chunks form fewer Gram matrices
        props = any(cells[i][0].run in (_run_x, _run_aipw) for i in stacked)
        width = data.p + 2 if data.p <= STACK_MAX_P or props else 3
        chunks = -(-B // max(1, STACK_CELLS // (data.n * width)))
        size = -(-B // chunks)  # chunks of even size
        for lo in range(0, B, size):
            bs = range(lo, min(B, lo + size))
            memo = Nuisances(data, np.array(
                [np.bincount(_draw(data.n, seed, b), minlength=data.n) for b in bs], dtype=float))
            for i in stacked:
                memo.status = _ok(len(bs))
                with np.errstate(all="ignore"):  # a failed resample may divide by 0
                    points = cells[i][0].run(data, cells[i][1], memo).point
                for b, point, error in zip(bs, points.tolist(), memo.status):
                    values[i][b] = point if error is None else type(error).__name__
    others = [i for i in range(len(cells)) if i not in stacked]
    fns = [lambda sub, memo, run=cells[i][0].run, spec=cells[i][1]: run(sub, spec, memo).point
           for i in others]
    for b in range(B if others else 0):
        for i, value in zip(others, _on_resample(data, seed, b, fns)):
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
                 seed: int = 0, method: str = "percentile") -> tuple[float, float]:
    """Case-resampling bootstrap interval for a point estimator.

    ``estimator`` maps a Dataset to a float. Resample b draws its indices
    from a generator seeded with (seed, b), so results are reproducible and
    independent of evaluation order.

    ``method="percentile"`` returns the percentile interval of the resampled
    points. ``method="normal"`` returns ``estimator(data) +- z *
    sd(resampled points)``; for regularized learners, whose resampling
    distribution is shifted by duplicated-row shrinkage, the normal form
    keeps the interval centered on the estimate instead of inheriting that
    shift.

    Raises :class:`UnstableBootstrapError` when the estimator fails on more
    than :data:`BOOTSTRAP_MAX_FAILURE_RATE` of the resamples.
    """
    check_bootstrap(B, level, method)
    check_count("seed", seed, 0)
    fns = [lambda sub, _: estimator(sub)]
    points = [v for b in range(B) for v in _on_resample(data, seed, b, fns)
              if isinstance(v, float)]
    return bootstrap_interval(points, B, level, method, lambda: estimator(data))


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
        check_unit("level", self.level)
        check_count("folds", self.folds, 2)
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


# the runs that take a memo of case resamples
_STACKED = {_run_s, _run_t, _run_x, _run_aipw}
