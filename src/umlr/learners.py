"""Regression learners and the mean-anchoring machinery that removes
systematic prediction bias at the fitting stage.

Three base learners are provided: ridge, lasso (coordinate descent), and
gradient-boosted regression trees, all with an explicit unpenalized
intercept. Each can be fit plain (``mlr`` mode) or forced to satisfy the two
mean-anchoring constraints

    sum_{i in r1} (f(X_i) - y_i) = 0   and   sum_{i in r2} (f(X_i) - y_i) = 0

over the groups r1 = {i: y_i <= mean(y)} and r2 = {i: y_i > mean(y)} of the
outcome being fitted (``umlr`` mode); each anchoring function splits the y it
is given, so the groups cannot come from another outcome. Linear kinds
solve the equality-constrained problem in centred form, where the intercept
meets one constraint and one is left on the coefficients (ridge by a rank-1
correction of its plain solve, lasso by the method of multipliers on its plain
sweep); tree ensembles are anchored after the fact with an exact two-parameter
affine layer a + b * f(x), which satisfies both constraints and counteracts
linear shrinkage by inflating the calibration slope.

The ridge solve, the 2x2 anchoring solve and the propensity Newton loop of
:mod:`umlr.estimators` each have one implementation, a count kernel that
fits k case resamples of the rows given at once; a single-dataset fit is its
kernel at k = 1 with unit counts, and raises the error the kernel reports.

Penalty conventions (intercept never penalized):

    ridge:  sum_i (y_i - a - x_i'b)^2 + lam * ||b||^2
    lasso:  (1/2n) sum_i (y_i - a - x_i'b)^2 + lam * ||b||_1

so the lasso null threshold is lam_max = max_j |X_j'(y - ybar)| / n.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .core import partition_by_mean
from .errors import (
    ConvergenceError,
    DegeneratePartitionError,
    InvalidInputError,
    RecalibrationSingularError,
    SingularSystemError,
    check_choice,
    check_count,
    check_nonnegative,
    check_unit,
)

__all__ = [
    "LearnerConfig",
    "FittedModel",
    "fit",
    "fit_constrained_linear",
    "anchor_recalibrate",
    "LINEAR_GROUP_TOL",
    "GBT_GROUP_TOL",
]

LINEAR_GROUP_TOL = 1e-8  # x n x sd(y), constrained linear fits
GBT_GROUP_TOL = 1e-6  # x n x sd(y), anchored tree ensembles
LASSO_COEF_TOL = 1e-7
LASSO_MAX_SWEEPS = 10_000
RIDGE_RESID_TOL = 1e-10
ANCHOR_DET_TOL = 1e-12  # x the scale of the 2x2 anchoring system
# Designs of at most this many columns solve the ridge fits of all stacked
# resamples in one batch; wider ones fit each resample on its distinct rows.
STACK_MAX_P = 32
_INFEASIBLE = ("anchoring constraints infeasible: the below-mean group "
               "has the covariate means of the whole sample")
_EMPTY = "an anchoring group of the resample is empty; cannot form two anchoring groups"

_KINDS = ("ridge", "lasso", "gbt")


@dataclass(frozen=True)
class LearnerConfig:
    """Hyperparameters of a base learner; loss is fixed to squared error."""

    kind: str = "ridge"
    lam: float = 1.0
    n_trees: int = 200
    max_depth: int = 3
    learning_rate: float = 0.1
    min_leaf: int = 5

    def __post_init__(self):
        check_choice("kind", self.kind, _KINDS)
        check_nonnegative("lam", self.lam)
        for key in ("n_trees", "max_depth", "min_leaf"):
            check_count(key, getattr(self, key), 1)
        check_unit("learning_rate", self.learning_rate, "(]")


@dataclass(frozen=True)
class _Tree:
    """Flat-array regression tree: internal nodes route, leaves hold values."""

    feature: np.ndarray  # int, -1 for leaves
    threshold: np.ndarray
    left: np.ndarray  # child indices, -1 for leaves
    right: np.ndarray
    value: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:  # routes all rows down one level per pass
            feat = self.feature[node]
            active = feat >= 0
            if not np.any(active):
                break
            idx = np.flatnonzero(active)
            f = feat[idx]
            go_left = X[idx, f] <= self.threshold[node[idx]]
            node[idx] = np.where(go_left, self.left[node[idx]], self.right[node[idx]])
        return self.value[node]


@dataclass(frozen=True)
class FittedModel:
    """A trained regressor plus optional anchoring recalibration.

    An anchored (``umlr``) model carries its training residual group sums,
    which must meet their tolerance (1e-8 * n * sd(y) for linear kinds,
    1e-6 * n * sd(y) for gbt); construction enforces this.
    """

    config: LearnerConfig
    p: int
    coef: np.ndarray | None = None
    intercept: float | None = None
    trees: tuple[_Tree, ...] | None = None
    init_value: float | None = None
    train_mse_path: tuple[float, ...] | None = None
    anchor: tuple[float, float] | None = None
    group_residual_sums: tuple[float, float] | None = None
    group_tol: float | None = None
    # a tree ensemble's plain predictions at its training rows, kept from boosting
    train_pred: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.group_residual_sums is not None:
            if self.group_tol is None:
                raise InvalidInputError("an anchored model must carry its group tolerance")
            s1, s2 = self.group_residual_sums
            if not (abs(s1) <= self.group_tol and abs(s2) <= self.group_tol):  # nan fails
                raise InvalidInputError(
                    f"anchoring constraints violated: |{s1:.3e}|, |{s2:.3e}| > {self.group_tol:.3e}"
                )
        if self.coef is not None:
            c = np.asarray(self.coef, dtype=float)
            c.setflags(write=False)
            object.__setattr__(self, "coef", c)

    @property
    def mode(self) -> str:
        return "mlr" if self.group_residual_sums is None else "umlr"

    def _base_predict(self, X: np.ndarray) -> np.ndarray:
        if self.coef is not None:
            return self.intercept + X @ self.coef
        out = np.full(X.shape[0], self.init_value, dtype=float)
        lr = self.config.learning_rate
        for tree in self.trees:
            out += lr * tree.predict(X)
        return out

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.p:
            raise InvalidInputError(
                f"X must have shape (m, {self.p}), got {X.shape}"
            )
        if X.shape[0] == 0:
            return np.empty(0)
        out = self._base_predict(X)
        if self.anchor is not None:
            a, b = self.anchor
            out = a + b * out
        return out


# ---------------------------------------------------------------------------
# unconstrained fits
# ---------------------------------------------------------------------------

def _validate_xy(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise InvalidInputError(f"X must be 2-d, got shape {X.shape}")
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise InvalidInputError("y must be 1-d with one entry per row of X")
    if X.shape[0] < 2:
        raise InvalidInputError("need at least 2 training rows")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise InvalidInputError("training data contains non-finite entries")
    return X, y


def _fit_ridge(config: LearnerConfig, X: np.ndarray, y: np.ndarray,
               below: np.ndarray | None = None) -> FittedModel:
    """Plain ridge, or given the mask ``below`` of r1 ridge under both
    anchoring constraints: :func:`_ridge_kernel` at k = 1."""
    below = None if below is None else below[None]
    fits = _ridge_kernel(config.lam, X, y, np.ones((1, len(y))), below)[-1]
    _raise(fits.status)
    anchoring = {} if below is None else {"group_residual_sums": tuple(fits.sums[:, 0].tolist()),
                                          "group_tol": float(fits.tol[0])}
    return FittedModel(config=config, p=X.shape[1], coef=fits.coef[0],
                       intercept=float(fits.intercept[0]), **anchoring)


def _lasso_sweep(dots, rows, coef, resid, col_msq, lam, n, active=None):
    """One pass of cyclic coordinate descent; returns max |coef update|.

    Each column of the centred design enters in two layouts. ``dots[j]`` is
    the bound ``ndarray.dot`` of column j as a strided view of the design:
    the dot with ``resid`` must stay on that view, because a contiguous copy
    takes another BLAS kernel with another summation order; the bound method
    is also the cheapest call that ends in that ddot (``@`` goes through the
    matmul gufunc). ``rows[j]`` is a contiguous copy of the same column,
    used for the update ``resid -= rows[j] * delta``: an elementwise
    multiply and subtract give the same bits in any layout, and run faster
    on contiguous memory; the product goes to one buffer for the sweep, not
    a new array per update. ``coef`` holds the coefficients as a list of
    Python floats and ``col_msq`` their squared norms over ``n`` as Python
    floats; each step is the soft-threshold update, in IEEE operations on
    floats.
    """
    max_delta = 0.0
    buf = np.empty_like(resid)
    for j in range(len(dots)) if active is None else active:
        cj = col_msq[j]
        if cj == 0.0:
            continue
        old = coef[j]
        z = float(dots[j](resid)) / n + cj * old
        if z > lam:
            new = (z - lam) / cj
        elif z < -lam:
            new = (z + lam) / cj
        else:
            new = 0.0
        if new != old:
            delta = new - old
            resid -= np.multiply(rows[j], delta, out=buf)
            coef[j] = new
            if abs(delta) > max_delta:
                max_delta = abs(delta)
    return max_delta


def _fit_lasso(config: LearnerConfig, X: np.ndarray, y: np.ndarray) -> FittedModel:
    n, p = X.shape
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    dots, rows = [col.dot for col in Xc.T], list(Xc.T.copy())
    col_msq = (Xc * Xc).mean(axis=0).tolist()
    coef = [0.0] * p
    resid = y - y_mean
    for _ in range(LASSO_MAX_SWEEPS):
        delta = _lasso_sweep(dots, rows, coef, resid, col_msq, config.lam, n)
        if delta < LASSO_COEF_TOL:
            break
        # cheap inner loop over the current active set before the next full sweep
        active = [j for j, b in enumerate(coef) if b]
        for _ in range(LASSO_MAX_SWEEPS):
            if _lasso_sweep(dots, rows, coef, resid, col_msq, config.lam, n,
                            active) < LASSO_COEF_TOL:
                break
    else:
        raise ConvergenceError("lasso coordinate descent did not converge")
    coef = np.array(coef)
    intercept = y_mean - x_mean @ coef
    return FittedModel(config=config, p=p, coef=coef, intercept=float(intercept))


def _best_split(xs: np.ndarray, rs: np.ndarray, min_leaf: int):
    """Exact greedy split of one node; returns (feature, threshold) or None.

    ``xs`` and ``rs`` are (p, m): row j holds the node's values of feature j
    and their residuals in stable ascending order of that feature. Among
    equal scores the first candidate in (position, feature) order wins.
    """
    p, m = xs.shape
    if m < 2 * min_leaf:
        return None
    cs = np.cumsum(rs, axis=1)
    total = cs[:, -1:]
    # a cut after sorted position i leaves k = i + 1 rows on the left; only
    # positions with min_leaf <= k <= m - min_leaf are candidates
    lo, hi = min_leaf - 1, m - min_leaf
    left = cs[:, lo:hi]
    k = np.arange(min_leaf, hi + 1, dtype=float)
    score = np.square(left)  # left**2 / k + (total - left)**2 / (m - k), in place
    score /= k
    right = np.subtract(total, left)
    np.square(right, out=right)
    right /= m - k
    score += right
    valid = xs[:, lo + 1 : hi + 1] > xs[:, lo:hi]
    if not valid.all():
        if not valid.any():
            return None
        score = np.where(valid, score, -np.inf)
    i, j = divmod(int(np.argmax(score.T)), p)
    gain = score[j, i] - (total[j, 0] ** 2) / m
    if gain <= 0.0:
        return None
    i += lo
    thr = 0.5 * (xs[j, i] + xs[j, i + 1])
    return j, float(thr)


def _grow_tree(X: np.ndarray, order: np.ndarray, xs: np.ndarray, r: np.ndarray,
               pred: np.ndarray, config: LearnerConfig) -> _Tree:
    """Grow one tree on residuals ``r`` and add its scaled leaf values to
    ``pred`` in place.

    ``order`` (p, n) holds every column's stable argsort and ``xs`` the
    matching sorted values. Each node carries its rows in increasing order
    and its slice of ``order``/``xs``; a split partitions them with a row
    mask, which keeps every column sorted with ties in row order, so no node
    sorts again.
    """
    max_depth, min_leaf, lr = config.max_depth, config.min_leaf, config.learning_rate
    p = X.shape[1]
    in_left = np.zeros(X.shape[0], dtype=bool)
    feature, threshold, left, right, value = [], [], [], [], []

    def add_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    def build(rows: np.ndarray, idx, xv, depth: int) -> int:
        # idx/xv are None for a node too deep or too small to split
        node = add_node()
        split = None if idx is None else _best_split(xv, r[idx], min_leaf)
        if split is None:
            leaf = float(r[rows].sum() / rows.size)  # what np.mean computes
            value[node] = leaf
            pred[rows] += lr * leaf
            return node
        j, thr = split
        go_left = X[rows, j] <= thr
        feature[node] = j
        threshold[node] = thr
        in_left[rows] = go_left
        sel = in_left[idx]
        for links, keep, cols in ((left, go_left, sel), (right, ~go_left, ~sel)):
            sub, sub_idx, sub_xv = rows[keep], None, None
            if depth + 1 < max_depth and sub.size >= 2 * min_leaf:
                pos = np.flatnonzero(cols)  # same order as boolean indexing, faster
                sub_idx, sub_xv = idx.take(pos).reshape(p, -1), xv.take(pos).reshape(p, -1)
            links[node] = build(sub, sub_idx, sub_xv, depth + 1)
        return node

    build(np.arange(X.shape[0]), order, xs, 0)
    return _Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value),
    )


def _fit_gbt(config: LearnerConfig, X: np.ndarray, y: np.ndarray) -> FittedModel:
    n, p = X.shape
    order = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)
    xs = X[order, np.arange(p)[:, None]]
    init = float(y.mean())
    pred = np.full(n, init)
    trees = []
    mse_path = []
    with np.errstate(invalid="ignore"):  # inf - inf in split scores of overflowing residuals
        for _ in range(config.n_trees):
            resid = y - pred
            trees.append(_grow_tree(X, order, xs, resid, pred, config))
            mse_path.append(float(np.mean((y - pred) ** 2)))
    return FittedModel(config=config, p=p, trees=tuple(trees), init_value=init,
                       train_mse_path=tuple(mse_path), train_pred=pred)


def fit(config: LearnerConfig, X, y) -> FittedModel:
    """Fit an unconstrained (mlr-mode) learner by empirical risk minimization."""
    X, y = _validate_xy(X, y)
    if config.kind == "ridge":
        return _fit_ridge(config, X, y)
    if config.kind == "lasso":
        return _fit_lasso(config, X, y)
    return _fit_gbt(config, X, y)


# ---------------------------------------------------------------------------
# anchoring constraints
# ---------------------------------------------------------------------------

def _below(y: np.ndarray) -> np.ndarray:
    """The mask of the group r1 of :func:`partition_by_mean`'s split of y."""
    below = np.zeros(y.shape[0], dtype=bool)
    below[partition_by_mean(y).r1] = True
    return below


def anchor_recalibrate(base: FittedModel, X_train, y_train) -> FittedModel:
    """Wrap a fitted model in the affine layer a + b * f(x) that zeroes both
    training residual group sums exactly.

    The groups are the split of ``y_train`` at its mean, ties at the mean in
    r1; a constant ``y_train`` raises :class:`DegeneratePartitionError`.
    Works for any base learner; it is the umlr route for tree ensembles,
    where the constrained objective has no tractable exact solution.
    """
    X_train, y_train = _validate_xy(X_train, y_train)
    # an anchored base is solved on its plain predictions: affine layers
    # compose and the 2x2 system has one solution, so the layer is the same
    return _anchor(base, replace(base, anchor=None).predict(X_train), y_train)


def _anchor(base: FittedModel, raw: np.ndarray, y: np.ndarray) -> FittedModel:
    """:func:`anchor_recalibrate` given ``raw``, the plain predictions of
    ``base`` at the training rows of ``y``: :func:`_anchor_kernel` at k = 1."""
    tol_scale = GBT_GROUP_TOL if base.trees is not None else LINEAR_GROUP_TOL
    a, b, sums, tol, status = _anchor_kernel(raw[None], y, np.ones((1, y.shape[0])),
                                             _below(y)[None], tol_scale)
    _raise(status)
    return replace(base, anchor=(float(a[0]), float(b[0])),
                   group_residual_sums=tuple(sums[:, 0].tolist()), group_tol=float(tol[0]))


def _fit_constrained_lasso(config, X, y, below, plain) -> FittedModel:
    """Coordinate descent on the l1-penalized loss augmented with a multiplier
    and a quadratic term for the centred constraint m'b = c (m = u / n1,
    c = s / n1), finished by one exact affine projection so feasibility holds
    to machine precision. The augmented term (rho/2)(m'b - c + mu/rho)^2 is
    the loss of one more design row sqrt(rho n) m with target
    sqrt(rho n) (c - mu/rho), so each multiplier step is one plain sweep.

    A bare sweep/project alternation cycles: each projection inflates the
    coefficients and the following sweep pulls them straight back. Folding
    the constraint into the swept objective (method of multipliers) removes
    the cycle while keeping every update a soft-threshold step. The sweep
    warm-starts from ``plain``, the plain lasso of the same rows, fitted here
    when it is None.
    """
    n, p = X.shape
    n1 = int(np.count_nonzero(below))
    n2 = n - n1
    start = _fit_lasso(config, X, y) if plain is None else plain  # warm start, before the copy
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    A = np.empty((n + 1, p))  # centred design, then the multiplier row
    Xc = np.subtract(X, x_mean, out=A[:n])
    yc = y - y_mean
    m = Xc[below].mean(axis=0)
    c = float(yc[below].mean())
    if not np.any(m):  # m'b = c < 0 has no solution
        raise SingularSystemError(_INFEASIBLE)
    dots = [col.dot for col in A.T]
    At = A.T.copy()  # contiguous columns of A, for the residual updates
    rows = list(At)
    msq = (Xc * Xc).mean(axis=0)
    tol = LINEAR_GROUP_TOL * n * max(float(np.std(y)), 1e-300)
    mean_tol = tol / max(n1, n2)  # per-group mean residual scale

    coef = start.coef.tolist()
    resid = np.empty(n + 1)
    resid[:n] = yc - Xc @ start.coef
    v = float(m @ start.coef) - c  # group-1 mean residual; group 2's is -v n1/n2
    mu, rho, row_rho, prev_feas = 0.0, 1.0, 0.0, np.inf
    for sweep in range(LASSO_MAX_SWEEPS):
        if rho != row_rho:
            root, row_rho = np.sqrt(rho * n), rho
            At[:, n] = A[n] = root * m  # the multiplier row, in both layouts
            col_msq = (msq + rho * m * m).tolist()
        resid[n] = -root * (v + mu / rho)
        max_delta = _lasso_sweep(dots, rows, coef, resid, col_msq, config.lam, n)
        v = float(m @ coef) - c
        mu += rho * v
        feas = abs(v) * max(1.0, n1 / n2)
        if max_delta < LASSO_COEF_TOL and feas <= mean_tol:
            break
        if sweep % 10 == 9:
            if feas > 0.5 * prev_feas:
                rho = min(rho * 2.0, 1e8)
            prev_feas = feas
    else:
        raise ConvergenceError("constrained lasso did not converge")

    coef = np.asarray(coef)
    intercept = y_mean - x_mean @ coef
    a, b, _, _, status = _anchor_kernel((intercept + X @ coef)[None], y, np.ones((1, n)),
                                        below[None], LINEAR_GROUP_TOL)  # exact feasibility finish
    _raise(status)
    intercept = float(a[0] + b[0] * intercept)
    coef = b[0] * coef
    sums = _group_sums((intercept + X @ coef - y)[None], below[None])[:, 0]
    return FittedModel(config=config, p=p, coef=coef, intercept=intercept,
                       group_residual_sums=tuple(sums.tolist()), group_tol=tol)


def fit_constrained_linear(config: LearnerConfig, X, y, *,
                           plain: FittedModel | None = None) -> FittedModel:
    """Fit ridge or lasso subject to both anchoring constraints (umlr mode).

    The groups are the split of ``y`` at its mean, ties at the mean in r1; a
    constant ``y`` raises :class:`DegeneratePartitionError`. The centred
    intercept ybar - xbar'b zeroes the total residual sum, so one
    constraint is left: u'b = s with u = sum_{r1} (x_i - xbar) and
    s = sum_{r1} (y_i - ybar); u = 0 raises :class:`SingularSystemError`.
    Ridge corrects its plain solution along one direction of the same solve
    (exact equality-constrained least squares); lasso runs its plain sweep on
    the centred design plus one multiplier row (method of multipliers) and
    finishes with one exact affine projection onto the constraint set.

    ``plain``, the plain (mlr) fit ``fit(config, X, y)`` of the same data,
    is lasso's warm start; without it lasso fits it first. It is only read,
    and the result is the same either way. Ridge solves both fits at once
    and does not use it.
    """
    if config.kind not in ("ridge", "lasso"):
        raise InvalidInputError("constrained fitting applies to linear kinds; use "
                                "anchor_recalibrate for gbt")
    X, y = _validate_xy(X, y)
    if plain is not None and (plain.config != config or plain.p != X.shape[1]
                              or plain.mode != "mlr"):
        raise InvalidInputError("plain must be the mlr fit of the same config and columns")
    below = _below(y)
    if config.kind == "ridge":
        return _fit_ridge(config, X, y, below)
    return _fit_constrained_lasso(config, X, y, below, plain)


# ---------------------------------------------------------------------------
# count kernels: the fits of one design under k case resamples at once
# ---------------------------------------------------------------------------
# Resample b draws row i c[b, i] times. Each operation acts on each
# resample's row alone, so no number depends on what is stacked with it, and
# at k = 1 with unit counts the numbers are those of the single-dataset fit.
# A kernel returns each resample's status: None or the error its fit raises.

class _Fits(NamedTuple):
    """Linear fits of k resamples, with an anchored fit's layer (a, b) as
    (k, 1) columns, or a constrained fit's group residual sums (2, k) and
    tolerances (k,)."""

    coef: np.ndarray  # (k, q)
    intercept: np.ndarray  # (k,)
    status: np.ndarray  # (k,)
    anchor: tuple[np.ndarray, np.ndarray] | None = None
    sums: np.ndarray | None = None
    tol: np.ndarray | None = None

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = self.intercept[:, None] + np.matvec(X, self.coef)  # (k, m)
        return out if self.anchor is None else self.anchor[0] + self.anchor[1] * out


def _ok(k) -> np.ndarray:
    return np.empty(k, dtype=object)  # all None


def _fail(status: np.ndarray, bad: np.ndarray, error: type, message: str) -> None:
    """Record ``error(message)`` for each resample in ``bad`` that has not
    failed yet."""
    if np.logical_or.reduce(bad, axis=None):
        status[bad & np.equal(status, None)] = error(message)


def _merge(status: np.ndarray, other: np.ndarray) -> None:
    """Record the errors of the status ``other`` where ``status`` has none."""
    if any(other):
        new = np.equal(status, None) & np.not_equal(other, None)
        status[new] = other[new]


def _raise(status: np.ndarray) -> None:
    if status[0] is not None:
        raise status[0]


def _solve(A: np.ndarray, B: np.ndarray):
    """Each stacked system A x = B on its own, and the mask of those LAPACK
    finds singular (None when there are none)."""
    try:
        return np.linalg.solve(A, B), None
    except np.linalg.LinAlgError:
        x, singular = np.full(B.shape, np.nan), np.zeros(len(A), dtype=bool)
        for b in range(len(A)):
            try:
                x[b] = np.linalg.solve(A[b], B[b])
            except np.linalg.LinAlgError:
                singular[b] = True
        return x, singular


def _normal_solve(lam, X, c, m, V):
    """Each resample centred at its means, its rows scaled by sqrt(c) into
    Zw (V (k, columns, n) into Vw), rhs = Vw Zw: the solution s (k, q,
    columns) of (Zw'Zw + lam I) s = rhs', or least squares at lam = 0; with
    the means of X, rhs and each column's status."""
    k, q = len(c), X.shape[1]
    x_sum = (X[:, :, None] * np.ascontiguousarray(c.T)[:, None, :]).sum(axis=0)  # rows in order
    x_mean = np.ascontiguousarray(x_sum.T) / m[:, None]
    root = np.sqrt(c)
    Zw = X - x_mean[:, None, :]
    Zw *= root[:, :, None]
    Vw = V * root[:, None, :]
    rhs = Vw @ Zw
    status = _ok(V.shape[:2])
    if lam == 0.0:
        sol = np.empty((k, q, V.shape[1]))
        for b in range(k):
            sol[b], _, rank, _ = np.linalg.lstsq(Zw[b], Vw[b].T, rcond=None)
            if rank < q:
                status[b] = SingularSystemError(
                    "design is rank-deficient and lam = 0; increase lam or drop columns")
        return x_mean, rhs, sol, status
    A, B = np.swapaxes(Zw, 1, 2) @ Zw, np.swapaxes(rhs, 1, 2)
    A.reshape(k, -1)[:, ::q + 1] += lam
    a, singular = _solve(A, B)
    r = A @ a - B
    _check_solution(status, singular, np.vecdot(r, r, axis=1), rhs)
    return x_mean, rhs, a, status


def _check_solution(status, singular, resid, rhs) -> None:
    """Fail the columns of each system LAPACK found ``singular``, then each
    column whose squared residual of the centred normal equations, or its
    bound, ``resid`` exceeds RIDGE_RESID_TOL^2 ||rhs||^2 (nan fails)."""
    if singular is not None:
        _fail(status, singular[:, None], SingularSystemError, "Singular matrix")
    _fail(status, ~(resid <= RIDGE_RESID_TOL**2 * np.maximum(np.vecdot(rhs, rhs), 1e-300)),
          SingularSystemError, "penalized normal equations solved inaccurately")


def _centred_gram(X):
    """The column means mu of X, X0 = X - mu, and [[X0 X0', 1], [1', 0]]:
    centred before the product, large column offsets do not cancel in it."""
    mu = X.mean(axis=0)
    X0 = X - mu
    Gb = np.pad(X0 @ X0.T, (0, 1), constant_values=1.0)
    Gb[-1, -1] = 0.0
    return mu, X0, Gb


def _dual_solve(lam, gram, d, c, m, V):
    """:func:`_normal_solve` of one resample whose drawn rows ``d`` (counts c,
    V (columns, d)) are fewer than q, in the kernel-ridge dual with an
    unpenalized bias (Saunders, Gammerman & Vovk, 1998): with (mu, X0, Gb) =
    ``gram()``, [[X0_d X0_d' + lam diag(1/c), 1], [1', 0]] [beta; beta0] =
    [V'; 0] takes its matrix from Gb, s = X0_d' beta, and the same product
    gives m xb = c'X0_d: the mean mu + xb, rhs = X0_d'(c V') - m xb vbar.
    Its residual (r1; r2) leaves (Z'CZ + lam I) s - Z'CV' = Z'C r1 + lam r2 xb
    in the centred normal equations (Z = X0_d - 1 xb', C = diag(c); put in
    lam beta = C (V' - beta0 - X0_d s + r1) and 1'beta = r2), so the check
    bounds it by ||sqrt(C) Z||_F ||sqrt(c) r1|| + lam |r2| ||xb||, with
    ||sqrt(C) Z||_F^2 = c'diag(X0_d X0_d') - m ||xb||^2."""
    mu, X0, Gb = gram()
    n, cols = d.size, len(V)
    at = np.append(d, len(X0))
    A = Gb.take(at, axis=0).take(at, axis=1)
    A.reshape(-1)[:-1:n + 2] += lam / c
    B = np.zeros((n + 1, cols))
    B[:n] = V.T
    a, singular = _solve(A[None], B[None])
    r = A @ a[0] - B
    prod = np.concatenate([a[0, :n].T, c * V, c[None]]) @ X0.take(d, axis=0)
    xb = prod[-1] / m
    rhs = prod[cols:-1] - ((V @ c) / m)[:, None] * prod[-1]
    zw = np.sqrt(max(c @ Gb.diagonal().take(d) - m * (xb @ xb), 0.0))
    bound = zw * np.sqrt(c @ np.square(r[:n])) + lam * np.abs(r[n]) * np.sqrt(xb @ xb)
    status = _ok((1, cols))
    _check_solution(status, singular, (bound * bound)[None], rhs[None])
    # laid out as the primal solutions are: predictions sum in the layout's order
    return (mu + xb)[None], rhs[None], np.ascontiguousarray(prod[:cols].T)[None], status


@np.errstate(all="ignore")
def _ridge_kernel(lam: float, X: np.ndarray, y: np.ndarray, c: np.ndarray,
                  below: np.ndarray | None = None) -> list[_Fits]:
    """Ridge fits of X (n, q) to y, (n,) or (k, n), under the resamples c:
    ``[plain]``, or given each resample's group r1 ``below`` (k, n), ``[plain,
    under both anchoring constraints]``. Up to STACK_MAX_P columns the k are
    solved in one batch, above it each on its d drawn rows: the q x q primal
    system when d >= q or lam = 0, else the (d + 1) x (d + 1) bordered dual
    from the one Gram matrix of the call (:func:`_dual_solve`), a fit at
    k = 1 with n < q included. The constrained fit moves the plain one along
    w, the solution for the r1 indicator, until u'b = s (see
    :func:`fit_constrained_linear`)."""
    c, y = np.ascontiguousarray(c), np.ascontiguousarray(y)  # rows laid out alike for any k
    m = c.sum(axis=1)  # counts: exact in any order
    y_mean = (c * y).sum(axis=1) / m
    yc = y - y_mean[:, None]
    V = yc[:, None, :] if below is None else np.concatenate([yc[:, None, :], below[:, None, :]], 1)
    if X.shape[1] <= STACK_MAX_P:
        x_mean, rhs, sol, status = _normal_solve(lam, X, c, m, V)
    else:
        gram = functools.cache(lambda: _centred_gram(X))  # made for the first dual resample
        x_mean, rhs, sol, status = map(np.concatenate, zip(*(
            _dual_solve(lam, gram, d, cb[d], mb, vb[:, d]) if lam > 0 and d.size < X.shape[1]
            else _normal_solve(lam, X[d], cb[None, d], mb[None], vb[None, :, d])
            for cb, mb, vb in zip(c, m, V) for d in [np.flatnonzero(cb)])))
    coef = sol[:, :, 0]
    fits = [_Fits(coef, y_mean - np.vecdot(x_mean, coef), status[:, 0])]
    if below is None:
        return fits
    st, c1 = _ok(len(c)), c * below
    n1 = c1.sum(axis=1)
    _fail(st, (n1 == 0) | (n1 == m), DegeneratePartitionError, _EMPTY)
    _merge(st, status[:, 0])
    _merge(st, status[:, 1])
    u, w = rhs[:, 1], sol[:, :, 1]
    uw = np.vecdot(u, w)
    _fail(st, ~(uw > 0.0), SingularSystemError, _INFEASIBLE)  # u = 0: u'b = s < 0 has no solution
    coef = coef - w * ((np.vecdot(u, coef) - np.vecdot(c1, yc)) / uw)[:, None]
    fit = _Fits(coef, y_mean - np.vecdot(x_mean, coef), st)
    resid = fit.predict(X) - y
    sums = np.array([np.vecdot(c1, resid), np.vecdot(c - c1, resid)])
    tol = LINEAR_GROUP_TOL * m * np.maximum(np.sqrt(np.vecdot(c * yc, yc) / m), 1e-300)  # sd(y)
    _fail(st, ~(np.abs(sums) <= tol).all(axis=0),
          SingularSystemError, "constrained ridge solution violates the anchoring constraints")
    return fits + [fit._replace(sums=sums, tol=tol)]


def _group_sums(v: np.ndarray, below: np.ndarray) -> np.ndarray:
    """(2, k): each row of v (k, n) summed over its r1 and its r2 entries in
    row order, as ``v[r1].sum()`` sums."""
    return np.array([(vb[mb].sum(), vb[~mb].sum()) for vb, mb in zip(v, below)]).T


@np.errstate(all="ignore")
def _anchor_kernel(raw: np.ndarray, y: np.ndarray, c: np.ndarray, below: np.ndarray,
                   tol_scale: float):
    """The 2x2 anchoring system n_g a + b sum_g(raw) = sum_g(y) of the
    predictions raw (k, n) of y (n,) under the resamples c, groups r1
    ``below``: a and b (k,), the group residual sums (2, k), their
    tolerances tol_scale * n * sd(y), and the status. Groups sum in row
    order, so at k = 1 the layer is the one anchor_recalibrate always had."""
    c, raw = np.ascontiguousarray(c), np.ascontiguousarray(raw)  # rows laid out alike for any k
    status, m = _ok(len(c)), c.sum(axis=1)
    n1 = (c * below).sum(axis=1)
    n2 = m - n1
    _fail(status, (n1 == 0) | (n2 == 0), DegeneratePartitionError, _EMPTY)
    (s1p, s2p), (s1y, s2y) = _group_sums(c * raw, below), _group_sums(c * y, below)
    gap = y - ((c * y).sum(axis=1) / m)[:, None]
    sd = np.sqrt((c * (gap * gap)).sum(axis=1) / m)
    det = n1 * s2p - n2 * s1p
    scale = np.maximum(np.maximum(np.abs(n1 * s2p), np.abs(n2 * s1p)),
                       np.maximum(n1 * n2 * sd, 1e-300))
    _fail(status, np.abs(det) <= ANCHOR_DET_TOL * scale, RecalibrationSingularError,
          "base predictions have equal means in both groups; anchoring system singular")
    b = (n1 * s2y - n2 * s1y) / det
    a = (s1y - b * s1p) / n1
    sums = _group_sums(c * (a[:, None] + b[:, None] * raw - y), below)
    tol = tol_scale * m * np.maximum(sd, 1e-300)
    _fail(status, ~(np.abs(sums) <= tol).all(axis=0),  # nan fails
          InvalidInputError, "anchoring constraints violated by the affine layer")
    return a, b, sums, tol, status
