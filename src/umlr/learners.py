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
PREDICT_BLOCK_CELLS = 2**14  # trees x rows that a tree ensemble's prediction routes at once
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
    forest: tuple | None = field(default=None, repr=False, compare=False)  # see _forest

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
        # a block of trees routes every row one level per pass, X[i, j] being
        # flat[offset[i] + j]; then each tree's values are added in tree order
        roots, feature, threshold, left, right, value = self.forest
        out, flat, offset = np.full(len(X), self.init_value), X.ravel(), np.arange(len(X)) * self.p
        block = max(1, PREDICT_BLOCK_CELLS // max(len(X), 1))
        for start in range(0, roots.size, block):
            node = np.repeat(roots[start:start + block, None], len(X), axis=1)  # (trees, rows)
            for _ in range(self.config.max_depth if self.p else 0):
                node = np.where(flat.take(offset + feature.take(node)) <= threshold.take(node),
                                left.take(node), right.take(node))
            for v in value.take(node):
                out += v
        return out

    def fitted(self, X) -> np.ndarray:
        """``predict(X)`` at the training rows X: the same numbers, which a tree
        ensemble kept from boosting."""
        return self.predict(X) if self.train_pred is None else self._anchored(self.train_pred)

    def _anchored(self, out: np.ndarray) -> np.ndarray:
        return out if self.anchor is None else self.anchor[0] + self.anchor[1] * out

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.p:
            raise InvalidInputError(
                f"X must have shape (m, {self.p}), got {X.shape}"
            )
        return np.empty(0) if X.shape[0] == 0 else self._anchored(self._base_predict(X))


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


def _best_split(rs: np.ndarray, min_leaf: int, xs: np.ndarray | None):
    """Exact greedy split of one node: (j, i) to cut feature j after sorted
    position i, or None. ``rs`` and ``xs`` are (p, m): row j holds the node's
    residuals and values of feature j in stable ascending order of that
    feature. No cut falls between equal values; ``xs`` is None when no row
    repeats one. Among equal scores the first candidate in (position,
    feature) order wins."""
    p, m = rs.shape
    if m < 2 * min_leaf or p == 0:
        return None
    cs = np.empty((m, p))
    np.cumsum(rs, axis=1, out=cs.T)  # each feature's running sum, in sorted order
    total = cs[-1]
    # a cut after sorted position i leaves k = i + 1 rows on the left; only
    # positions with min_leaf <= k <= m - min_leaf are candidates
    lo, hi = min_leaf - 1, m - min_leaf
    left = cs[lo:hi]
    k = np.arange(min_leaf, hi + 1, dtype=float)[:, None]
    score = np.square(left)  # left**2 / k + (total - left)**2 / (m - k), in place
    score /= k
    right = np.subtract(total, left)
    np.square(right, out=right)
    right /= m - k
    score += right
    if xs is not None and not (valid := xs[:, lo + 1 : hi + 1] > xs[:, lo:hi]).all():
        if not valid.any():
            return None
        score[~valid.T] = -np.inf
    i, j = divmod(int(np.argmax(score)), p)
    gain = score[i, j] - (total[j] ** 2) / m
    return None if gain <= 0.0 else (j, i + lo)


def _grow_tree(xt: np.ndarray, order: np.ndarray, xs: np.ndarray | None, r: np.ndarray,
               pred: np.ndarray, config: LearnerConfig) -> _Tree:
    """Grow one tree on residuals ``r`` and add its scaled leaf values to
    ``pred`` in place.

    ``xt`` (p, n) holds the design's columns, ``order`` their stable argsorts
    and ``xs`` the sorted values, or None when no column has tied values.
    Each node carries its rows in increasing order and its slice of
    ``order``/``xs``; a split partitions them by side, which keeps every
    column sorted with ties in row order, so no node sorts again.
    """
    max_depth, min_leaf, lr = config.max_depth, config.min_leaf, config.learning_rate
    p, n = xt.shape
    leaf_of = np.empty(n, dtype=np.int64)
    feature, threshold, left, right, value = columns = [], [], [], [], []

    def build(rows: np.ndarray, idx, xv, depth: int) -> int:
        # idx/xv are None for a node too deep or too small to split
        node = len(feature)
        for column, blank in zip(columns, (-1, 0.0, -1, -1, 0.0)):  # a leaf until split
            column.append(blank)
        split = None if idx is None else _best_split(r.take(idx), min_leaf, xv)
        if split is None:
            value[node] = float(r[rows].sum() / rows.size)  # what np.mean computes
            leaf_of[rows] = node
            return node
        j, i = split
        a, b = xt[j].take(idx[j, i:i + 2])  # the values either side of the cut
        thr = float(0.5 * (a + b))
        feature[node], threshold[node] = j, thr
        go_left = xt[j].take(rows) <= thr
        # the entries of idx that go left, when a child can split
        sel = xt[j].take(idx.ravel()) <= thr if depth + 1 < max_depth else None
        for links, keep, side in ((left, go_left, True), (right, ~go_left, False)):
            sub, sub_idx, sub_xv = rows[keep], None, None
            if sel is not None and sub.size >= 2 * min_leaf:
                pos = (sel if side else ~sel).nonzero()[0]  # the order boolean indexing takes
                sub_idx = idx.take(pos).reshape(p, -1)
                sub_xv = None if xv is None else xv.take(pos).reshape(p, -1)
            links[node] = build(sub, sub_idx, sub_xv, depth + 1)
        return node

    build(np.arange(n), order, xs, 0)
    value = np.asarray(value)
    pred += (lr * value).take(leaf_of)  # each row's one add of lr * its leaf's value
    return _Tree(np.asarray(feature, dtype=np.int64), np.asarray(threshold),
                 np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64), value)


def _forest(trees: list[_Tree], lr: float) -> tuple[np.ndarray, ...]:
    """All ``trees`` as one array of nodes: the roots, and per node its feature,
    threshold, children and ``lr`` * value; a leaf routes to itself on feature 0."""
    sizes = [t.value.size for t in trees]
    roots = np.cumsum([0] + sizes[:-1])
    feature, threshold, left, right, value = map(np.concatenate, zip(*(
        (t.feature, t.threshold, t.left, t.right, t.value) for t in trees)))
    leaf, node, shift = feature < 0, np.arange(feature.size), np.repeat(roots, sizes)
    return (roots, np.where(leaf, 0, feature), threshold, np.where(leaf, node, left + shift),
            np.where(leaf, node, right + shift), lr * value)


def _fit_gbt(config: LearnerConfig, X: np.ndarray, y: np.ndarray) -> FittedModel:
    n, p = X.shape
    xt = np.ascontiguousarray(X.T)
    order = np.argsort(xt, axis=1, kind="stable")
    xs = np.take_along_axis(xt, order, axis=1)
    if not (xs[:, 1:] == xs[:, :-1]).any():  # a column with no ties has none at any node
        xs = None
    init = float(y.mean())
    pred = np.full(n, init)
    trees, mse_path = [], []
    with np.errstate(invalid="ignore"):  # inf - inf in split scores of overflowing residuals
        for _ in range(config.n_trees):
            trees.append(_grow_tree(xt, order, xs, y - pred, pred, config))
            mse_path.append(float(np.mean((y - pred) ** 2)))
    return FittedModel(config=config, p=p, trees=tuple(trees), init_value=init,
                       train_mse_path=tuple(mse_path), train_pred=pred,
                       forest=_forest(trees, config.learning_rate))


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
    return x_mean, rhs, a, _check_solution(singular, np.vecdot(r, r, axis=1), rhs)


def _check_solution(singular, resid, rhs) -> np.ndarray:
    """The status of each column of each system: failed where LAPACK found
    the system ``singular``, then where the squared residual of the centred
    normal equations, or its bound, ``resid`` exceeds RIDGE_RESID_TOL^2
    ||rhs||^2 (nan fails)."""
    status = _ok(resid.shape)
    if singular is not None:
        _fail(status, singular[:, None], SingularSystemError, "Singular matrix")
    _fail(status, ~(resid <= RIDGE_RESID_TOL**2 * np.maximum(np.vecdot(rhs, rhs), 1e-300)),
          SingularSystemError, "penalized normal equations solved inaccurately")
    return status


def _centred_gram(X):
    """The column means mu of X, X0 = X - mu, and [[X0 X0', 1], [1', 0]]:
    centred before the product, large column offsets do not cancel in it."""
    mu, n = X.mean(axis=0), len(X)
    X0 = X - mu
    Gb = np.empty((n + 1, n + 1))
    np.matmul(X0, X0.T, out=Gb[:n, :n])
    Gb[n], Gb[:n, n], Gb[n, n] = 1.0, 1.0, 0.0
    return mu, X0, Gb


def _wide_solve(lam, X, c, m, V):
    """:func:`_normal_solve` of each resample on its d drawn rows alone: the
    q x q primal system when d >= q or lam = 0, else the kernel-ridge dual
    with an unpenalized bias (Saunders, Gammerman & Vovk, 1998), [[X0_d X0_d'
    + lam diag(1/c), 1], [1', 0]] [beta; beta0] = [V'; 0], whose matrix is
    taken from Gb of the call's one :func:`_centred_gram` (mu, X0, Gb). A dual
    resample's own work is its LU solve and residual (r1; r2); the rest is
    done for all at once, beta and r scattered over the rows of X: one
    product [beta; cV; c] X0 per resample gives s = X0'beta and m xb = c'X0,
    the mean mu + xb, rhs = X0'(c V') - m xb vbar. The residual leaves (Z'CZ
    + lam I) s - Z'CV' = Z'C r1 + lam r2 xb in the centred normal equations
    (Z = X0 - 1 xb', C = diag(c); put in lam beta = C (V' - beta0 - X0 s +
    r1) and 1'beta = r2), so the check bounds it by ||sqrt(C) Z||_F ||sqrt(c)
    r1|| + lam |r2| ||xb||, with ||sqrt(C) Z||_F^2 = c'diag(X0 X0') - m ||xb||^2."""
    (k, cols, n), q = V.shape, X.shape[1]
    x_mean, rhs, status = np.empty((k, q)), np.empty((k, cols, q)), _ok((k, cols))
    sol = np.empty((k, q, cols))  # laid out as a stacked solve's: predictions sum in its order
    dual = (np.count_nonzero(c, axis=1) < q) & (lam > 0)
    mu, X0, Gb = _centred_gram(X) if dual.any() else (None,) * 3
    beta, r = np.zeros((2, dual.sum(), cols, n + 1))  # on the rows of X, then the bias
    singular = np.zeros(len(beta), dtype=bool)
    for b, j in zip(range(k), np.cumsum(dual) - 1):
        d = np.flatnonzero(c[b])
        if not dual[b]:
            x_mean[b], rhs[b], sol[b], status[b] = (v[0] for v in _normal_solve(
                lam, X[d], c[None, b, d], m[None, b], V[None, b][:, :, d]))
            continue
        at = np.append(d, n)
        A = Gb[at][:, at]
        np.einsum("ii->i", A)[:-1] += lam / c[b, d]  # the diagonal's view in any layout
        B = np.append(V[b][:, d].T, np.zeros((1, cols)), axis=0)
        a, failed = _solve(A[None], B[None])
        beta[j][:, at], r[j][:, at], singular[j] = a[0].T, (A @ a[0] - B).T, failed is not None
    if not dual.any():
        return x_mean, rhs, sol, status
    cd, Vd, md = c[dual], V[dual], m[dual]
    prod = np.concatenate([beta[:, :, :n], cd[:, None] * Vd, cd[:, None]], axis=1) @ X0
    xb, vbar = prod[:, -1] / md[:, None], np.vecdot(Vd, cd[:, None]) / md[:, None]
    x_mean[dual], sol[dual] = mu + xb, np.swapaxes(prod[:, :cols], 1, 2)
    rhs[dual] = prod[:, cols:-1] - vbar[:, :, None] * prod[:, -1:]
    xx = np.vecdot(xb, xb)
    zw = np.sqrt(np.maximum(np.vecdot(cd, Gb.diagonal()[:n]) - md * xx, 0.0))
    bound = (zw[:, None] * np.sqrt(np.vecdot(cd[:, None], np.square(r[:, :, :n])))
             + lam * np.abs(r[:, :, n]) * np.sqrt(xx)[:, None])
    status[dual] = _check_solution(singular, bound * bound, rhs[dual])
    return x_mean, rhs, sol, status


@np.errstate(all="ignore")
def _ridge_kernel(lam: float, X: np.ndarray, y: np.ndarray, c: np.ndarray,
                  below: np.ndarray | None = None) -> list[_Fits]:
    """Ridge fits of X (n, q) to y, (n,) or (k, n), under the resamples c:
    ``[plain]``, one right-hand side per system, or given each resample's
    group r1 ``below`` (k, n), ``[plain, under both anchoring constraints]``,
    with the r1 indicator as a second. Up to STACK_MAX_P columns the k are
    solved in one batch, above it each by one LU factorisation on its drawn
    rows (:func:`_wide_solve`, a fit at k = 1 with n < q included). The
    constrained fit moves the plain one along w, the solution for the r1
    indicator, until u'b = s (see :func:`fit_constrained_linear`)."""
    c, y = np.ascontiguousarray(c), np.ascontiguousarray(y)  # rows laid out alike for any k
    m = c.sum(axis=1)  # counts: exact in any order
    y_mean = (c * y).sum(axis=1) / m
    yc = y - y_mean[:, None]
    V = yc[:, None, :] if below is None else np.concatenate([yc[:, None, :], below[:, None, :]], 1)
    solve = _normal_solve if X.shape[1] <= STACK_MAX_P else _wide_solve
    x_mean, rhs, sol, status = solve(lam, X, c, m, V)
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
