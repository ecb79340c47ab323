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

Penalty conventions (intercept never penalized):

    ridge:  sum_i (y_i - a - x_i'b)^2 + lam * ||b||^2
    lasso:  (1/2n) sum_i (y_i - a - x_i'b)^2 + lam * ||b||_1

so the lasso null threshold is lam_max = max_j |X_j'(y - ybar)| / n.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import SplitIndices, partition_by_mean
from .errors import (
    ConvergenceError,
    InvalidInputError,
    RecalibrationSingularError,
    SingularSystemError,
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
# A stacked fit flags a resample whose check value comes within this factor
# of its threshold: those values are rounding noise, which the stacked and
# the per-resample arithmetic round apart.
STACK_CHECK_MARGIN = 1e-2
# Designs of at most this many columns solve the ridge fits of all stacked
# resamples in one batch; wider ones fit each resample on its distinct rows.
STACK_MAX_P = 32
_INFEASIBLE = ("anchoring constraints infeasible: the below-mean group "
               "has the covariate means of the whole sample")

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
        if self.kind not in _KINDS:
            raise InvalidInputError(f"unknown learner kind {self.kind!r}; expected one of {_KINDS}")
        if not 0 <= self.lam < np.inf:  # also rejects nan
            raise InvalidInputError(f"lam must be finite and >= 0, got {self.lam!r}")
        if self.n_trees < 1:
            raise InvalidInputError("n_trees must be >= 1")
        if not 0 < self.learning_rate <= 1:
            raise InvalidInputError("learning_rate must be in (0, 1]")
        if self.min_leaf < 1 or self.max_depth < 1:
            raise InvalidInputError("min_leaf and max_depth must be >= 1")
        object.__setattr__(self, "_hash", hash((self.kind, self.lam, self.n_trees, self.max_depth,
                                                self.learning_rate, self.min_leaf)))

    def __hash__(self):  # computed once: nuisance-memo keys hash the config often
        return self._hash


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
               split: SplitIndices | None = None) -> FittedModel:
    """Plain ridge, or with ``split`` ridge under both anchoring constraints.

    The constrained fit moves the plain solution along w = G^-1 u, a second
    column of the same solve, until u'b = s holds (see fit_constrained_linear).
    """
    n, p = X.shape
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    yc = y - y_mean
    # with split, a second column: the indicator of r1, so that Xc' 1_r1 = u
    target = yc if split is None else np.column_stack([yc, np.bincount(split.r1, minlength=n)])
    rhs = Xc.T @ target
    if config.lam == 0.0:
        sol, _, rank, _ = np.linalg.lstsq(Xc, target, rcond=None)
        if rank < p:
            raise SingularSystemError(
                "design is rank-deficient and lam = 0; increase lam or drop columns"
            )
    else:
        G = Xc.T @ Xc + config.lam * np.eye(p)
        try:
            sol = np.linalg.solve(G, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(str(exc)) from exc
        fitted = G @ sol
        scale = max(np.linalg.norm(rhs), np.linalg.norm(fitted), 1e-300)
        if not np.linalg.norm(fitted - rhs) <= RIDGE_RESID_TOL * scale:  # nan fails
            raise SingularSystemError("penalized normal equations solved inaccurately")
    if split is None:
        return FittedModel(config=config, p=p, coef=sol,
                           intercept=float(y_mean - x_mean @ sol))
    (coef, w), u = sol.T, rhs[:, 1]
    uw = u @ w
    if not uw > 0.0:  # u = 0, so u'b = s < 0 has no solution
        raise SingularSystemError(_INFEASIBLE)
    coef = coef - w * ((u @ coef - yc[split.r1].sum()) / uw)
    intercept = float(y_mean - x_mean @ coef)
    sums = _group_sums(split, intercept + X @ coef, y)
    tol = LINEAR_GROUP_TOL * n * max(float(np.sqrt(yc @ yc / n)), 1e-300)  # sd(y), cheaply
    if not (abs(sums[0]) <= tol and abs(sums[1]) <= tol):
        raise SingularSystemError("constrained ridge solution violates the anchoring constraints")
    return FittedModel(config=config, p=p, coef=coef, intercept=intercept,
                       group_residual_sums=sums, group_tol=tol)


def _soft_threshold(z: float, lam: float) -> float:
    if z > lam:
        return z - lam
    if z < -lam:
        return z + lam
    return 0.0


def _lasso_sweep(cols, coef, resid, col_msq, lam, n, active=None):
    """One pass of cyclic coordinate descent; returns max |coef update|.

    ``cols`` holds the centered columns as strided views of ``Xc`` (a
    contiguous copy would change the summation order of the dot products)
    and ``col_msq`` their squared norms over ``n`` as Python floats.
    """
    max_delta = 0.0
    for j in range(len(cols)) if active is None else active:
        cj = col_msq[j]
        if cj == 0.0:
            continue
        old = coef[j]
        new = _soft_threshold((cols[j] @ resid) / n + cj * old, lam) / cj
        if new != old:
            resid -= cols[j] * (new - old)
            coef[j] = new
            max_delta = max(max_delta, abs(new - old))
    return max_delta


def _fit_lasso(config: LearnerConfig, X: np.ndarray, y: np.ndarray) -> FittedModel:
    n, p = X.shape
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    cols = list(Xc.T)
    col_msq = (Xc * Xc).mean(axis=0).tolist()
    coef = np.zeros(p)
    resid = y - y_mean
    for _ in range(LASSO_MAX_SWEEPS):
        delta = _lasso_sweep(cols, coef, resid, col_msq, config.lam, n)
        if delta < LASSO_COEF_TOL:
            break
        # cheap inner loop over the current active set before the next full sweep
        active = np.flatnonzero(coef).tolist()
        for _ in range(LASSO_MAX_SWEEPS):
            if _lasso_sweep(cols, coef, resid, col_msq, config.lam, n, active) < LASSO_COEF_TOL:
                break
    else:
        raise ConvergenceError("lasso coordinate descent did not converge")
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
    with np.errstate(invalid="ignore"):
        score = left**2 / k + (total - left) ** 2 / (m - k)
    valid = xs[:, lo + 1 : hi + 1] > xs[:, lo:hi]
    if not np.any(valid):
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
            leaf = float(r[rows].mean())
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

def _group_sums(split: SplitIndices, pred: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    resid = pred - y
    return float(resid[split.r1].sum()), float(resid[split.r2].sum())


def _solve_anchor(split: SplitIndices, base_pred: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Exact 2x2 anchoring system: n_g*a + b*sum_g(pred) = sum_g(y)."""
    n1, n2 = split.r1.size, split.r2.size
    s1p, s2p = base_pred[split.r1].sum(), base_pred[split.r2].sum()
    s1y, s2y = y[split.r1].sum(), y[split.r2].sum()
    det = n1 * s2p - n2 * s1p
    scale = max(abs(n1 * s2p), abs(n2 * s1p), n1 * n2 * float(np.std(y)), 1e-300)
    if abs(det) <= ANCHOR_DET_TOL * scale:
        raise RecalibrationSingularError(
            "base predictions have equal means in both groups; anchoring system singular"
        )
    b = (n1 * s2y - n2 * s1y) / det
    a = (s1y - b * s1p) / n1
    return float(a), float(b)


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
    ``base`` at the training rows of the outcome ``y``."""
    split = partition_by_mean(y)
    a, b = _solve_anchor(split, raw, y)
    sums = _group_sums(split, a + b * raw, y)
    tol_scale = GBT_GROUP_TOL if base.trees is not None else LINEAR_GROUP_TOL
    tol = tol_scale * y.shape[0] * max(float(np.std(y)), 1e-300)
    return replace(base, anchor=(a, b), group_residual_sums=sums, group_tol=tol)


def _fit_constrained_lasso(config, X, y, split) -> FittedModel:
    """Coordinate descent on the l1-penalized loss augmented with a multiplier
    and a quadratic term for the centred constraint m'b = c (m = u / n1,
    c = s / n1), finished by one exact affine projection so feasibility holds
    to machine precision. The augmented term (rho/2)(m'b - c + mu/rho)^2 is
    the loss of one more design row sqrt(rho n) m with target
    sqrt(rho n) (c - mu/rho), so each multiplier step is one plain sweep.

    A bare sweep/project alternation cycles: each projection inflates the
    coefficients and the following sweep pulls them straight back. Folding
    the constraint into the swept objective (method of multipliers) removes
    the cycle while keeping every update a soft-threshold step.
    """
    n, p = X.shape
    n1, n2 = split.r1.size, split.r2.size
    start = _fit_lasso(config, X, y)  # warm start, before the design is copied
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    A = np.empty((n + 1, p))  # centred design, then the multiplier row
    Xc = np.subtract(X, x_mean, out=A[:n])
    yc = y - y_mean
    m = Xc[split.r1].mean(axis=0)
    c = float(yc[split.r1].mean())
    if not np.any(m):  # m'b = c < 0 has no solution
        raise SingularSystemError(_INFEASIBLE)
    cols = list(A.T)
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
            A[n] = root * m
            col_msq = (msq + rho * m * m).tolist()
        resid[n] = -root * (v + mu / rho)
        max_delta = _lasso_sweep(cols, coef, resid, col_msq, config.lam, n)
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
    a, b = _solve_anchor(split, intercept + X @ coef, y)  # exact feasibility finish
    intercept = float(a + b * intercept)
    coef = b * coef
    sums = _group_sums(split, intercept + X @ coef, y)
    return FittedModel(config=config, p=p, coef=coef, intercept=intercept,
                       group_residual_sums=sums, group_tol=tol)


def fit_constrained_linear(config: LearnerConfig, X, y) -> FittedModel:
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
    """
    if config.kind not in ("ridge", "lasso"):
        raise InvalidInputError("constrained fitting applies to linear kinds; use "
                                "anchor_recalibrate for gbt")
    X, y = _validate_xy(X, y)
    split = partition_by_mean(y)
    if config.kind == "ridge":
        return _fit_ridge(config, X, y, split)
    return _fit_constrained_lasso(config, X, y, split)


# ---------------------------------------------------------------------------
# stacked fits: one design under many case resamples
# ---------------------------------------------------------------------------

def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of a (k, n) with b (k, n) or (n,), one BLAS dot
    per row, so a row's sum is ordered alike whatever is stacked with it;
    numpy's axis reductions order it by the stack's memory layout."""
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


def _stack_split(y: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`partition_by_mean` split of each of k resamples, resample b
    drawing row i ``c[b, i]`` times: ``below`` (k, n) marks r1, and ``ok``
    (k,) is False where a group is empty or a drawn y_i lies within rounding
    of the mean, where the per-resample split may fall either way."""
    m = c.sum(axis=1)  # counts: exact in any order
    gap = y - (_dot(c, y) / m)[:, None]
    below = gap <= 0.0
    m1 = (c * below).sum(axis=1)
    tie = (c > 0) & (np.abs(gap) <= 1e-12 * np.abs(y).max())
    return below, (m1 > 0) & (m1 < m) & ~tie.any(axis=1)


def _ridge_stack(lam: float, X: np.ndarray, y: np.ndarray, c: np.ndarray,
                 constrained: bool = False):
    """Ridge fits of one design under k case resamples at once, resample b
    drawing row i ``c[b, i]`` times: each is the count-weighted form of the
    :func:`_fit_ridge` fit of the resample's rows, equal up to rounding.
    ``y`` is (n,) or one outcome per resample (k, n); ``lam`` must be > 0.

    Up to STACK_MAX_P columns the k fits are solved in one batch
    (:func:`_solve_stacked`), above it one by one (:func:`_solve_distinct`).
    Returns ``(coef (k, q), intercept (k,), ok (k,))`` for the plain fit
    and, if ``constrained``, for the umlr fit, u riding as a second column
    of the solve; ``ok`` is False where :func:`_fit_ridge` would raise or a
    check comes within STACK_CHECK_MARGIN of failing. Every operation acts
    on each resample's C-ordered row alone, so its numbers do not depend on
    what is stacked with it.
    """
    c, y = np.ascontiguousarray(c), np.ascontiguousarray(y)  # rows laid out alike for any k
    m = c.sum(axis=1)
    y_mean = _dot(c, y) / m
    yc = y - y_mean[:, None]
    if constrained:
        below, split_ok = _stack_split(y, c)
    V = np.stack([yc, below] if constrained else [yc], axis=1)  # (k, columns, n)
    solve = _solve_stacked if X.shape[1] <= STACK_MAX_P else _solve_distinct
    x_mean, rhs, sol, col_ok, u_size = solve(lam, X, c, m, V)
    coef = sol[:, :, 0]
    fits = [(coef, y_mean - _dot(x_mean, coef), col_ok[:, 0])]
    if constrained:
        u, w, r1 = rhs[:, :, 1], sol[:, :, 1], c * below
        uw = _dot(u, w)
        coef = coef - w * ((_dot(u, coef) - _dot(r1, yc)) / uw)[:, None]
        intercept = y_mean - _dot(x_mean, coef)
        resid = intercept[:, None] + (coef[:, None, :] @ X.T)[:, 0] - y
        sums = np.stack([_dot(r1, resid), _dot(c - r1, resid)])
        tol = LINEAR_GROUP_TOL * m * np.maximum(np.sqrt(_dot(c, yc * yc) / m), 1e-300)
        # a u of rounding size may be exactly 0 per resample, and infeasible
        ok = (split_ok & col_ok.all(axis=1) & (uw > 0.0)
              & (np.abs(u) > 1e-12 * u_size).any(axis=1)
              & (np.abs(sums) <= STACK_CHECK_MARGIN * tol).all(axis=0))
        fits.append((coef, intercept, ok))
    return fits


def _solve_stacked(lam, X, c, m, V):
    """:func:`_ridge_stack`'s batched solve: the resample means of X, the
    right-hand sides and solutions (k, q, columns), the residual flags and
    the size of the sum that makes u. The centred Gram matrices are second
    moments about the full-data mean, sum_i c_i z_i z_i' - m zbar zbar' with
    z = x - mean(x); the resample means zbar lie near 0, so little cancels.
    """
    q = X.shape[1]
    Z = X - X.mean(axis=0)
    zbar = (c[:, None, :] @ Z)[:, 0] / m[:, None]
    W = c[:, None, :] * V
    rhs = np.swapaxes(W @ Z, 1, 2)  # (k, q, columns)
    u_size = None
    if V.shape[1] > 1:  # u = sum_{r1} c_i (z_i - zbar)
        r1 = W[:, 1]
        rhs[:, :, 1] -= r1.sum(axis=1)[:, None] * zbar
        u_size = (r1[:, None, :] @ np.abs(Z))[:, 0] + r1.sum(axis=1)[:, None] * np.abs(zbar)
    G = (Z.T * c[:, None, :]) @ Z  # (k, q, n) weighted rows: O(k n q) memory
    G -= m[:, None, None] * zbar[:, :, None] * zbar[:, None, :]
    G += lam * np.eye(q)
    sol = np.linalg.solve(G, rhs)
    fitted = G @ sol
    scale = np.maximum(np.maximum(np.linalg.norm(rhs, axis=1), np.linalg.norm(fitted, axis=1)),
                       1e-300)
    # per column at the margin, which implies _fit_ridge's check on the pair
    col_ok = np.linalg.norm(fitted - rhs, axis=1) <= STACK_CHECK_MARGIN * RIDGE_RESID_TOL * scale
    return X.mean(axis=0) + zbar, rhs, sol, col_ok, u_size


def _solve_distinct(lam, X, c, m, V):
    """:func:`_solve_stacked`'s results, resample by resample on the d rows
    drawn, centred at the resample mean and scaled by sqrt(c) into Zw (V
    into Vw): rhs = Zw'Vw, solved in the primal (Zw'Zw + lam I) s = rhs or,
    as Zw'a, the dual (Zw Zw' + lam I) a = Vw, whichever is smaller. A dual
    residual r bounds the primal one by ||Zw||_F ||r||, and ||Zw||_F
    ||Vw[:, 1]|| bounds the size of the sum making each entry of u, so flags
    on these bounds are no looser than on the values bounded.
    """
    out = []
    for cb, mb, vb in zip(c, m, V):
        d = np.flatnonzero(cb)
        root = np.sqrt(cb[d])[:, None]
        Zw = X[d]
        x_mean = cb[d] @ Zw / mb
        Zw -= x_mean
        Zw *= root
        vd = vb[:, d]  # centred: rhs is kept, Vw is orthogonal to Zw Zw''s null vector sqrt(c)
        Vw = root * (vd - (vd @ cb[d] / mb)[:, None]).T
        rhs = Zw.T @ Vw
        dual = d.size < X.shape[1]
        A, B = (Zw @ Zw.T, Vw) if dual else (Zw.T @ Zw, rhs)
        norm = np.sqrt(A.trace())  # ||Zw||_F
        A.reshape(-1)[::A.shape[0] + 1] += lam
        a = np.linalg.solve(A, B)
        resid = np.linalg.norm(A @ a - B, axis=0) * (norm if dual else 1.0)
        out.append((x_mean, rhs, Zw.T @ a if dual else a, resid,
                    norm * np.linalg.norm(Vw[:, -1:], axis=0)))
    x_mean, rhs, sol, resid, u_size = map(np.stack, zip(*out))
    scale = np.maximum(np.linalg.norm(rhs, axis=1), 1e-300)
    return x_mean, rhs, sol, resid <= STACK_CHECK_MARGIN * RIDGE_RESID_TOL * scale, u_size


def _anchor_stack(raw: np.ndarray, y: np.ndarray, c: np.ndarray):
    """The :func:`anchor_recalibrate` layers ``(a, b)``, each (k,), of plain
    linear fits whose training predictions under k case resamples are ``raw``
    (k, n), with ``ok`` (k,) as in :func:`_ridge_stack`."""
    raw, c = np.ascontiguousarray(raw), np.ascontiguousarray(c)
    below, ok = _stack_split(y, c)
    c1 = c * below
    c2 = c - c1
    n1, n2 = c1.sum(axis=1), c2.sum(axis=1)
    s1p, s2p = _dot(c1, raw), _dot(c2, raw)
    s1y, s2y = _dot(c1, y), _dot(c2, y)
    m = n1 + n2
    sd = np.sqrt(_dot(c, (y - ((s1y + s2y) / m)[:, None]) ** 2) / m)
    det = n1 * s2p - n2 * s1p
    scale = np.maximum(np.maximum(np.abs(n1 * s2p), np.abs(n2 * s1p)),
                       np.maximum(n1 * n2 * sd, 1e-300))
    b = (n1 * s2y - n2 * s1y) / det
    a = (s1y - b * s1p) / n1
    resid = a[:, None] + b[:, None] * raw - y
    sums = np.stack([_dot(c1, resid), _dot(c2, resid)])
    tol = LINEAR_GROUP_TOL * m * np.maximum(sd, 1e-300)
    ok &= ((STACK_CHECK_MARGIN * np.abs(det) > ANCHOR_DET_TOL * scale)
           & (np.abs(sums) <= STACK_CHECK_MARGIN * tol).all(axis=0))
    return a, b, ok
