"""Regression learners and the mean-anchoring machinery that removes
systematic prediction bias at the fitting stage.

Three base learners are provided: ridge, lasso (coordinate descent), and
gradient-boosted regression trees, all with an explicit unpenalized
intercept. Each can be fit plain (``mlr`` mode) or forced to satisfy the two
mean-anchoring constraints

    sum_{i in r1} (f(X_i) - y_i) = 0   and   sum_{i in r2} (f(X_i) - y_i) = 0

over the below-mean / above-mean outcome groups (``umlr`` mode). Linear kinds
solve the equality-constrained problem exactly through its stationarity
(KKT) system; tree ensembles are anchored after the fact with an exact
two-parameter affine layer a + b * f(x), which satisfies both constraints and
counteracts linear shrinkage by inflating the calibration slope.

Penalty conventions (intercept never penalized):

    ridge:  sum_i (y_i - a - x_i'b)^2 + lam * ||b||^2
    lasso:  (1/2n) sum_i (y_i - a - x_i'b)^2 + lam * ||b||_1

so the lasso null threshold is lam_max = max_j |X_j'(y - ybar)| / n.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import SplitIndices
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
    "predict",
    "LINEAR_GROUP_TOL",
    "GBT_GROUP_TOL",
]

LINEAR_GROUP_TOL = 1e-8  # x n x sd(y), constrained linear fits
GBT_GROUP_TOL = 1e-6  # x n x sd(y), anchored tree ensembles
LASSO_COEF_TOL = 1e-7
RIDGE_RESID_TOL = 1e-10

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
    lasso_max_sweeps: int = 10_000

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidInputError(f"unknown learner kind {self.kind!r}; expected one of {_KINDS}")
        if self.lam < 0:
            raise InvalidInputError("lam must be >= 0")
        if self.n_trees < 1:
            raise InvalidInputError("n_trees must be >= 1")
        if not 0 < self.learning_rate <= 1:
            raise InvalidInputError("learning_rate must be in (0, 1]")
        if self.min_leaf < 1 or self.max_depth < 1:
            raise InvalidInputError("min_leaf and max_depth must be >= 1")


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

    ``mode`` is ``"umlr"`` only when the training residual group sums meet
    their tolerance (1e-8 * n * sd(y) for linear kinds, 1e-6 * n * sd(y) for
    gbt); construction enforces this.
    """

    config: LearnerConfig
    mode: str  # "mlr" or "umlr"
    p: int
    n_train: int
    coef: np.ndarray | None = None
    intercept: float | None = None
    trees: tuple[_Tree, ...] | None = None
    init_value: float | None = None
    train_mse_path: tuple[float, ...] | None = None
    anchor: tuple[float, float] | None = None
    group_residual_sums: tuple[float, float] | None = None
    group_tol: float | None = None

    def __post_init__(self):
        if self.mode not in ("mlr", "umlr"):
            raise InvalidInputError(f"mode must be 'mlr' or 'umlr', got {self.mode!r}")
        if self.mode == "umlr":
            if self.group_residual_sums is None or self.group_tol is None:
                raise InvalidInputError("umlr model must carry residual group sums")
            s1, s2 = self.group_residual_sums
            if abs(s1) > self.group_tol or abs(s2) > self.group_tol:
                raise InvalidInputError(
                    f"anchoring constraints violated: |{s1:.3e}|, |{s2:.3e}| > {self.group_tol:.3e}"
                )
        if self.coef is not None:
            c = np.asarray(self.coef, dtype=float)
            c.setflags(write=False)
            object.__setattr__(self, "coef", c)

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


def predict(model: FittedModel, X) -> np.ndarray:
    """Evaluate a fitted model on new rows (module-level alias)."""
    return model.predict(X)


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


def _fit_ridge(config: LearnerConfig, X: np.ndarray, y: np.ndarray) -> FittedModel:
    n, p = X.shape
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    yc = y - y_mean
    rhs = Xc.T @ yc
    if config.lam == 0.0:
        coef, _, rank, _ = np.linalg.lstsq(Xc, yc, rcond=None)
        if rank < p:
            raise SingularSystemError(
                "design is rank-deficient and lam = 0; increase lam or drop columns"
            )
    else:
        G = Xc.T @ Xc + config.lam * np.eye(p)
        try:
            coef = np.linalg.solve(G, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(str(exc)) from exc
        resid = G @ coef - rhs
        scale = max(np.linalg.norm(rhs), np.linalg.norm(G @ coef), 1e-300)
        if np.linalg.norm(resid) > RIDGE_RESID_TOL * scale:
            raise SingularSystemError("penalized normal equations solved inaccurately")
    intercept = y_mean - x_mean @ coef
    return FittedModel(config=config, mode="mlr", p=p, n_train=n,
                       coef=coef, intercept=float(intercept))


def _soft_threshold(z: float, lam: float) -> float:
    if z > lam:
        return z - lam
    if z < -lam:
        return z + lam
    return 0.0


def _lasso_sweep(cols, coef, resid, col_msq, lam, active=None):
    """One pass of cyclic coordinate descent; returns max |coef update|.

    ``cols`` holds the centered columns as strided views of ``Xc`` (a
    contiguous copy would change the summation order of the dot products)
    and ``col_msq`` their mean squares as Python floats.
    """
    n = resid.shape[0]
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
    for _ in range(config.lasso_max_sweeps):
        delta = _lasso_sweep(cols, coef, resid, col_msq, config.lam)
        if delta < LASSO_COEF_TOL:
            break
        # cheap inner loop over the current active set before the next full sweep
        active = np.flatnonzero(coef).tolist()
        for _ in range(config.lasso_max_sweeps):
            if _lasso_sweep(cols, coef, resid, col_msq, config.lam, active) < LASSO_COEF_TOL:
                break
    else:
        raise ConvergenceError("lasso coordinate descent did not converge")
    intercept = y_mean - x_mean @ coef
    return FittedModel(config=config, mode="mlr", p=p, n_train=n,
                       coef=coef, intercept=float(intercept))


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
    return FittedModel(config=config, mode="mlr", p=p, n_train=n,
                       trees=tuple(trees), init_value=init,
                       train_mse_path=tuple(mse_path))


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


def _check_split(split: SplitIndices, n: int):
    if split.n != n:
        raise InvalidInputError(f"split covers {split.n} units but data has {n}")
    if not split.both_nonempty:
        raise InvalidInputError("both split groups must be nonempty for anchored fitting")


def _solve_anchor(split: SplitIndices, base_pred: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Exact 2x2 anchoring system: n_g*a + b*sum_g(pred) = sum_g(y)."""
    n1, n2 = split.r1.size, split.r2.size
    s1p, s2p = base_pred[split.r1].sum(), base_pred[split.r2].sum()
    s1y, s2y = y[split.r1].sum(), y[split.r2].sum()
    det = n1 * s2p - n2 * s1p
    scale = max(abs(n1 * s2p), abs(n2 * s1p), n1 * n2 * float(np.std(y)), 1e-300)
    if abs(det) <= 1e-12 * scale:
        raise RecalibrationSingularError(
            "base predictions have equal means in both groups; anchoring system singular"
        )
    b = (n1 * s2y - n2 * s1y) / det
    a = (s1y - b * s1p) / n1
    return float(a), float(b)


def anchor_recalibrate(base: FittedModel, X_train, y_train, split: SplitIndices) -> FittedModel:
    """Wrap a fitted model in the affine layer a + b * f(x) that zeroes both
    training residual group sums exactly.

    Works for any base learner; it is the umlr route for tree ensembles,
    where the constrained objective has no tractable exact solution.
    """
    X_train, y_train = _validate_xy(X_train, y_train)
    _check_split(split, y_train.shape[0])
    raw = replace(base, anchor=None).predict(X_train)  # routes the rows once
    if base.anchor is None:
        a, b = _solve_anchor(split, raw, y_train)
    else:  # solve on the anchored predictions, then compose both layers into one
        a0, b0 = base.anchor
        a, b = _solve_anchor(split, a0 + b0 * raw, y_train)
        a, b = a + b * a0, b * b0
    new_pred = a + b * raw
    sums = _group_sums(split, new_pred, y_train)
    tol_scale = GBT_GROUP_TOL if base.trees is not None else LINEAR_GROUP_TOL
    tol = tol_scale * y_train.shape[0] * max(float(np.std(y_train)), 1e-300)
    return replace(
        base,
        mode="umlr",
        anchor=(a, b),
        group_residual_sums=sums,
        group_tol=tol,
    )


def _fit_constrained_ridge(config, X, y, split) -> FittedModel:
    n, p = X.shape
    D = np.column_stack([np.ones(n), X])
    H = 2.0 * (D.T @ D)
    H[1:, 1:] += 2.0 * config.lam * np.eye(p)
    A = np.zeros((2, p + 1))
    for row, grp in enumerate((split.r1, split.r2)):
        A[row, 0] = grp.size
        A[row, 1:] = X[grp].sum(axis=0)
    kkt = np.zeros((p + 3, p + 3))
    kkt[: p + 1, : p + 1] = H
    kkt[: p + 1, p + 1 :] = A.T
    kkt[p + 1 :, : p + 1] = A
    rhs = np.concatenate([2.0 * (D.T @ y), [y[split.r1].sum(), y[split.r2].sum()]])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"constrained ridge KKT system singular: {exc}") from exc
    intercept, coef = float(sol[0]), sol[1 : p + 1]
    pred = intercept + X @ coef
    sums = _group_sums(split, pred, y)
    tol = LINEAR_GROUP_TOL * n * max(float(np.std(y)), 1e-300)
    if abs(sums[0]) > tol or abs(sums[1]) > tol:
        raise SingularSystemError(
            "constrained ridge solution violates the anchoring constraints; "
            "the constraint rows are numerically dependent"
        )
    return FittedModel(config=config, mode="umlr", p=p, n_train=n,
                       coef=coef, intercept=intercept,
                       group_residual_sums=sums, group_tol=tol)


def _fit_constrained_lasso(config, X, y, split) -> FittedModel:
    """Coordinate descent on the l1-penalized loss augmented with multiplier
    and quadratic terms for the two group-mean constraints, finished by one
    exact affine projection so feasibility holds to machine precision.

    A bare sweep/project alternation cycles: each projection inflates the
    coefficients and the following sweep pulls them straight back. Folding
    the constraints into the swept objective (method of multipliers) removes
    the cycle while keeping every update a soft-threshold step.

    Within a sweep the constraint violations v_g = a + mean_g(Xb) - ybar_g
    are running scalars (a step d on coef j moves v_g by M[g, j] * d); they
    are recomputed exactly from the residuals after every sweep, and only
    those exact values feed the multipliers and the stopping rule.
    """
    n, p = X.shape
    lam = config.lam
    groups = (split.r1, split.r2)
    M = np.stack([X[g].mean(axis=0) for g in groups])  # (2, p) group means
    m0, m1 = M[0].tolist(), M[1].tolist()
    m_sq = M[0] ** 2 + M[1] ** 2
    xj_sq = (X * X).sum(axis=0) / n
    xsq = xj_sq.tolist()
    cols = list(X.T)
    tol = LINEAR_GROUP_TOL * n * max(float(np.std(y)), 1e-300)
    mean_tol = tol / max(g.size for g in groups)  # per-group mean residual scale

    start = _fit_lasso(config, X, y)
    coef = start.coef.tolist()
    intercept = float(start.intercept)
    u0 = u1 = 0.0
    rho = 1.0
    resid = y - intercept - X @ start.coef
    v0, v1 = (-float(resid[g].mean()) for g in groups)
    prev_feas = np.inf

    for sweep in range(config.lasso_max_sweeps):
        # intercept: unpenalized, closed form over loss + constraint terms
        grad = float(resid.mean()) - (u0 + u1) - rho * (v0 + v1)
        new_a = intercept + grad / (1.0 + 2.0 * rho)
        step = new_a - intercept
        resid -= step
        intercept = new_a
        v0 += step
        v1 += step

        curv = (xj_sq + rho * m_sq).tolist()
        max_delta = 0.0
        for j in range(p):
            cj = curv[j]
            if cj == 0.0:
                continue
            old = coef[j]
            a0, a1 = m0[j], m1[j]
            z = (float(cols[j] @ resid) / n + xsq[j] * old
                 - (a0 * (u0 + rho * (v0 - a0 * old)) + a1 * (u1 + rho * (v1 - a1 * old))))
            new = _soft_threshold(z, lam) / cj
            if new != old:
                d = new - old
                resid -= cols[j] * d
                coef[j] = new
                v0 += a0 * d
                v1 += a1 * d
                max_delta = max(max_delta, abs(d))

        v0, v1 = (-float(resid[g].mean()) for g in groups)
        u0 += rho * v0
        u1 += rho * v1
        feas = max(abs(v0), abs(v1))
        if max_delta < LASSO_COEF_TOL and feas <= mean_tol:
            break
        if sweep % 10 == 9:
            if feas > 0.5 * prev_feas:
                rho = min(rho * 2.0, 1e8)
            prev_feas = feas
    else:
        raise ConvergenceError("constrained lasso did not converge")

    coef = np.asarray(coef)
    pred = intercept + X @ coef
    a, b = _solve_anchor(split, pred, y)  # exact feasibility finish
    intercept = a + b * intercept
    coef = b * coef
    pred = intercept + X @ coef
    sums = _group_sums(split, pred, y)
    return FittedModel(config=config, mode="umlr", p=p, n_train=n,
                       coef=coef, intercept=float(intercept),
                       group_residual_sums=sums, group_tol=tol)


def fit_constrained_linear(config: LearnerConfig, X, y, split: SplitIndices) -> FittedModel:
    """Fit ridge or lasso subject to both anchoring constraints (umlr mode).

    Ridge solves the equality-constrained quadratic program exactly via its
    KKT system; lasso runs method-of-multipliers coordinate descent and
    finishes with one exact affine projection onto the constraint set.
    """
    if config.kind not in ("ridge", "lasso"):
        raise InvalidInputError("constrained fitting applies to linear kinds; use "
                                "anchor_recalibrate for gbt")
    X, y = _validate_xy(X, y)
    _check_split(split, y.shape[0])
    if config.kind == "ridge":
        return _fit_constrained_ridge(config, X, y, split)
    return _fit_constrained_lasso(config, X, y, split)
