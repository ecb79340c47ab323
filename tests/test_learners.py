import hashlib
import zlib
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from umlr import (
    ConvergenceError,
    DegeneratePartitionError,
    FittedModel,
    InvalidInputError,
    LearnerConfig,
    RecalibrationSingularError,
    SingularSystemError,
    UmlrError,
    anchor_recalibrate,
    fit,
    fit_constrained_linear,
    partition_by_mean,
)
from umlr.learners import GBT_GROUP_TOL, LASSO_COEF_TOL, LINEAR_GROUP_TOL, _best_split

RIDGE0 = LearnerConfig(kind="ridge", lam=0.0)


def group_sums(model, X, y, split):
    resid = model.predict(X) - y
    return resid[split.r1].sum(), resid[split.r2].sum()


class TestRidge:
    def test_exact_interpolation(self):
        m = fit(RIDGE0, [[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0])
        assert np.allclose(m.coef, [2.0])
        assert abs(m.intercept) < 1e-10
        assert np.allclose(m.predict([[1.0], [2.0], [3.0]]), [2, 4, 6])

    def test_total_shrinkage_limit(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        m = fit(LearnerConfig(kind="ridge", lam=1e12), X, y)
        assert np.max(np.abs(m.coef)) < 1e-8
        assert np.allclose(m.predict(X), np.full(40, y.mean()), atol=1e-6)

    def test_lam_zero_rank_deficient(self):
        X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # collinear columns
        with pytest.raises(SingularSystemError):
            fit(RIDGE0, X, [1.0, 2.0, 3.0])

    def test_normal_equations_residual(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((60, 8))
        y = rng.standard_normal(60)
        lam = 3.7
        m = fit(LearnerConfig(kind="ridge", lam=lam), X, y)
        Xc = X - X.mean(axis=0)
        yc = y - y.mean()
        lhs = (Xc.T @ Xc + lam * np.eye(8)) @ m.coef
        rhs = Xc.T @ yc
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            fit(RIDGE0, [[1.0], [np.nan]], [1.0, 2.0])


class TestLasso:
    def test_lam_max_zeroes_all(self):
        # soft-threshold null condition on a standardized 3x2 design:
        # every coefficient stays 0 iff lam >= max_j |X_j'y| / n
        X = np.array([[1.0, -1.0], [0.0, 1.0], [-1.0, 0.0]])
        X = (X - X.mean(0)) / X.std(0)
        y = np.array([1.0, 0.5, -1.5])
        lam_max = np.max(np.abs(X.T @ (y - y.mean()))) / 3
        m = fit(LearnerConfig(kind="lasso", lam=lam_max), X, y)
        assert np.all(m.coef == 0.0)
        assert m.intercept == pytest.approx(y.mean())
        m2 = fit(LearnerConfig(kind="lasso", lam=0.99 * lam_max), X, y)
        assert np.count_nonzero(m2.coef) >= 1

    def test_matches_ridge_at_zero_penalty(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 4))
        y = X @ np.array([1.0, -2.0, 0.5, 0.0]) + 0.01 * rng.standard_normal(50)
        ml = fit(LearnerConfig(kind="lasso", lam=1e-10), X, y)
        mr = fit(RIDGE0, X, y)
        assert np.allclose(ml.coef, mr.coef, atol=1e-5)

    def test_sweep_cap_raises(self, monkeypatch):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 5))
        y = rng.standard_normal(30)
        monkeypatch.setattr("umlr.learners.LASSO_MAX_SWEEPS", 1)
        with pytest.raises(ConvergenceError):
            fit(LearnerConfig(kind="lasso", lam=1e-6), X, y)


def _lasso_n_gt_p():
    rng = np.random.default_rng(31)
    X = rng.standard_normal((80, 10))
    y = X[:, :3] @ np.array([1.5, -1.0, 0.5]) + 0.5 * rng.standard_normal(80)
    return X, y, 0.05


def _lasso_p_gt_n():
    rng = np.random.default_rng(32)
    X = rng.standard_normal((24, 40))
    y = X[:, :4] @ np.array([2.0, -1.5, 1.0, 0.5]) + 0.3 * rng.standard_normal(24)
    return X, y, 0.15


def _lasso_constant_column():
    # centring zeroes the column, so both fits skip it (zero curvature)
    rng = np.random.default_rng(33)
    X = rng.standard_normal((50, 6))
    X[:, 2] = 1.5
    y = X[:, 0] - X[:, 4] + 0.5 * rng.standard_normal(50)
    return X, y, 0.05


# Pinned plain lasso solutions: {index: value} of the nonzero coefficients,
# then the intercept.
LASSO_GOLDEN = {
    "n_gt_p": (
        _lasso_n_gt_p,
        ({0: 1.4706914115727479, 1: -0.9253229196614852, 2: 0.34826123066168674,
          5: -0.01403157256962409, 6: 0.024208602352843046, 7: -0.016251735731101346},
         0.0109062729507447),
    ),
    "p_gt_n": (
        _lasso_p_gt_n,
        ({0: 1.8957444320651, 1: -1.4106272353249258, 2: 0.7785664200853766,
          3: 0.30438183748522557, 5: -0.011183451619540225, 16: -0.005775378911707906,
          24: -0.013501899651358956, 26: -0.04683115175301867, 29: -0.06536712486782274,
          30: -0.005739475100499928, 39: -0.017824911010992945},
         -0.07682317228181917),
    ),
    "constant_column": (
        _lasso_constant_column,
        ({0: 0.9475682243660407, 4: -0.9645673538271026, 5: 0.04739138413403817},
         0.09639200512028571),
    ),
}

# Pinned constrained (umlr) lasso solutions of the same designs: nonzero
# coefficients, intercept, then the training residual sums of r1 and r2.
LASSO_CONSTRAINED_GOLDEN = {
    "n_gt_p": (
        {0: 1.6490549359805602, 1: -1.056609292262562, 2: 0.36020371581362826,
         5: -0.02511572410364047, 6: 0.010774537090836147, 7: -0.013533005688793676,
         9: 0.03269985628624245},
        0.06758916265639495, (-8.215650382226158e-15, -3.9968028886505635e-15),
    ),
    "p_gt_n": (
        {0: 2.0366938743363727, 1: -1.5082464206889348, 2: 0.8428488106253277,
         3: 0.39859889724595526, 11: 0.010007663425840365, 24: -0.09655743229426578,
         29: -0.10760429437399548, 30: -0.00963702202630029},
        -0.12623262941671703, (-3.58046925441613e-15, -6.661338147750939e-16),
    ),
    "constant_column": (
        {0: 1.0203204889707873, 4: -1.040460729607217, 5: 0.039530852250518785},
        0.08933459624383677, (2.3314683517128287e-15, -6.106226635438361e-16),
    ),
}


def _dense(nonzero: dict, p: int) -> np.ndarray:
    coef = np.zeros(p)
    coef[list(nonzero)] = list(nonzero.values())
    return coef


class TestLassoGolden:
    @pytest.mark.parametrize("case", sorted(LASSO_GOLDEN))
    def test_plain_fit_exact(self, case):
        make, (nonzero, intercept) = LASSO_GOLDEN[case]
        X, y, lam = make()
        m = fit(LearnerConfig(kind="lasso", lam=lam), X, y)
        assert np.array_equal(m.coef, _dense(nonzero, X.shape[1]))
        assert m.intercept == intercept

    @pytest.mark.parametrize("warm", [False, True], ids=["own_start", "given_start"])
    @pytest.mark.parametrize("case", sorted(LASSO_GOLDEN))
    def test_constrained_fit_exact(self, case, warm):
        # bit for bit, whether the fit warm-starts from the plain fit it makes
        # itself or from the one it is given
        make, _ = LASSO_GOLDEN[case]
        nonzero, intercept, sums = LASSO_CONSTRAINED_GOLDEN[case]
        X, y, lam = make()
        cfg = LearnerConfig(kind="lasso", lam=lam)
        start = {"plain": fit(cfg, X, y)} if warm else {}
        m = fit_constrained_linear(cfg, X, y, **start)
        assert np.array_equal(m.coef, _dense(nonzero, X.shape[1]))
        assert m.intercept == intercept
        assert m.group_residual_sums == sums

    def test_plain_must_be_the_mlr_fit_of_the_config(self):
        X, y, lam = _lasso_n_gt_p()
        cfg = LearnerConfig(kind="lasso", lam=lam)
        for plain in (fit(LearnerConfig(kind="lasso", lam=2 * lam), X, y),
                      fit(cfg, X[:, 1:], y), fit_constrained_linear(cfg, X, y)):
            with pytest.raises(InvalidInputError, match="plain"):
                fit_constrained_linear(cfg, X, y, plain=plain)

    @pytest.mark.parametrize("case", sorted(LASSO_GOLDEN))
    def test_constrained_fit_is_the_exact_optimum(self, case):
        make, _ = LASSO_GOLDEN[case]
        X, y, lam = make()
        split = partition_by_mean(y)
        m = fit_constrained_linear(LearnerConfig(kind="lasso", lam=lam), X, y)
        intercept, coef, off_support = exact_constrained_lasso(X, y, lam, split, m.coef)
        support = np.flatnonzero(m.coef)
        assert np.array_equal(np.sign([float(coef[j]) for j in support]), np.sign(m.coef[support]))
        assert all(abs(g) <= Fraction(lam) for g in off_support)
        assert abs(m.intercept - float(intercept)) <= LASSO_COEF_TOL
        assert np.max(np.abs(m.coef - [float(b) for b in coef])) <= LASSO_COEF_TOL
        s1, s2 = group_sums(m, X, y, split)
        tol = LINEAR_GROUP_TOL * X.shape[0] * np.std(y)
        assert abs(s1) <= tol and abs(s2) <= tol

    def test_constrained_sweep_cap_raises(self, monkeypatch):
        # lam above lam_max: the plain warm start converges in its one sweep,
        # so the cap is hit by the constrained loop itself
        X, y, _ = _lasso_n_gt_p()
        cfg = LearnerConfig(kind="lasso", lam=10.0)
        monkeypatch.setattr("umlr.learners.LASSO_MAX_SWEEPS", 1)
        assert np.all(fit(cfg, X, y).coef == 0.0)
        with pytest.raises(ConvergenceError, match="constrained lasso"):
            fit_constrained_linear(cfg, X, y)


def _lasso_family():
    """Seeded lasso problems: n 10-120 and p 1-60 (some p > n), lam from 1e-3
    to 1, a constant column in every fifth design; design 0 has p = 1, so its
    constrained fits raise."""
    for i in range(40):
        rng = np.random.default_rng((1903, i))
        n = int(rng.integers(10, 121))
        p = 1 if i == 0 else int(rng.integers(1, 61))
        X = rng.standard_normal((n, p)) * rng.uniform(0.5, 2.0, p)
        if i % 5 == 0:
            X[:, int(rng.integers(p))] = rng.uniform(-2.0, 2.0)
        beta = np.zeros(p)
        k = min(p, 4)
        beta[:k] = 2.0 * rng.standard_normal(k)
        y = X @ beta + 0.5 * rng.standard_normal(n) + 1.0
        yield X, y, float(10.0 ** rng.uniform(-3.0, 0.0))


# sha256 over the coefficient and intercept bytes of every fit of the family
# (plain, constrained from scratch, constrained warm-started from the plain
# fit), or the error class of a fit that raises
LASSO_FAMILY_DIGEST = "7764b9711f2914179e6df36fd997fbf1f1e6fd82c012a71306401a0c1ffa82a7"


class TestLassoFamily:
    def test_every_fit_bit_identical(self):
        h = hashlib.sha256()

        def record(make):
            try:
                m = make()
            except UmlrError as e:
                h.update(type(e).__name__.encode())
                return None
            h.update(m.coef.tobytes())
            h.update(np.float64(m.intercept).tobytes())
            return m

        for X, y, lam in _lasso_family():
            cfg = LearnerConfig(kind="lasso", lam=lam)
            plain = record(lambda: fit(cfg, X, y))
            record(lambda: fit_constrained_linear(cfg, X, y))
            if plain is not None:
                record(lambda: fit_constrained_linear(cfg, X, y, plain=plain))
        assert h.hexdigest() == LASSO_FAMILY_DIGEST


class TestGbt:
    def test_exact_round_count_and_monotone_mse(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((100, 4))
        y = np.sin(X[:, 0]) + 0.2 * rng.standard_normal(100)
        cfg = LearnerConfig(kind="gbt", n_trees=40, max_depth=2, learning_rate=0.2,
                            min_leaf=5)
        m = fit(cfg, X, y)
        assert len(m.trees) == 40
        assert len(m.train_mse_path) == 40
        path = np.asarray(m.train_mse_path)
        assert np.all(np.diff(path) <= 1e-12)

    def test_fits_signal(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((200, 3))
        y = 2.0 * (X[:, 0] > 0) + 0.1 * rng.standard_normal(200)
        cfg = LearnerConfig(kind="gbt", n_trees=80, max_depth=2, learning_rate=0.3,
                            min_leaf=5)
        m = fit(cfg, X, y)
        assert np.mean((m.predict(X) - y) ** 2) < 0.05

    def test_min_leaf_respected(self):
        # 6 points, min_leaf 3: only the middle split is admissible
        X = np.array([[i] for i in range(6)], dtype=float)
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        cfg = LearnerConfig(kind="gbt", n_trees=1, max_depth=1, learning_rate=1.0,
                            min_leaf=3)
        m = fit(cfg, X, y)
        tree = m.trees[0]
        assert tree.feature[0] == 0
        assert 2.0 <= tree.threshold[0] <= 3.0


def gbt_digest(model) -> str:
    """sha256 over every tree's arrays and the training-loss path."""
    h = hashlib.sha256()
    for tree in model.trees:
        h.update(np.ascontiguousarray(tree.feature, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(tree.threshold, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(tree.left, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(tree.right, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(tree.value, dtype=np.float64).tobytes())
    h.update(np.asarray(model.train_mse_path, dtype=np.float64).tobytes())
    return h.hexdigest()


def _golden_continuous():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((150, 6))
    y = X[:, 0] - 0.5 * X[:, 1] ** 2 + 0.3 * rng.standard_normal(150)
    cfg = LearnerConfig(kind="gbt", n_trees=40, max_depth=3, learning_rate=0.1,
                        min_leaf=5)
    return cfg, X, y


def _golden_ties():
    # X rounded to 0.1 so most split candidates sit inside runs of equal
    # values; column 3 duplicates column 1 and column 4 is a monotone copy,
    # so equal best scores across features exercise the tie-break order
    rng = np.random.default_rng(12)
    X = np.round(rng.standard_normal((200, 5)), 1)
    X[:, 3] = X[:, 1]
    X[:, 4] = 2.0 * X[:, 1] + 1.0
    y = np.sin(2.0 * X[:, 0]) + X[:, 1] + 0.2 * rng.standard_normal(200)
    cfg = LearnerConfig(kind="gbt", n_trees=40, max_depth=3, learning_rate=0.2,
                        min_leaf=4)
    return cfg, X, y


def _golden_min_leaf_bound():
    # deep trees on few rows: most nodes are too small to split
    rng = np.random.default_rng(13)
    X = rng.standard_normal((45, 3))
    y = X[:, 2] + 0.5 * rng.standard_normal(45)
    cfg = LearnerConfig(kind="gbt", n_trees=25, max_depth=5, learning_rate=0.3,
                        min_leaf=8)
    return cfg, X, y


# Pinned digests of exact greedy trees (stable tie order, first best split
# in (row, feature) order); any change to a split, threshold, leaf value or
# loss value changes them.
GBT_GOLDEN = {
    "continuous": (
        _golden_continuous,
        "09d4215322017e861711b2d82e323d852000e0b0a97c4b3a94d387a707f139d4",
    ),
    "ties": (
        _golden_ties,
        "946184d03ea3c827cf173ae35ee3e17ef3ea75869c6b093f9a4e8c8faa6daa6d",
    ),
    "min_leaf_bound": (
        _golden_min_leaf_bound,
        "dc0e25b5a15ae5eb88e0e714172ffdbb8c3dbaf006c818f09bb42183a44b9c8d",
    ),
}


class TestGbtGolden:
    @pytest.mark.parametrize("case", sorted(GBT_GOLDEN))
    def test_trees_bit_identical(self, case):
        make, expected = GBT_GOLDEN[case]
        cfg, X, y = make()
        m = fit(cfg, X, y)
        assert gbt_digest(m) == expected

    @pytest.mark.parametrize("case", sorted(GBT_GOLDEN))
    def test_loss_path_matches_routing(self, case):
        cfg, X, y = GBT_GOLDEN[case][0]()
        m = fit(cfg, X, y)
        assert m.train_mse_path[-1] == float(np.mean((y - m.predict(X)) ** 2))


def best_split_reference(xs, rs, min_leaf):
    """:func:`_best_split` candidate by candidate in Python floats: running
    sums, the same score expression, the first maximum in (position,
    feature) order, None when no candidate is valid or the gain is not
    positive."""
    p, m = xs.shape
    if m < 2 * min_leaf:
        return None
    sums = []
    for j in range(p):
        run, row = 0.0, []
        for v in rs[j].tolist():
            run += v
            row.append(run)
        sums.append(row)
    best = None
    for i in range(min_leaf - 1, m - min_leaf):
        k = float(i + 1)
        for j in range(p):
            if not xs[j, i + 1] > xs[j, i]:
                continue
            left, total = sums[j][i], sums[j][-1]
            score = left * left / k + (total - left) * (total - left) / (m - k)
            if best is None or score > best[0]:
                best = (score, i, j)
    if best is None:
        return None
    score, i, j = best
    total = sums[j][-1]
    if score - total * total / m <= 0.0:
        return None
    return j, float(0.5 * (xs[j, i] + xs[j, i + 1]))


def _sorted_node(X, r):
    order = np.argsort(X, axis=0, kind="stable").T
    return X[order, np.arange(X.shape[1])[:, None]], r[order]


class TestBestSplit:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_reference(self, seed):
        rng = np.random.default_rng((77, seed))
        for trial in range(60):
            m = int(rng.integers(2, 40))
            p = int(rng.integers(1, 6))
            min_leaf = int(rng.integers(1, 8))  # m < 2 min_leaf in some trials
            X = rng.standard_normal((m, p))
            if trial % 3 == 0:
                X = np.round(X, 1)  # tied values and tied scores
            if p > 1 and trial % 4 == 0:
                X[:, -1] = X[:, 0]  # equal best scores across features
            if trial % 5 == 0:
                X[:, int(rng.integers(p))] = 0.25  # no valid cut in that column
            r = rng.standard_normal(m)
            if trial % 7 == 0:
                r = np.round(r, 0)
            xs, rs = _sorted_node(X, r)
            assert _best_split(xs, rs, min_leaf) == best_split_reference(xs, rs, min_leaf)

    def test_no_valid_candidate_or_no_gain(self):
        xs, rs = _sorted_node(np.full((10, 2), 3.0), np.arange(10.0))
        assert _best_split(xs, rs, 2) is None  # every column is constant
        xs, rs = _sorted_node(np.arange(10.0)[:, None], np.zeros(10))
        assert _best_split(xs, rs, 2) is None  # zero residuals: no gain
        xs, rs = _sorted_node(np.arange(5.0)[:, None], np.arange(5.0))
        assert _best_split(xs, rs, 3) is None  # m < 2 min_leaf


class TestPredict:
    def test_linear_evaluation(self):
        m = fit(RIDGE0, [[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0])
        assert m.predict([[3.0]]) == pytest.approx([6.0])

    def test_anchored_affine_application(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        X = (0.5 * y).reshape(-1, 1)
        base = fit(RIDGE0, X, 0.5 * y)
        anchored = anchor_recalibrate(base, X, y)
        a, b = anchored.anchor
        assert (a, b) == pytest.approx((0.0, 2.0))
        # base output 3 -> anchored 0 + 2*3 = 6
        assert anchored.predict([[3.0]]) == pytest.approx([6.0])

    def test_empty_input(self):
        m = fit(RIDGE0, [[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0])
        out = m.predict(np.empty((0, 1)))
        assert out.shape == (0,)

    def test_dimension_mismatch(self):
        m = fit(RIDGE0, [[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0])
        with pytest.raises(InvalidInputError):
            m.predict([[1.0, 2.0]])


def random_problems(rng, trials=8):
    """Small Gaussian regression problems with n in [20, 50) and p in [1, 6)."""
    for _ in range(trials):
        n, p = int(rng.integers(20, 50)), int(rng.integers(1, 6))
        X = rng.standard_normal((n, p))
        yield X, X @ rng.standard_normal(p) + rng.standard_normal(n)


class TestConstrainedLinear:
    def test_interpolating_fit_already_feasible(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        m = fit_constrained_linear(RIDGE0, X, y)
        assert np.allclose(m.coef, [1.0], atol=1e-9)
        assert abs(m.intercept) < 1e-9
        assert m.mode == "umlr"
        s1, s2 = m.group_residual_sums
        assert abs(s1) < 1e-10 and abs(s2) < 1e-10

    def test_hand_solved_kkt_case(self):
        # X = [1,2,3,4], y = [1,3,2,4], lam = 0. Mean y = 2.5 puts rows
        # {0, 2} in the low group and {1, 3} in the high group, so the two
        # constraints read 2a + 4b = 3 and 2a + 6b = 7, which pin the
        # parameters at b = 2, a = -2.5 regardless of the loss.
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([1.0, 3.0, 2.0, 4.0])
        split = partition_by_mean(y)
        assert split.r1.tolist() == [0, 2] and split.r2.tolist() == [1, 3]
        m = fit_constrained_linear(RIDGE0, X, y)
        assert m.intercept == pytest.approx(-2.5, abs=1e-10)
        assert m.coef[0] == pytest.approx(2.0, abs=1e-10)
        s1, s2 = group_sums(m, X, y, split)
        assert abs(s1) < 1e-10 and abs(s2) < 1e-10

    def test_constant_outcome_degenerate(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.full(4, 2.0)
        for cfg in (RIDGE0, LearnerConfig(kind="lasso", lam=0.1)):
            with pytest.raises(DegeneratePartitionError, match="group is empty"):
                fit_constrained_linear(cfg, X, y)
        with pytest.raises(DegeneratePartitionError, match="group is empty"):
            anchor_recalibrate(fit(RIDGE0, X, y), X, y)

    def test_ridge_consistency_with_unconstrained_at_lam_zero(self):
        # noiseless linear outcome: the unconstrained optimum has zero
        # residuals, hence already satisfies both constraints
        rng = np.random.default_rng(6)
        X = rng.standard_normal((8, 4))
        beta = rng.standard_normal(4)
        y = X @ beta + 1.0
        un = fit(RIDGE0, X, y)
        con = fit_constrained_linear(RIDGE0, X, y)
        assert np.allclose(con.coef, un.coef, atol=1e-8)
        assert con.intercept == pytest.approx(un.intercept, abs=1e-8)

    def test_gbt_rejected(self):
        with pytest.raises(InvalidInputError):
            fit_constrained_linear(LearnerConfig(kind="gbt"), [[1.0], [2.0]], [1.0, 2.0])

    @pytest.mark.parametrize("kind,lam", [("ridge", 0.7), ("ridge", 25.0),
                                          ("lasso", 0.02), ("lasso", 0.2)])
    def test_constraints_hold_on_random_problems(self, kind, lam):
        rng = np.random.default_rng(zlib.crc32(f"{kind}-{lam}".encode()))
        for X, y in random_problems(rng):
            split = partition_by_mean(y)
            m = fit_constrained_linear(LearnerConfig(kind=kind, lam=lam), X, y)
            s1, s2 = group_sums(m, X, y, split)
            tol = LINEAR_GROUP_TOL * y.size * np.std(y)
            assert abs(s1) <= tol and abs(s2) <= tol
            assert m.mode == "umlr"

    @pytest.mark.parametrize("seed,trial", [(36, 0), (202, 3), (360, 4)])
    def test_lasso_with_one_covariate_pinned_by_the_constraint(self, seed, trial):
        # p = 1 problems from the loop above where u is small: the constraint
        # alone fixes the fit, so it equals the constrained ridge fit exactly
        X, y = next(islice(random_problems(np.random.default_rng(seed)), trial, None))
        assert X.shape[1] == 1
        split = partition_by_mean(y)
        m = fit_constrained_linear(LearnerConfig(kind="lasso", lam=0.2), X, y)
        ref = np.array([float(v) for v in exact_constrained_ridge(X, y, 0.2, split)])
        got = np.array([m.intercept, m.coef[0]])
        assert np.all(np.abs(got - ref) <= 1e-10 * (1.0 + np.abs(ref))), (got, ref)


def _ridge_n_gt_p():
    rng = np.random.default_rng(41)
    X = rng.standard_normal((60, 5))
    y = X @ np.array([1.0, -2.0, 0.5, 0.0, 0.25]) + 0.5 * rng.standard_normal(60) + 3.0
    return X, y, 2.5


def _ridge_p_gt_n():
    rng = np.random.default_rng(42)
    X = rng.standard_normal((12, 16))
    y = X[:, :3] @ np.array([1.5, -1.0, 0.5]) + 0.3 * rng.standard_normal(12)
    return X, y, 0.7


def _ridge_lam_zero():
    rng = np.random.default_rng(43)
    X = rng.standard_normal((30, 4))
    y = X @ np.array([0.3, 0.0, -1.2, 2.0]) + rng.standard_normal(30) - 1.0
    return X, y, 0.0


# Pinned plain ridge solutions (coefficients, intercept). The constrained fit
# shares this solve; it must not move the plain one by a single bit.
RIDGE_GOLDEN = {
    "n_gt_p": (
        _ridge_n_gt_p,
        [0.9236887683310734, -1.994178892491618, 0.4018928591117356, -0.007644980533008779,
         0.29367201634973494],
        3.0132423805718505,
    ),
    "p_gt_n": (
        _ridge_p_gt_n,
        [0.5121987030271035, -0.03929567871072392, 0.18540691366014656, -0.11637399318220379,
         -0.12920529641008777, -0.06772156779576932, 0.3589446660507658, 0.008127314050055663,
         0.17788876021219965, -0.056515303656231385, 0.488945124155348, -0.1938741053933999,
         -0.22734868123401702, 0.1330181666201728, 0.1616260151835386, 0.1024441443780571],
        0.7436807781262358,
    ),
    "lam_zero": (
        _ridge_lam_zero,
        [0.28256050565036195, 0.05141891632707374, -1.3595078461838326, 2.0272341762809445],
        -1.1904123980272154,
    ),
}


class TestRidgeGolden:
    @pytest.mark.parametrize("case", sorted(RIDGE_GOLDEN))
    def test_plain_fit_exact(self, case):
        make, coef, intercept = RIDGE_GOLDEN[case]
        X, y, lam = make()
        m = fit(LearnerConfig(kind="ridge", lam=lam), X, y)
        assert np.array_equal(m.coef, coef)
        assert m.intercept == intercept


def gauss_jordan(K) -> list[Fraction]:
    """Solution of the square system held as augmented rows [A | b]."""
    m = len(K)
    for c in range(m):
        pivot = next(r for r in range(c, m) if K[r][c] != 0)
        K[c], K[pivot] = K[pivot], K[c]
        for r in range(m):
            if r != c and K[r][c] != 0:
                f = K[r][c] / K[c][c]
                K[r] = [a - f * b for a, b in zip(K[r], K[c])]
    return [K[i][m] / K[i][i] for i in range(m)]


def exact_constrained_ridge(X, y, lam, split) -> list[Fraction]:
    """Intercept then coefficients of the ridge fit under both anchoring
    constraints, from its stationarity system solved in exact rational
    arithmetic (Gauss-Jordan on the floats' exact values)."""
    n, p = X.shape
    D = [[Fraction(1)] + [Fraction(float(v)) for v in row] for row in X]
    yy = [Fraction(float(v)) for v in y]
    m = p + 3
    K = [[Fraction(0)] * (m + 1) for _ in range(m)]
    for i in range(p + 1):
        for j in range(p + 1):
            K[i][j] = 2 * sum(D[r][i] * D[r][j] for r in range(n))
        if i > 0:
            K[i][i] += 2 * Fraction(lam)
        K[i][m] = 2 * sum(D[r][i] * yy[r] for r in range(n))
    for g, rows in enumerate((split.r1.tolist(), split.r2.tolist())):
        for j in range(p + 1):
            K[p + 1 + g][j] = K[j][p + 1 + g] = sum(D[r][j] for r in rows)
        K[p + 1 + g][m] = sum(yy[r] for r in rows)
    return gauss_jordan(K)[:p + 1]


def exact_constrained_lasso(X, y, lam, split, coef):
    """The lasso fit under both anchoring constraints with the support and
    signs of ``coef``, in exact rational arithmetic on the floats' values.

    With the centred intercept ybar - xbar'b one constraint u'b = s is left
    (u, s: the below-mean group's centred covariate and outcome sums). On
    the support S with signs sigma the optimum solves
    (1/n) Xc_S'(Xc_S b - yc) + lam sigma + nu u_S = 0 and u_S'b = s.
    Returns the intercept, all p coefficients, and for each coordinate off
    S its subgradient Xc_j'(yc - Xc b)/n - nu u_j, which is at most lam in
    absolute value at the optimum.
    """
    n, p = X.shape
    D = [[Fraction(float(v)) for v in row] for row in X]
    yy = [Fraction(float(v)) for v in y]
    x_mean = [sum(row[j] for row in D) / n for j in range(p)]
    y_mean = sum(yy) / n
    Xc = [[row[j] - x_mean[j] for j in range(p)] for row in D]
    yc = [v - y_mean for v in yy]
    r1 = split.r1.tolist()
    u = [sum(Xc[r][j] for r in r1) for j in range(p)]
    s = sum(yc[r] for r in r1)
    S = np.flatnonzero(coef).tolist()
    k = len(S)
    K = [[Fraction(0)] * (k + 2) for _ in range(k + 1)]
    for a, i in enumerate(S):
        for b, j in enumerate(S):
            K[a][b] = sum(row[i] * row[j] for row in Xc) / n
        K[a][k] = K[k][a] = u[i]
        K[a][k + 1] = sum(row[i] * v for row, v in zip(Xc, yc)) / n \
            - Fraction(lam) * int(np.sign(coef[i]))
    K[k][k + 1] = s
    *b_S, nu = gauss_jordan(K)
    b = [Fraction(0)] * p
    for i, v in zip(S, b_S):
        b[i] = v
    resid = [v - sum(row[j] * b[j] for j in S) for row, v in zip(Xc, yc)]
    off_support = [sum(row[j] * r for row, r in zip(Xc, resid)) / n - nu * u[j]
                   for j in range(p) if j not in S]
    return y_mean - sum(x_mean[j] * b[j] for j in S), b, off_support


def assert_matches_exact(X, y, lam):
    split = partition_by_mean(y)
    m = fit_constrained_linear(LearnerConfig(kind="ridge", lam=lam), X, y)
    ref = np.array([float(v) for v in exact_constrained_ridge(X, y, lam, split)])
    got = np.concatenate([[m.intercept], m.coef])
    assert np.all(np.abs(got - ref) <= 1e-10 * (1.0 + np.abs(ref))), (got, ref)


class TestConstrainedRidgeExact:
    @pytest.mark.parametrize("lam", [0.0, 0.1, 25.0, 1e4])
    def test_matches_exact_solution(self, lam):
        rng = np.random.default_rng(int(lam * 10) + 7)
        for _ in range(12):
            n, p = int(rng.integers(6, 26)), int(rng.integers(1, 4))
            X = rng.standard_normal((n, p)) * rng.choice([0.01, 1.0, 10.0])
            y = X @ rng.standard_normal(p) + rng.standard_normal(n)
            assert_matches_exact(X, y, lam)

    @pytest.mark.parametrize("lam", [1e6, 1e7, 1e8])
    def test_one_covariate_pinned_by_the_constraint_at_any_lam(self, lam):
        # with p = 1 the single constraint u * b = s fixes b = s / u whatever
        # the penalty; a huge lam must neither raise nor drift
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 1))
        y = 0.7 * X[:, 0] + rng.standard_normal(40)
        assert_matches_exact(X, y, lam)

    @pytest.mark.parametrize("lam", [0.5, 10.0])
    def test_constant_column_has_no_feasible_fit(self, lam):
        # u = 0: the below-mean group's covariate sum cannot move, while its
        # outcome sum s is negative
        X = np.full((10, 1), 3.0)
        y = np.arange(10.0)
        for kind in ("ridge", "lasso"):
            with pytest.raises(SingularSystemError, match="infeasible"):
                fit_constrained_linear(LearnerConfig(kind=kind, lam=lam), X, y)

    def test_rank_deficient_design_at_lam_zero_raises_in_both_modes(self):
        rng = np.random.default_rng(12)
        square = rng.standard_normal((5, 5))  # centring leaves rank n - 1 < p
        duplicated = rng.standard_normal((8, 3))
        duplicated[:, 2] = duplicated[:, 0]
        for X in (square, duplicated):
            y = rng.standard_normal(X.shape[0])
            with pytest.raises(SingularSystemError):
                fit(RIDGE0, X, y)
            with pytest.raises(SingularSystemError):
                fit_constrained_linear(RIDGE0, X, y)

    def test_overflowing_design_raises(self):
        # the penalized normal equations overflow to a nan solution
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 2)) * 1e160
        y = rng.standard_normal(30)
        cfg = LearnerConfig(kind="ridge", lam=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SingularSystemError):
                fit(cfg, X, y)
            with pytest.raises(SingularSystemError):
                fit_constrained_linear(cfg, X, y)


class TestNonFiniteGuards:
    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
    def test_lam_must_be_finite_and_nonnegative(self, lam):
        with pytest.raises(InvalidInputError, match="lam"):
            LearnerConfig(kind="ridge", lam=lam)

    def test_nan_group_sum_is_not_an_anchored_model(self):
        with pytest.raises(InvalidInputError, match="anchoring constraints"):
            FittedModel(config=LearnerConfig(), p=1, coef=np.array([1.0]), intercept=0.0,
                        group_residual_sums=(float("nan"), 0.0), group_tol=1e-8)
        with pytest.raises(InvalidInputError, match="group tolerance"):
            FittedModel(config=LearnerConfig(), p=1, coef=np.array([1.0]), intercept=0.0,
                        group_residual_sums=(0.0, 0.0))


class TestAnchorRecalibrate:
    def test_half_shrunk_predictions(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        X = (0.5 * y).reshape(-1, 1)
        base = fit(RIDGE0, X, 0.5 * y)
        m = anchor_recalibrate(base, X, y)
        assert m.anchor == pytest.approx((0.0, 2.0))
        assert np.allclose(m.predict(X), y, atol=1e-10)
        assert m.mode == "umlr"

    def test_identity_when_already_calibrated(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        X = y.reshape(-1, 1)
        base = fit(RIDGE0, X, y)
        m = anchor_recalibrate(base, X, y)
        a, b = m.anchor
        assert a == pytest.approx(0.0, abs=1e-10)
        assert b == pytest.approx(1.0, abs=1e-10)

    def test_constant_predictions_singular(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        X = np.ones((4, 1))  # base predicts its mean everywhere
        base = fit(LearnerConfig(kind="ridge", lam=1e9), X, y)
        with pytest.raises(RecalibrationSingularError):
            anchor_recalibrate(base, X, y)

    def test_anchored_gbt_meets_group_tolerance(self):
        rng = np.random.default_rng(7)
        for trial in range(6):
            n = int(rng.integers(40, 90))
            p = int(rng.integers(2, 6))
            X = rng.standard_normal((n, p))
            y = X @ rng.standard_normal(p) + 0.5 * rng.standard_normal(n)
            cfg = LearnerConfig(kind="gbt", n_trees=30, max_depth=2,
                                learning_rate=0.2, min_leaf=5)
            split = partition_by_mean(y)
            m = anchor_recalibrate(fit(cfg, X, y), X, y)
            s1, s2 = group_sums(m, X, y, split)
            tol = GBT_GROUP_TOL * n * np.std(y)
            assert abs(s1) <= tol and abs(s2) <= tol

    def test_anchoring_composes_affine_layers(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        X = (0.5 * y).reshape(-1, 1)
        base = fit(RIDGE0, X, 0.5 * y)
        once = anchor_recalibrate(base, X, y)
        twice = anchor_recalibrate(once, X, y)
        assert twice.anchor == pytest.approx(once.anchor, abs=1e-10)

    def test_restores_calibration_slope_under_shrinkage(self):
        # base predictions eta*y + noise with small noise: the recalibrated
        # training slope of predictions on y returns to ~1
        rng = np.random.default_rng(8)
        n = 400
        y = rng.standard_normal(n) * 2.0 + 1.0
        for eta in (0.3, 0.5, 0.9):
            noise = 0.1 * np.std(y) * rng.standard_normal(n)
            base_col = (eta * y + noise).reshape(-1, 1)
            base = fit(RIDGE0, base_col, eta * y + noise)  # predicts the column
            m = anchor_recalibrate(base, base_col, y)
            pred = m.predict(base_col)
            slope = np.cov(y, pred, ddof=0)[0, 1] / np.var(y)
            assert slope >= 0.95


class TestMarginalCalibrationCorollary:
    def test_full_sample_residual_sum_bounded_by_tolerance_sum(self):
        # adding the two group constraints: anchored fits are marginally
        # calibrated on their training sample
        rng = np.random.default_rng(9)
        X = rng.standard_normal((50, 4))
        y = X @ rng.standard_normal(4) + rng.standard_normal(50)
        for make in (
            lambda: fit_constrained_linear(LearnerConfig(kind="ridge", lam=2.0), X, y),
            lambda: anchor_recalibrate(
                fit(LearnerConfig(kind="gbt", n_trees=25, max_depth=2,
                                  learning_rate=0.2, min_leaf=5), X, y),
                X, y),
        ):
            m = make()
            total = np.sum(m.predict(X) - y)
            assert abs(total) <= 2.0 * m.group_tol
