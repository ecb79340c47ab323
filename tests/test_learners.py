import hashlib

import numpy as np
import pytest

from umlr import (
    ConvergenceError,
    InvalidInputError,
    LearnerConfig,
    RecalibrationSingularError,
    SingularSystemError,
    anchor_recalibrate,
    fit,
    fit_constrained_linear,
    partition_by_mean,
    predict,
)
from umlr.learners import GBT_GROUP_TOL, LINEAR_GROUP_TOL

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

    def test_sweep_cap_raises(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 5))
        y = rng.standard_normal(30)
        with pytest.raises(ConvergenceError):
            fit(LearnerConfig(kind="lasso", lam=1e-6, lasso_max_sweeps=1), X, y)


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
    # the plain fit centers it away; the constrained fit sweeps raw columns,
    # where it acts like a second, penalized intercept
    rng = np.random.default_rng(33)
    X = rng.standard_normal((50, 6))
    X[:, 2] = 1.5
    y = X[:, 0] - X[:, 4] + 0.5 * rng.standard_normal(50)
    return X, y, 0.05


# Pinned lasso solutions: {index: value} of the nonzero coefficients, then
# the intercept, for the plain fit and the constrained fit.
LASSO_GOLDEN = {
    "n_gt_p": (
        _lasso_n_gt_p,
        ({0: 1.4706914115727479, 1: -0.9253229196614852, 2: 0.34826123066168674,
          5: -0.01403157256962409, 6: 0.024208602352843046, 7: -0.016251735731101346},
         0.0109062729507447),
        ({0: 1.6490549372693282, 1: -1.0566092889684786, 2: 0.36020371380511196,
          5: -0.02511572546871173, 6: 0.010774536291149144, 7: -0.01353300338122386,
          9: 0.0326998592749711},
         0.06758916165427936),
    ),
    "p_gt_n": (
        _lasso_p_gt_n,
        ({0: 1.8957444320651, 1: -1.4106272353249258, 2: 0.7785664200853766,
          3: 0.30438183748522557, 5: -0.011183451619540225, 16: -0.005775378911707906,
          24: -0.013501899651358956, 26: -0.04683115175301867, 29: -0.06536712486782274,
          30: -0.005739475100499928, 39: -0.017824911010992945},
         -0.07682317228181917),
        ({0: 2.0366937484182026, 1: -1.5082464037076666, 2: 0.8428487632029888,
          3: 0.398598848658911, 11: 0.010007672076714796, 24: -0.09655746555399079,
          29: -0.10760444648555272, 30: -0.009637038869403149},
         -0.1262325992685608),
    ),
    "constant_column": (
        _lasso_constant_column,
        ({0: 0.9475682243660407, 4: -0.9645673538271026, 5: 0.04739138413403817},
         0.09639200512028571),
        ({0: 1.0203204898945006, 4: -1.0404607286271135, 5: 0.03953085129289717},
         0.0893345957763225),
    ),
}


def _dense(nonzero: dict, p: int) -> np.ndarray:
    coef = np.zeros(p)
    coef[list(nonzero)] = list(nonzero.values())
    return coef


class TestLassoGolden:
    @pytest.mark.parametrize("case", sorted(LASSO_GOLDEN))
    def test_plain_fit_exact(self, case):
        make, (nonzero, intercept), _ = LASSO_GOLDEN[case]
        X, y, lam = make()
        m = fit(LearnerConfig(kind="lasso", lam=lam), X, y)
        assert np.array_equal(m.coef, _dense(nonzero, X.shape[1]))
        assert m.intercept == intercept

    @pytest.mark.parametrize("case", sorted(LASSO_GOLDEN))
    def test_constrained_fit_within_1e9(self, case):
        # the constrained sweep may reorder floating-point sums, not the solution
        make, _, (nonzero, intercept) = LASSO_GOLDEN[case]
        X, y, lam = make()
        split = partition_by_mean(y)
        m = fit_constrained_linear(LearnerConfig(kind="lasso", lam=lam), X, y, split)
        assert np.max(np.abs(m.coef - _dense(nonzero, X.shape[1]))) <= 1e-9
        assert abs(m.intercept - intercept) <= 1e-9
        s1, s2 = group_sums(m, X, y, split)
        tol = LINEAR_GROUP_TOL * X.shape[0] * np.std(y)
        assert abs(s1) <= tol and abs(s2) <= tol

    def test_constrained_sweep_cap_raises(self):
        # lam above lam_max: the plain warm start converges in its one sweep,
        # so the cap is hit by the constrained loop itself
        X, y, _ = _lasso_n_gt_p()
        cfg = LearnerConfig(kind="lasso", lam=10.0, lasso_max_sweeps=1)
        assert np.all(fit(cfg, X, y).coef == 0.0)
        with pytest.raises(ConvergenceError, match="constrained lasso"):
            fit_constrained_linear(cfg, X, y, partition_by_mean(y))


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


class TestPredict:
    def test_linear_evaluation(self):
        m = fit(RIDGE0, [[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0])
        assert predict(m, [[3.0]]) == pytest.approx([6.0])

    def test_anchored_affine_application(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        X = (0.5 * y).reshape(-1, 1)
        base = fit(RIDGE0, X, 0.5 * y)
        anchored = anchor_recalibrate(base, X, y, partition_by_mean(y))
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


class TestConstrainedLinear:
    def test_interpolating_fit_already_feasible(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        m = fit_constrained_linear(RIDGE0, X, y, partition_by_mean(y))
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
        m = fit_constrained_linear(RIDGE0, X, y, split)
        assert m.intercept == pytest.approx(-2.5, abs=1e-10)
        assert m.coef[0] == pytest.approx(2.0, abs=1e-10)
        s1, s2 = group_sums(m, X, y, split)
        assert abs(s1) < 1e-10 and abs(s2) < 1e-10

    def test_constant_outcome_degenerate(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        with pytest.raises(Exception) as exc_info:
            split = partition_by_mean(np.array([2.0, 2.0, 2.0, 2.0]))
            fit_constrained_linear(RIDGE0, X, np.array([2.0, 2.0, 2.0, 2.0]), split)
        assert "mean" in str(exc_info.value) or "group" in str(exc_info.value)

    def test_ridge_consistency_with_unconstrained_at_lam_zero(self):
        # noiseless linear outcome: the unconstrained optimum has zero
        # residuals, hence already satisfies both constraints
        rng = np.random.default_rng(6)
        X = rng.standard_normal((8, 4))
        beta = rng.standard_normal(4)
        y = X @ beta + 1.0
        un = fit(RIDGE0, X, y)
        con = fit_constrained_linear(RIDGE0, X, y, partition_by_mean(y))
        assert np.allclose(con.coef, un.coef, atol=1e-8)
        assert con.intercept == pytest.approx(un.intercept, abs=1e-8)

    def test_gbt_rejected(self):
        with pytest.raises(InvalidInputError):
            fit_constrained_linear(LearnerConfig(kind="gbt"), [[1.0], [2.0]],
                                   [1.0, 2.0], partition_by_mean([1.0, 2.0]))

    @pytest.mark.parametrize("kind,lam", [("ridge", 0.7), ("ridge", 25.0),
                                          ("lasso", 0.02), ("lasso", 0.2)])
    def test_constraints_hold_on_random_problems(self, kind, lam):
        rng = np.random.default_rng(hash((kind, lam)) % 2**32)
        for trial in range(8):
            n, p = int(rng.integers(20, 50)), int(rng.integers(1, 6))
            X = rng.standard_normal((n, p))
            y = X @ rng.standard_normal(p) + rng.standard_normal(n)
            split = partition_by_mean(y)
            m = fit_constrained_linear(LearnerConfig(kind=kind, lam=lam), X, y, split)
            s1, s2 = group_sums(m, X, y, split)
            tol = LINEAR_GROUP_TOL * n * np.std(y)
            assert abs(s1) <= tol and abs(s2) <= tol
            assert m.mode == "umlr"


class TestAnchorRecalibrate:
    def test_half_shrunk_predictions(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        X = (0.5 * y).reshape(-1, 1)
        base = fit(RIDGE0, X, 0.5 * y)
        m = anchor_recalibrate(base, X, y, partition_by_mean(y))
        assert m.anchor == pytest.approx((0.0, 2.0))
        assert np.allclose(m.predict(X), y, atol=1e-10)
        assert m.mode == "umlr"

    def test_identity_when_already_calibrated(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        X = y.reshape(-1, 1)
        base = fit(RIDGE0, X, y)
        m = anchor_recalibrate(base, X, y, partition_by_mean(y))
        a, b = m.anchor
        assert a == pytest.approx(0.0, abs=1e-10)
        assert b == pytest.approx(1.0, abs=1e-10)

    def test_constant_predictions_singular(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        X = np.ones((4, 1))  # base predicts its mean everywhere
        base = fit(LearnerConfig(kind="ridge", lam=1e9), X, y)
        with pytest.raises(RecalibrationSingularError):
            anchor_recalibrate(base, X, y, partition_by_mean(y))

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
            m = anchor_recalibrate(fit(cfg, X, y), X, y, split)
            s1, s2 = group_sums(m, X, y, split)
            tol = GBT_GROUP_TOL * n * np.std(y)
            assert abs(s1) <= tol and abs(s2) <= tol

    def test_anchoring_composes_affine_layers(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        X = (0.5 * y).reshape(-1, 1)
        base = fit(RIDGE0, X, 0.5 * y)
        once = anchor_recalibrate(base, X, y, partition_by_mean(y))
        twice = anchor_recalibrate(once, X, y, partition_by_mean(y))
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
            m = anchor_recalibrate(base, base_col, y, partition_by_mean(y))
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
        split = partition_by_mean(y)
        for make in (
            lambda: fit_constrained_linear(LearnerConfig(kind="ridge", lam=2.0), X, y, split),
            lambda: anchor_recalibrate(
                fit(LearnerConfig(kind="gbt", n_trees=25, max_depth=2,
                                  learning_rate=0.2, min_leaf=5), X, y),
                X, y, split),
        ):
            m = make()
            total = np.sum(m.predict(X) - y)
            assert abs(total) <= 2.0 * m.group_tol
