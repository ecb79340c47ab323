from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import umlr.estimators as estimators
import umlr.learners as learners
import umlr.simulation as simulation
from umlr import (
    ConvergenceError,
    Dataset,
    DegeneratePartitionError,
    DgpConfig,
    DivisionGuardError,
    InvalidInputError,
    LearnerConfig,
    NoMatchesError,
    PropensityModel,
    ResamplingError,
    SingularSystemError,
    UnstableBootstrapError,
    aipw,
    aipw_scores,
    anchor_recalibrate,
    bootstrap_ci,
    dml,
    fit,
    fit_constrained_linear,
    fit_propensity,
    generate_replicate,
    outcome_regression_ate,
    psm_att,
    run_monte_carlo,
    s_learner,
    t_learner,
    x_learner,
)
from umlr.estimators import ESTIMATORS, EstimatorSpec, bootstrap_interval, resampled_points
from umlr.learners import LINEAR_GROUP_TOL, _anchor_kernel, _ridge_kernel

RIDGE1 = LearnerConfig(kind="ridge", lam=1.0)


def randomized_dataset(n=200, p=4, effect=2.0, seed=0, noise=1.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    t = (rng.random(n) < 0.5).astype(int)
    y = effect * t + X[:, 0] + noise * rng.standard_normal(n)
    return Dataset(X, t, y)


class TestFitPropensity:
    def test_null_propensity_slopes_vanish(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((4000, 3))
        t = (rng.random(4000) < 0.5).astype(int)
        m = fit_propensity(X, t, l2=1.0)
        assert np.max(np.abs(m.coef)) < 0.05
        assert np.allclose(m.predict_proba(X).mean(), t.mean(), atol=0.02)

    def test_separable_1d_matches_grid_oracle(self):
        # brute-force penalized-likelihood grid search as the oracle
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        t = np.array([0, 0, 1, 1])
        l2 = 1.0
        m = fit_propensity(X, t, l2=l2)

        def neg_penalized_loglik(a, b):
            z = a + b * X[:, 0]
            return np.logaddexp(0.0, z).sum() - t @ z + 0.5 * l2 * b * b

        # coarse-to-fine grid
        best = None
        a_grid = np.linspace(-3, 3, 61)
        b_grid = np.linspace(0, 4, 81)
        for a in a_grid:
            for b in b_grid:
                v = neg_penalized_loglik(a, b)
                if best is None or v < best[0]:
                    best = (v, a, b)
        _, a0, b0 = best
        for a in np.linspace(a0 - 0.2, a0 + 0.2, 81):
            for b in np.linspace(b0 - 0.2, b0 + 0.2, 81):
                v = neg_penalized_loglik(a, b)
                if v < best[0]:
                    best = (v, a, b)
        _, a_star, b_star = best
        assert m.intercept == pytest.approx(a_star, abs=5e-3)
        assert m.coef[0] == pytest.approx(b_star, abs=5e-3)
        e = m.predict_proba(X)
        assert np.all(np.diff(e) > 0)  # monotone in the separating covariate

    def test_two_units_one_per_class(self):
        m = fit_propensity([[0.0], [1.0]], [0, 1], l2=2.0)
        e = m.predict_proba([[0.0], [1.0]])
        assert np.all((e > 0.01 - 1e-12) & (e < 0.99 + 1e-12))

    def test_separation_without_penalty_raises(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        t = np.array([0, 0, 1, 1])
        with pytest.raises(ConvergenceError):
            fit_propensity(X, t, l2=0.0)

    def test_single_class_rejected(self):
        with pytest.raises(InvalidInputError):
            fit_propensity([[1.0], [2.0]], [1, 1], l2=1.0)

    def test_expit_has_the_bits_of_the_two_branch_form(self):
        def two_branch(z):
            out = np.empty_like(z, dtype=float)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 1e308, -1e308]
        rng = np.random.default_rng(19)
        z = np.concatenate([edges, 3.0 * rng.standard_normal(5000),
                            300.0 * rng.standard_normal(5000)])
        for zz in (z, z.reshape(2, -1)):
            assert np.array_equal(estimators._expit(zz).view(np.uint64),
                                  two_branch(zz).view(np.uint64))


class TestOutcomeRegressionAte:
    def test_shift_linearity(self):
        d = randomized_dataset(seed=2)
        mu0 = np.zeros(d.n)
        mu1 = d.X[:, 0]
        base = outcome_regression_ate(d, mu0, mu1)
        shifted = outcome_regression_ate(d, mu0, mu1 + 3.25)
        assert shifted == pytest.approx(base + 3.25)


class TestTLearner:
    def test_constant_arm_outcomes(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 2))
        t = np.repeat([0, 1], 20)
        c = 1.7
        y = c * t.astype(float)
        d = Dataset(X, t, y)
        m0, m1, est = t_learner(d, LearnerConfig(kind="ridge", lam=1e10), "mlr")
        assert est.point == pytest.approx(c, abs=1e-6)

    def test_null_effect_large_n(self):
        rng = np.random.default_rng(4)
        n, p = 4000, 3
        X = rng.standard_normal((n, p))
        t = (rng.random(n) < 0.5).astype(int)
        beta = np.array([1.0, -0.5, 0.25])
        y = X @ beta + 0.5 * rng.standard_normal(n)
        d = Dataset(X, t, y)
        _, _, est = t_learner(d, RIDGE1, "mlr")
        assert abs(est.point) < 0.08

    def test_umlr_constraints_per_arm(self):
        d = randomized_dataset(seed=5)
        m0, m1, est = t_learner(d, RIDGE1, "umlr")
        for m in (m0, m1):
            s1, s2 = m.group_residual_sums
            assert abs(s1) <= m.group_tol and abs(s2) <= m.group_tol
        assert est.mode == "umlr"

    def test_small_arm_rejected(self):
        X = np.ones((8, 1))
        t = np.array([1, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(InvalidInputError):
            t_learner(Dataset(X, t, np.arange(8.0)), RIDGE1, "mlr")

    def test_diagnostics_attached(self):
        d = randomized_dataset(seed=6)
        _, _, est = t_learner(d, RIDGE1, "mlr")
        assert set(est.diagnostics) == {"mu0", "mu1"}
        assert est.diagnostics["mu1"].n == int(d.t.sum())


class TestSLearner:
    def test_recovers_additive_effect_exactly(self):
        # y = c*t + X beta with lam = 0: the treatment-column coefficient is c
        rng = np.random.default_rng(7)
        n = 60
        X = rng.standard_normal((n, 3))
        t = (rng.random(n) < 0.5).astype(int)
        c = -1.25
        y = c * t + X @ np.array([1.0, 0.5, -2.0])
        d = Dataset(X, t, y)
        _, est = s_learner(d, LearnerConfig(kind="ridge", lam=0.0), "mlr")
        assert est.point == pytest.approx(c, abs=1e-8)

    def test_umlr_group_sums(self):
        d = randomized_dataset(seed=8)
        model, est = s_learner(d, RIDGE1, "umlr")
        s1, s2 = model.group_residual_sums
        assert abs(s1) <= model.group_tol and abs(s2) <= model.group_tol


class TestXLearner:
    def test_oracle_stage1_constant_effect(self):
        # stage-1 models exactly equal to the potential-outcome surfaces make
        # every pseudo-outcome equal to the constant effect
        rng = np.random.default_rng(9)
        n = 200
        X = rng.standard_normal((n, 2))
        t = (rng.random(n) < 0.5).astype(int)
        c = 2.5
        y = c * t + X @ np.array([1.0, -1.0])
        d = Dataset(X, t, y)
        prop = fit_propensity(d.X, d.t, l2=1.0)
        est = x_learner(d, LearnerConfig(kind="ridge", lam=0.0), "mlr", prop)
        assert est.point == pytest.approx(c, abs=1e-6)

    def test_even_propensity_blends_equally(self):
        d = randomized_dataset(seed=10)
        cfg = LearnerConfig(kind="ridge", lam=0.5)
        prop_even = PropensityModel(coef=np.zeros(d.p), intercept=0.0)
        est = x_learner(d, cfg, "mlr", prop_even)
        # reconstruct manually with equal weights
        i0, i1 = d.arm_indices(0), d.arm_indices(1)
        m0 = fit(cfg, d.X[i0], d.y[i0])
        m1 = fit(cfg, d.X[i1], d.y[i1])
        d1 = d.y[i1] - m0.predict(d.X[i1])
        d0 = m1.predict(d.X[i0]) - d.y[i0]
        tau1 = fit(cfg, d.X[i1], d1)
        tau0 = fit(cfg, d.X[i0], d0)
        expected = np.mean(0.5 * tau0.predict(d.X) + 0.5 * tau1.predict(d.X))
        assert est.point == pytest.approx(expected, abs=1e-10)


class TestAipw:
    def test_hand_evaluated_six_units(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
        t = np.array([1, 0, 1, 0, 1, 0])
        y = np.array([3.0, 1.0, 5.0, 2.0, 6.0, 4.0])
        mu1 = np.array([2.5, 1.5, 4.5, 2.5, 6.5, 3.5])
        mu0 = np.array([1.0, 0.5, 3.0, 1.5, 5.0, 3.0])
        e = np.array([0.5, 0.4, 0.6, 0.5, 0.7, 0.3])
        d = Dataset(X, t, y)
        # hand evaluation of the augmented sum, unit by unit
        expected_terms = [
            (2.5 - 1.0) + (3.0 - 2.5) / 0.5 - 0.0,
            (1.5 - 0.5) + 0.0 - (1.0 - 0.5) / 0.6,
            (4.5 - 3.0) + (5.0 - 4.5) / 0.6 - 0.0,
            (2.5 - 1.5) + 0.0 - (2.0 - 1.5) / 0.5,
            (6.5 - 5.0) + (6.0 - 6.5) / 0.7 - 0.0,
            (3.5 - 3.0) + 0.0 - (4.0 - 3.0) / 0.7,
        ]
        expected = float(np.mean(expected_terms))
        est = aipw(d, mu0, mu1, e)
        assert est.point == pytest.approx(expected, abs=1e-12)

    def test_reduces_to_ipw_with_constant_models(self):
        d = randomized_dataset(seed=11)
        e = np.full(d.n, d.t.mean())
        est = aipw(d, np.zeros(d.n), np.zeros(d.n), e)
        tmean = d.t.mean()
        ipw = np.mean(d.y * d.t) / tmean - np.mean(d.y * (1 - d.t)) / (1 - tmean)
        assert est.point == pytest.approx(ipw, abs=1e-12)

    def test_reduces_to_or_when_models_interpolate(self):
        rng = np.random.default_rng(12)
        n = 50
        X = rng.standard_normal((n, 1))
        t = (rng.random(n) < 0.5).astype(int)
        y = 1.0 + X[:, 0] + 2.0 * t
        d = Dataset(X, t, y)
        mu1 = 3.0 + X[:, 0]
        mu0 = 1.0 + X[:, 0]
        e = np.full(n, 0.5)
        est = aipw(d, mu0, mu1, e)
        assert est.point == pytest.approx(outcome_regression_ate(d, mu0, mu1), abs=1e-12)

    def test_guard_against_degenerate_propensity(self):
        d = randomized_dataset(seed=13)
        e = np.full(d.n, 0.5)
        e[0] = 1.0
        with pytest.raises(DivisionGuardError):
            aipw(d, np.zeros(d.n), np.zeros(d.n), e)


class TestDml:
    def test_single_fold_rejected(self):
        d = randomized_dataset(seed=14)
        with pytest.raises(InvalidInputError):
            dml(d, RIDGE1, "mlr", folds=1)

    def test_leave_one_out_matches_bruteforce(self):
        rng = np.random.default_rng(16)
        n = 10
        X = rng.standard_normal((n, 1))
        t = np.array([0, 1] * 5)
        y = 1.5 * t + X[:, 0] + 0.1 * rng.standard_normal(n)
        d = Dataset(X, t, y)
        cfg = LearnerConfig(kind="ridge", lam=0.5)
        est = dml(d, cfg, "mlr", folds=n)
        # brute force: for each unit, refit the arm models and the propensity
        # on the other n-1 units
        scores = np.empty(n)
        for i in range(n):
            rest = np.delete(np.arange(n), i)
            Xr, yr, tr = X[rest], y[rest], t[rest]
            m0 = fit(cfg, Xr[tr == 0], yr[tr == 0])
            m1 = fit(cfg, Xr[tr == 1], yr[tr == 1])
            e = fit_propensity(Xr, tr, l2=1.0).predict_proba(X[i : i + 1])[0]
            p1 = m1.predict(X[i : i + 1])[0]
            p0 = m0.predict(X[i : i + 1])[0]
            scores[i] = (
                p1 - p0
                + t[i] * (y[i] - p1) / e
                - (1 - t[i]) * (y[i] - p0) / (1 - e)
            )
        assert est.point == pytest.approx(scores.mean(), abs=1e-10)

    def test_fold_missing_arm_raises(self):
        X = np.arange(12, dtype=float).reshape(-1, 1)
        t = np.array([1] + [0] * 11)
        y = np.arange(12, dtype=float)
        with pytest.raises(ResamplingError):
            dml(Dataset(X, t, y), LearnerConfig(kind="ridge", lam=1.0), "mlr",
                folds=6)

    @staticmethod
    def fold_by_fold(monkeypatch, *args, **kwargs):
        """dml on the path of learners without a count kernel: each fold's
        arm models fitted on its own training rows (the fold propensities
        come from one kernel call on either path)."""
        with monkeypatch.context() as m:
            m.setattr(estimators, "_has_count_kernel", lambda cfg: False)
            return dml(*args, **kwargs)

    @pytest.mark.parametrize("p, folds", [(4, 5), (3, 10), (40, 5)])
    @pytest.mark.parametrize("umlr_route", ["auto", "anchored"])
    def test_ridge_folds_at_once_equal_fold_by_fold(self, monkeypatch, p, folds, umlr_route):
        d = randomized_dataset(n=60, p=p, seed=20 + p)
        nuis, ref_nuis = estimators.Nuisances(d), estimators.Nuisances(d)
        for mode in ("mlr", "umlr"):
            est = dml(d, RIDGE1, mode, folds=folds, umlr_route=umlr_route, nuis=nuis)
            ref = self.fold_by_fold(monkeypatch, d, RIDGE1, mode, folds=folds,
                                    umlr_route=umlr_route, nuis=ref_nuis)
            got = (est.point, est.ci_low, est.ci_high)
            assert got == pytest.approx((ref.point, ref.ci_low, ref.ci_high), rel=1e-12, abs=0)

    def test_ridge_folds_share_one_kernel_call_per_arm_and_propensity(self, monkeypatch):
        calls = Counter()
        ridge, propensity = estimators._ridge_kernel, estimators._propensity_kernel
        monkeypatch.setattr(estimators, "_ridge_kernel",
                            lambda *a: calls.update(ridge=1) or ridge(*a))
        monkeypatch.setattr(estimators, "_propensity_kernel",
                            lambda *a: calls.update({("propensity", len(a[2])): 1})
                            or propensity(*a))
        d = randomized_dataset(n=60, seed=23)
        nuis = estimators.Nuisances(d)
        for mode in ("mlr", "umlr"):
            dml(d, RIDGE1, mode, folds=5, nuis=nuis)
        assert calls == {"ridge": 2, ("propensity", 5): 1}

    def test_fold_propensities_of_any_learner_come_from_one_kernel_call(self, monkeypatch):
        # a learner without a count kernel fits its arm models fold by fold,
        # but all fold propensities at once; each fold's equal the fit on its
        # training rows up to rounding
        d = randomized_dataset(n=60, seed=25)
        lasso = LearnerConfig(kind="lasso", lam=0.05)
        calls = []
        kernel = estimators._propensity_kernel
        monkeypatch.setattr(estimators, "_propensity_kernel",
                            lambda *a: calls.append(len(a[2])) or kernel(*a))
        nuis = estimators.Nuisances(d)
        fold_of = nuis.folds(5)
        for mode in ("mlr", "umlr"):
            est = dml(d, lasso, mode, folds=5, nuis=nuis)
            scores = np.empty(d.n)
            for k in range(5):
                test = fold_of == k
                m0, m1 = [nuis.predictions(lasso, mode, "auto", ("fold", 5, k, arm))
                          for arm in (0, 1)]
                e = fit_propensity(d.X[~test], d.t[~test]).predict_proba(d.X[test])
                scores[test] = aipw_scores(d.subset(np.flatnonzero(test)), m0, m1, e)
            assert est.point == pytest.approx(scores.mean(), rel=1e-12, abs=0)
        assert calls == [5] + [1] * 10  # the fold kernel, then the ten references

    @pytest.mark.parametrize("mode", ["mlr", "umlr"])
    def test_failing_fold_raises_the_fold_by_fold_class(self, monkeypatch, mode):
        # one treated unit leaves every fold's training part thin
        X = np.arange(12, dtype=float).reshape(-1, 1)
        thin = Dataset(X, np.array([1] + [0] * 11), np.arange(12, dtype=float))
        # t = 1 exactly when x > 0: at l2 = 0 no fold's logistic fit has an optimum
        rng = np.random.default_rng(24)
        X = rng.standard_normal((40, 2))
        t = (X[:, 0] > 0).astype(int)
        separable = Dataset(X, t, X[:, 1] + t + 0.1 * rng.standard_normal(40))
        for data, l2, error in ((thin, 1.0, ResamplingError), (separable, 0.0, ConvergenceError)):
            with pytest.raises(error):
                self.fold_by_fold(monkeypatch, data, RIDGE1, mode, folds=4, l2=l2)
            with pytest.raises(error):
                dml(data, RIDGE1, mode, folds=4, l2=l2)

    def test_interval_present_and_ordered(self):
        d = randomized_dataset(seed=17)
        est = dml(d, RIDGE1, "mlr", folds=5)
        assert est.ci_low <= est.point <= est.ci_high

    def test_permutation_invariance(self):
        d = randomized_dataset(seed=18, n=80)
        rng = np.random.default_rng(0)
        perm = rng.permutation(d.n)
        dp = Dataset(d.X[perm], d.t[perm], d.y[perm])
        a = dml(d, RIDGE1, "mlr", folds=4)
        b = dml(dp, RIDGE1, "mlr", folds=4)
        assert a.point == pytest.approx(b.point, abs=1e-12)


class TestPsmAtt:
    def test_identical_covariates_match_everyone(self):
        n = 30
        X = np.ones((n, 1))
        t = np.array([1] * 10 + [0] * 20)
        rng = np.random.default_rng(19)
        y = t * 2.0 + rng.standard_normal(n) * 0.1
        d = Dataset(X, t, y)
        e = np.full(n, 1 / 3)
        est = psm_att(d, e)
        assert est.n_used == 20  # all 10 treated matched
        assert est.estimator == "psm_att"

    def test_single_pair(self):
        d = Dataset([[0.0], [0.1]], [1, 0], [3.0, 1.0])
        est = psm_att(d, np.array([0.5, 0.5]))
        assert est.point == pytest.approx(2.0)
        assert est.n_used == 2

    def test_caliper_excludes_distant_controls(self):
        # two treated at high propensity, controls far away in logit
        e = np.array([0.9, 0.88, 0.1, 0.12, 0.11, 0.13])
        t = np.array([1, 1, 0, 0, 0, 0])
        d = Dataset(np.arange(6, dtype=float).reshape(-1, 1), t, np.arange(6.0))
        with pytest.raises(NoMatchesError):
            psm_att(d, e, caliper=0.2)

    def test_greedy_descending_order_documented_tiebreak(self):
        # the highest-propensity treated unit picks the nearest control first
        e = np.array([0.8, 0.6, 0.55, 0.5])
        t = np.array([1, 1, 0, 0])
        y = np.array([4.0, 3.0, 1.0, 0.0])
        d = Dataset(np.zeros((4, 1)) + np.arange(4).reshape(-1, 1), t, y)
        est = psm_att(d, e, caliper=1e9)
        # unit 0 (e=.8) grabs control 2 (nearest), unit 1 gets control 3
        assert est.point == pytest.approx(np.mean([4.0 - 1.0, 3.0 - 0.0]))

    def test_affine_logit_invariance(self):
        # caliper scales with sd(logit), so any increasing affine map of the
        # logit produces identical pairs
        rng = np.random.default_rng(20)
        n = 60
        e = rng.uniform(0.2, 0.8, n)
        logit = np.log(e / (1 - e))
        e2 = 1 / (1 + np.exp(-(0.3 + 2.5 * logit)))
        t = (rng.random(n) < 0.4).astype(int)
        if t.sum() == 0:
            t[0] = 1
        y = rng.standard_normal(n)
        d = Dataset(rng.standard_normal((n, 2)), t, y)
        est1 = psm_att(d, e)
        est2 = psm_att(d, e2)
        assert est1.point == pytest.approx(est2.point, abs=1e-12)
        assert est1.n_used == est2.n_used


class TestBootstrapCi:
    def test_degenerate_estimator(self):
        d = randomized_dataset(seed=21, n=40)
        lo, hi = bootstrap_ci(d, lambda _: 3.14, B=60, seed=0)
        assert lo == hi == pytest.approx(3.14)

    def test_sample_mean_width_matches_analytic(self):
        rng = np.random.default_rng(22)
        n = 200
        d = Dataset(rng.standard_normal((n, 1)), (rng.random(n) < 0.5).astype(int),
                    rng.standard_normal(n))
        lo, hi = bootstrap_ci(d, lambda dd: float(np.mean(dd.y)), B=500, seed=1)
        width = hi - lo
        analytic = 2 * 1.96 / np.sqrt(n)
        assert abs(width - analytic) <= 0.2 * analytic

    def test_deterministic_under_seed(self):
        d = randomized_dataset(seed=23, n=60)
        est = lambda dd: float(np.mean(dd.y))
        assert bootstrap_ci(d, est, B=80, seed=9) == bootstrap_ci(d, est, B=80, seed=9)

    def test_minimum_resamples(self):
        d = randomized_dataset(seed=24, n=30)
        with pytest.raises(InvalidInputError):
            bootstrap_ci(d, lambda dd: 0.0, B=10, seed=0)

    def test_unstable_estimator_reported(self):
        d = randomized_dataset(seed=25, n=30)
        calls = {"k": 0}

        def flaky(dd):
            calls["k"] += 1
            if calls["k"] % 3 == 0:
                return 1.0
            raise InvalidInputError("boom")

        with pytest.raises(UnstableBootstrapError) as exc_info:
            bootstrap_ci(d, flaky, B=60, seed=0)
        assert exc_info.value.failure_rate > 0.10

    def test_normal_method_centers_on_estimate(self):
        d = randomized_dataset(seed=26, n=80)
        est = lambda dd: float(np.mean(dd.y))
        point = est(d)
        lo, hi = bootstrap_ci(d, est, B=200, seed=2, method="normal")
        assert lo < point < hi
        assert (lo + hi) / 2 == pytest.approx(point, abs=1e-12)


class TestStackedBootstrap:
    """Ridge cells are evaluated on the resamples as count-weighted fits,
    batched at small p and on each resample's distinct rows above
    STACK_MAX_P; each resample must give what it gives evaluated on its own
    rows, failures included."""

    NULL = DgpConfig(n=160, p=4, s=2, mu1=2.0, mu0=0.0, gamma_scale=0.0,
                     effect_scale=0.0, sigma=0.4, beta_scale=2.5, seed=20250808)
    # p = 40 > STACK_MAX_P: an arm of about 60 rows draws about 38 distinct
    # rows, fewer than p (the dual form) or more (the primal form)
    WIDE = DgpConfig(n=120, p=40, s=5, seed=20250808)
    # The wide design's penalties. At propensity_l2 = 1 the logistic fits
    # come near separation, and the stacked and per-resample fits of a
    # resample may stop a Newton step apart, so parity at 1e-12 is checked
    # at propensity_l2 = 30 (see the weak-penalty test). At lam = 0.1 the arm
    # fits nearly interpolate, and rounding moves points near 0 by more than
    # 1e-12 of themselves (about 2e-13 absolute).
    WIDE_L2 = 30.0
    WIDE_LEARNER = LearnerConfig(kind="ridge", lam=1.0)
    LEARNER = LearnerConfig(kind="ridge", lam=0.1)
    NAMES = ("s_learner", "t_learner", "x_learner", "aipw")

    def cells(self, umlr_route="auto", wide=False):
        learner, l2 = (self.WIDE_LEARNER, self.WIDE_L2) if wide else (self.LEARNER, 1.0)
        return [(ESTIMATORS[name], EstimatorSpec(learner, mode, umlr_route, l2))
                for name in self.NAMES for mode in ("mlr", "umlr")]

    @staticmethod
    def one_by_one(monkeypatch, data, cells, B, seed):
        with monkeypatch.context() as m:
            m.setattr(estimators, "_STACKED", {})  # no cell is stacked
            return resampled_points(data, cells, B, seed)

    @staticmethod
    def redone(monkeypatch, data, cells, B, seed):
        """resampled_points, and the resamples it evaluated one by one."""
        redone = []
        on_resample = estimators._on_resample
        with monkeypatch.context() as m:
            m.setattr(estimators, "_on_resample",
                      lambda *a: redone.append(a[2]) or on_resample(*a))
            return resampled_points(data, cells, B, seed), redone

    @staticmethod
    def tiny_treated_arm(p):
        """40 units, 6 of them treated, whose outcomes take two values."""
        rng = np.random.default_rng(8)
        n = 40
        X = rng.standard_normal((n, p))
        t = np.zeros(n, dtype=int)
        t[:6] = 1
        y = X[:, 0] + 0.5 * rng.standard_normal(n)
        y[:6] = [1.0, 1.0, 1.0, 3.0, 3.0, 3.0]
        return Dataset(X, t, y)

    @pytest.mark.parametrize("umlr_route", ["auto", "anchored"])
    def test_each_resample_matches_its_own_fits(self, monkeypatch, umlr_route):
        cells = self.cells(umlr_route)
        for r in range(3):
            data = generate_replicate(self.NULL, r).data
            (points, failures), redone = self.redone(monkeypatch, data, cells, 100, r)
            assert redone == []  # no stacked check flagged a resample of these
            ref_points, ref_failures = self.one_by_one(monkeypatch, data, cells, 100, r)
            assert failures == ref_failures == [Counter()] * len(cells)
            for got, ref in zip(points, ref_points):
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_failures_are_counted_by_the_per_resample_error(self, monkeypatch):
        # a 6-unit treated arm: resamples drawing fewer than 5 of its units
        # fail in every cell, and the umlr arm fits of those drawing only
        # units of one of its two outcome values fail too
        data = self.tiny_treated_arm(3)
        cells = self.cells()
        B = 200
        points, failures = resampled_points(data, cells, B, 0)
        ref_points, ref_failures = self.one_by_one(monkeypatch, data, cells, B, 0)
        assert failures == ref_failures
        assert all(failed["InvalidInputError"] > 0 for failed in failures)
        assert [failed["DegeneratePartitionError"] > 0 for failed in failures] == [
            name != "s_learner" and mode == "umlr" for name in self.NAMES
            for mode in ("mlr", "umlr")]
        def refused(pts):
            try:
                bootstrap_interval(pts, B, 0.95, "normal", lambda: 2.0)
            except UnstableBootstrapError:
                return True
            return False

        for got, ref in zip(points, ref_points):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
            assert refused(got) == refused(ref)

    def test_a_singular_newton_step_fails_each_resample_on_its_own(self, monkeypatch):
        # a covariate equal to the intercept column makes every unpenalized
        # propensity Hessian exactly singular: the aipw cell fails on every
        # resample, and the t cell beside it is still evaluated stacked
        rng = np.random.default_rng(9)
        n = 60
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        t = (np.arange(n) % 2).astype(int)
        data = Dataset(X, t, t + X[:, 1] + rng.standard_normal(n))
        cells = [(ESTIMATORS[name], EstimatorSpec(self.LEARNER, "mlr", propensity_l2=0.0))
                 for name in ("t_learner", "aipw")]
        (points, failures), redone = self.redone(monkeypatch, data, cells, 50, 3)
        ref_points, ref_failures = self.one_by_one(monkeypatch, data, cells, 50, 3)
        assert redone == []
        assert failures == ref_failures == [Counter(), Counter(ConvergenceError=50)]
        for got, ref in zip(points, ref_points):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_worker_threads_give_identical_records(self):
        scenario = [(name, mode) for name in self.NAMES for mode in ("mlr", "umlr")]
        runs = [run_monte_carlo(self.NULL, self.LEARNER, scenario, reps=10, B=50,
                                workers=workers, return_records=True)[1]
                for workers in (1, 2)]
        assert runs[0] == runs[1]

    def test_points_do_not_depend_on_the_chunk_size(self, monkeypatch):
        cells = self.cells()
        for r in range(2):
            data = generate_replicate(self.NULL, r).data
            runs = []
            for budget in (1, 10**9):  # one resample per chunk; all B in one
                monkeypatch.setattr(estimators, "STACK_CELLS", budget)
                runs.append(resampled_points(data, cells, 100, r))
            assert runs[0] == runs[1]

    @pytest.mark.parametrize("umlr_route", ["auto", "anchored"])
    def test_wide_resamples_match_their_own_fits(self, monkeypatch, umlr_route):
        cells = self.cells(umlr_route, wide=True)
        for r in range(2):
            data = generate_replicate(self.WIDE, r).data
            drawn = [np.unique(estimators._draw(data.n, r, b)) for b in range(100)]
            distinct = [np.count_nonzero(data.t[d] == arm) for d in drawn for arm in (0, 1)]
            assert min(distinct) < self.WIDE.p < max(distinct)  # both forms are solved
            (points, failures), redone = self.redone(monkeypatch, data, cells, 100, r)
            assert redone == []
            ref_points, ref_failures = self.one_by_one(monkeypatch, data, cells, 100, r)
            assert failures == ref_failures == [Counter()] * len(cells)
            for got, ref in zip(points, ref_points):
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_wide_failures_are_counted_by_the_per_resample_error(self, monkeypatch):
        data = self.tiny_treated_arm(40)
        cells = self.cells(wide=True)
        (points, failures), redone = self.redone(monkeypatch, data, cells, 200, 0)
        ref_points, ref_failures = self.one_by_one(monkeypatch, data, cells, 200, 0)
        assert failures == ref_failures
        assert all(failed["InvalidInputError"] > 0 for failed in failures)
        assert len(redone) < 200  # the others were evaluated stacked
        for got, ref in zip(points, ref_points):  # some points lie near 0: rounding
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())

    def test_wide_columns_with_large_offsets_match_their_own_fits(self, monkeypatch):
        # covariates far from 0, as raw ages are: the dual resamples' Gram
        # matrix is formed from centred rows, so no offset cancels in it (one
        # formed from the raw rows fails most resamples at +100). Far larger offsets
        # cost every route, the one-by-one fits too, 1e-12 parity: at +1e4
        # each prediction a + x'b cancels terms about 1e4 times its size.
        cells = self.cells(wide=True)
        base = generate_replicate(self.WIDE, 0).data
        data = Dataset(base.X + 100.0, base.t, base.y)
        (points, failures), redone = self.redone(monkeypatch, data, cells, 100, 0)
        assert redone == []
        ref_points, ref_failures = self.one_by_one(monkeypatch, data, cells, 100, 0)
        assert failures == ref_failures == [Counter()] * len(cells)
        for got, ref in zip(points, ref_points):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_wide_resamples_solve_the_smaller_system_of_one_gram_matrix(self, monkeypatch):
        # d < q drawn rows: one (d + 1) x (d + 1) bordered dual system; d >= q:
        # the q x q primal one. A kernel call forms one Gram matrix if any of
        # its resamples needs it, and none otherwise
        data = generate_replicate(self.WIDE, 0).data
        calls = []
        kernel, gram, solve = estimators._ridge_kernel, learners._centred_gram, learners._solve

        def traced_kernel(lam, X, y, c, *rest):
            calls.append({"q": X.shape[1], "drawn": np.count_nonzero(c, axis=1).tolist(),
                          "grams": 0, "systems": []})
            return kernel(lam, X, y, c, *rest)

        def traced_gram(X):
            calls[-1]["grams"] += 1
            return gram(X)

        monkeypatch.setattr(estimators, "_ridge_kernel", traced_kernel)
        monkeypatch.setattr(learners, "_centred_gram", traced_gram)
        monkeypatch.setattr(learners, "_solve",
                            lambda A, B: calls[-1]["systems"].append(A.shape) or solve(A, B))
        resampled_points(data, self.cells(wide=True), 60, 0)
        for call in calls:
            q, drawn = call["q"], call["drawn"]
            assert call["systems"] == [(1, d + 1, d + 1) if d < q else (1, q, q) for d in drawn]
            assert call["grams"] == int(any(d < q for d in drawn))
        routes = {(min(call["drawn"]) < call["q"], max(call["drawn"]) >= call["q"])
                  for call in calls}
        assert routes == {(True, True), (True, False), (False, True)}

    def test_wide_points_do_not_depend_on_the_chunk_size(self, monkeypatch):
        data = generate_replicate(self.WIDE, 0).data
        # with propensity fits, whose stacked arrays are wide, and without
        for cells in (self.cells(wide=True), self.cells(wide=True)[:4]):
            runs = []
            for budget in (1, 10**9):  # one resample per chunk; all B in one
                monkeypatch.setattr(estimators, "STACK_CELLS", budget)
                runs.append(resampled_points(data, cells, 60, 0))
            assert runs[0] == runs[1]

    def test_weak_penalty_propensity_cells_run_stacked(self, monkeypatch):
        # at propensity_l2 = 1 the wide design's line-search comparisons come
        # within rounding of their bound; no resample is run one by one for it
        cells = [(ESTIMATORS[name], EstimatorSpec(self.WIDE_LEARNER, mode, "auto", 1.0))
                 for name in ("x_learner", "aipw") for mode in ("mlr", "umlr")]
        for r in range(2):
            data = generate_replicate(self.WIDE, r).data
            (points, failures), redone = self.redone(monkeypatch, data, cells, 100, r)
            assert redone == []
            assert failures == [Counter()] * len(cells)
            runs = []
            for budget in (1, 10**9):  # one resample per chunk; all B in one
                monkeypatch.setattr(estimators, "STACK_CELLS", budget)
                runs.append(resampled_points(data, cells, 100, r))
            assert runs[0] == runs[1] == (points, failures)

    def test_wide_worker_threads_give_identical_records(self):
        scenario = [(name, mode) for name in self.NAMES for mode in ("mlr", "umlr")]
        runs = [run_monte_carlo(self.WIDE, self.WIDE_LEARNER, scenario, reps=10, B=50,
                                propensity_l2=self.WIDE_L2, workers=workers,
                                return_records=True)[1]
                for workers in (1, 2)]
        assert runs[0] == runs[1]

    def test_no_criterion_3_resample_runs_one_by_one(self, monkeypatch):
        # the design of acceptance criterion 3, where most Tier-1 time goes
        dgp = DgpConfig(n=500, p=200, s=10, mu1=6.0, mu0=0.0, gamma_scale=0.3,
                        sigma=2.0, seed=20250808)
        cells = [(ESTIMATORS["t_learner"],
                  EstimatorSpec(LearnerConfig(kind="ridge", lam=250.0), mode, "anchored"))
                 for mode in ("mlr", "umlr")]
        for r in range(2):
            data = generate_replicate(dgp, r).data
            (_, failures), redone = self.redone(monkeypatch, data, cells, 200, r)
            assert redone == [] and failures == [Counter()] * 2

    def test_a_record_counts_the_resamples_its_cell_lost(self, monkeypatch):
        data = self.tiny_treated_arm(3)
        lost = []

        def counted(*args):
            points, failures = resampled_points(*args)
            lost.append([sum(failed.values()) for failed in failures])
            return points, failures

        monkeypatch.setattr(simulation, "resampled_points", counted)
        monkeypatch.setattr(simulation, "generate_replicate",
                            lambda dgp, r: replace(generate_replicate(dgp, r), data=data))
        scenario = [(name, mode) for name in (*self.NAMES, "dml") for mode in ("mlr", "umlr")]
        records = run_monte_carlo(self.NULL, self.LEARNER, scenario, reps=10, B=100,
                                  return_records=True)[1]
        for r, counts in enumerate(lost):
            rows = records[r * len(scenario):(r + 1) * len(scenario)]
            assert [row["n_boot_failed"] for row in rows] == [*counts, None, None]
            assert all(count > 0 for count in counts)


class TestKernelStatus:
    """Each count kernel reports per resample the error class that its
    single-dataset fit raises: the public fit at k = 1 raises C, and the
    kernel run on the same counts twice reports C for both rows."""

    @staticmethod
    def classes(status):
        return [type(error) for error in status]

    @staticmethod
    def twice(counts):
        return np.array([counts, counts], dtype=float)

    def ridge_cases(self):
        """(X, y, counts, C): a constant arm, an outcome drawing only one of
        its two values, and a constant covariate (u = 0, infeasible)."""
        rng = np.random.default_rng(4)
        X = rng.standard_normal((10, 2))
        two = np.where(np.arange(10) < 5, 1.0, 3.0)
        yield X, np.full(10, 2.0), np.ones(10), DegeneratePartitionError
        yield X, two, np.array([2, 1, 1, 3, 0, 0, 0, 0, 0, 0]), DegeneratePartitionError
        yield np.full((10, 1), 3.0), np.arange(10.0), np.ones(10), SingularSystemError

    def test_constrained_ridge_and_anchoring(self):
        for X, y, counts, error in self.ridge_cases():
            rows = np.repeat(np.arange(y.size), counts.astype(int))
            with pytest.raises(error):
                fit_constrained_linear(RIDGE1, X[rows], y[rows])
            c = self.twice(counts)
            below = y <= ((c * y).sum(axis=1) / c.sum(axis=1))[:, None]
            assert self.classes(_ridge_kernel(1.0, X, y, c, below)[1].status) == [error] * 2
            if error is DegeneratePartitionError:  # the anchoring layer's split
                with pytest.raises(error):
                    anchor_recalibrate(fit(RIDGE1, X[rows], y[rows]), X[rows], y[rows])
                raw = np.tile(X[:, 0], (2, 1))
                status = _anchor_kernel(raw, y, c, below, LINEAR_GROUP_TOL)[-1]
                assert self.classes(status) == [error] * 2

    def test_unpenalized_propensity_on_separable_or_singular_designs(self):
        x = np.array([-2.0, -1.0, 1.0, 2.0, -1.5, 1.5])
        t = np.array([0, 0, 1, 1, 0, 1])
        for X in (x[:, None], np.column_stack([np.ones(6), x])):  # separable; singular
            with pytest.raises(ConvergenceError):
                fit_propensity(X, t, l2=0.0)
            status = estimators._propensity_kernel(X, t, self.twice(np.ones(6)), 0.0)[1]
            assert self.classes(status) == [ConvergenceError] * 2

    def test_tiny_arm(self):
        rng = np.random.default_rng(5)
        n = 20
        X = rng.standard_normal((n, 2))
        t = (np.arange(n) < 4).astype(int)  # four treated units
        data = Dataset(X, t, X[:, 0] + t + rng.standard_normal(n))
        with pytest.raises(InvalidInputError):
            t_learner(data, RIDGE1, "umlr")
        memo = estimators.Nuisances(data, self.twice(np.ones(n)))
        ESTIMATORS["t_learner"].run(data, EstimatorSpec(RIDGE1, "umlr"), memo)
        assert self.classes(memo.status) == [InvalidInputError] * 2
        # a resample drawing no treated unit has no propensity fit
        counts = (t == 0) * 2.0
        with pytest.raises(InvalidInputError):
            fit_propensity(X[t == 0], t[t == 0])
        status = estimators._propensity_kernel(X, t, self.twice(counts), 1.0)[1]
        assert self.classes(status) == [InvalidInputError] * 2


class TestPermutationInvariance:
    @pytest.mark.parametrize("which", ["t", "s", "x", "aipw"])
    def test_point_estimates_permutation_invariant(self, which):
        d = randomized_dataset(seed=27, n=120)
        rng = np.random.default_rng(1)
        perm = rng.permutation(d.n)
        dp = Dataset(d.X[perm], d.t[perm], d.y[perm])
        cfg = RIDGE1

        def run(dd):
            if which == "t":
                return t_learner(dd, cfg, "umlr")[2].point
            if which == "s":
                return s_learner(dd, cfg, "umlr")[1].point
            prop = fit_propensity(dd.X, dd.t, l2=1.0)
            if which == "x":
                return x_learner(dd, cfg, "mlr", prop).point
            m0, m1, _ = t_learner(dd, cfg, "mlr")
            return aipw(dd, m0, m1, prop).point

        assert run(d) == pytest.approx(run(dp), abs=1e-9)


class TestKnobChecks:
    """The public estimators reject a bad knob with InvalidInputError naming
    it, through the same checks EstimatorSpec runs."""

    def test_dml_rejects_level_outside_unit_interval(self):
        d = randomized_dataset(seed=30, n=60)
        for level in (1.5, 0.0, float("nan")):
            with pytest.raises(InvalidInputError, match="'level'"):
                dml(d, RIDGE1, "mlr", level=level)

    @pytest.mark.parametrize("l2", [float("nan"), float("inf"), -1.0])
    def test_fit_propensity_rejects_bad_l2(self, l2):
        d = randomized_dataset(seed=31, n=60)
        with pytest.raises(InvalidInputError, match="'l2'"):
            fit_propensity(d.X, d.t, l2=l2)

    def test_fit_propensity_rejects_bad_clip_before_fitting(self):
        # separable classes with l2 = 0 would end the fit in ConvergenceError
        X, t = np.array([[-2.0], [-1.0], [1.0], [2.0]]), np.array([0, 0, 1, 1])
        with pytest.raises(InvalidInputError, match="clip"):
            fit_propensity(X, t, l2=0.0, clip=(0.9, 0.1))

    @pytest.mark.parametrize("caliper", [float("nan"), -1.0, float("inf")])
    def test_psm_rejects_bad_caliper(self, caliper):
        d = randomized_dataset(seed=32, n=60)
        with pytest.raises(InvalidInputError, match="'caliper'"):
            psm_att(d, fit_propensity(d.X, d.t, l2=1.0), caliper=caliper)

    def test_bootstrap_rejects_negative_seed(self):
        d = randomized_dataset(seed=33, n=60)
        with pytest.raises(InvalidInputError, match="'seed'"):
            bootstrap_ci(d, lambda dd: float(np.mean(dd.y)), B=50, seed=-1)

    def test_count_knobs_must_be_integers(self):
        # every int field of the configs and every count argument rejects a
        # float with InvalidInputError and takes a numpy integer
        import dataclasses

        d = randomized_dataset(seed=34, n=60)
        dgp = DgpConfig(n=40, p=4, s=2, seed=1)
        t_cell = [(ESTIMATORS["t_learner"], EstimatorSpec(RIDGE1))]
        t_mlr = [("t_learner", "mlr")]

        def mean(dd):
            return float(np.mean(dd.y))

        calls = {  # knob -> (call with the knob set to v, a valid value)
            f"{type(base).__name__}.{f.name}": (
                lambda v, base=base, key=f.name: replace(base, **{key: v}), getattr(base, f.name))
            for base in (LearnerConfig(), dgp, EstimatorSpec(RIDGE1))
            for f in dataclasses.fields(base) if f.type in (int, "int")
        }
        assert len(calls) == 8
        calls |= {
            "bootstrap_ci B": (lambda v: bootstrap_ci(d, mean, B=v), 50),
            "bootstrap_ci seed": (lambda v: bootstrap_ci(d, mean, B=50, seed=v), 0),
            "resampled_points B": (lambda v: resampled_points(d, t_cell, v, 0), 50),
            "resampled_points seed": (lambda v: resampled_points(d, t_cell, 50, v), 0),
            "dml folds": (lambda v: dml(d, RIDGE1, folds=v), 2),
            "run_monte_carlo reps": (lambda v: run_monte_carlo(dgp, RIDGE1, t_mlr, v, B=0), 10),
            "run_monte_carlo B": (lambda v: run_monte_carlo(dgp, RIDGE1, t_mlr, 10, B=v), 0),
            "run_monte_carlo workers": (
                lambda v: run_monte_carlo(dgp, RIDGE1, t_mlr, 10, B=0, workers=v), 1),
            "generate_replicate rep_index": (lambda v: generate_replicate(dgp, v), 0),
            "shrinkage_oracle_study reps": (
                lambda v: simulation.shrinkage_oracle_study(dgp, v, 0.5, 0.5, 0.5), 1),
            "aipw_oracle_sweep reps": (lambda v: simulation.aipw_oracle_sweep(
                [40], [1.0], dgp, v, variants=("po_mean_oracle",)), 2),
        }
        for call, valid in calls.values():
            with pytest.raises(InvalidInputError, match="must be an integer"):
                call(2.5)
            call(np.int64(valid))

    def test_spec_rejects_constrained_route_for_gbt(self):
        from umlr.estimators import EstimatorSpec

        gbt = LearnerConfig(kind="gbt", n_trees=5)
        with pytest.raises(InvalidInputError, match="'umlr_route'"):
            EstimatorSpec(gbt, "umlr", "constrained")
        # the route is read in umlr mode only, and the other routes serve gbt
        EstimatorSpec(gbt, "mlr", "constrained")
        EstimatorSpec(gbt, "umlr", "anchored")
        EstimatorSpec(gbt, "umlr", "auto")
        EstimatorSpec(RIDGE1, "umlr", "constrained")
