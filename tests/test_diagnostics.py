import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umlr import (
    BiasInputs,
    Dataset,
    InvalidInputError,
    OracleUnavailableError,
    UndefinedSlopeError,
    counterfactual_slopes,
    estimate_eta,
    evaluate_predictions,
    shrinkage_ate_bias,
)


class TestEstimateEta:
    def test_perfect_predictions(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        rep = estimate_eta(y, y)
        assert rep.eta_hat == pytest.approx(1.0)
        assert rep.spb_metric == pytest.approx(0.0)
        assert rep.resid_cor == 0.0  # zero-variance residual defined as 0
        assert rep.rmse == 0.0 and rep.mae == 0.0

    def test_exact_linear_shrinkage(self):
        y = np.array([-2.0, -1.0, 1.0, 2.0])
        rep = estimate_eta(y, 0.5 * y)
        assert rep.eta_hat == pytest.approx(0.5)
        assert rep.spb_metric == pytest.approx(0.5)
        assert rep.intercept == pytest.approx(0.0)

    def test_monte_carlo_population_slope(self):
        # y ~ N(0,1) x 10k, yhat = 0.7 y + 0.1 noise: the OLS slope of yhat
        # on y estimates 0.7 with sampling error well inside +-0.02
        rng = np.random.default_rng(123)
        y = rng.standard_normal(10_000)
        y_hat = 0.7 * y + 0.1 * rng.standard_normal(10_000)
        rep = estimate_eta(y, y_hat)
        assert abs(rep.eta_hat - 0.7) <= 0.02

    def test_constant_outcome_undefined(self):
        with pytest.raises(UndefinedSlopeError):
            estimate_eta([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_needs_three_points(self):
        with pytest.raises(InvalidInputError):
            estimate_eta([1.0, 2.0], [1.0, 2.0])

    def test_pure_shrinkage_residual_correlation(self):
        y = np.linspace(-3, 3, 50)
        rep = estimate_eta(y, 0.6 * y)
        assert rep.resid_cor == pytest.approx(-1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.1, 5.0), st.integers(0, 1000))
    def test_scale_equivariance(self, c, seed):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(30)
        y_hat = 0.4 * y + 0.1 * rng.standard_normal(30)
        base = estimate_eta(y, y_hat).eta_hat
        scaled_pred = estimate_eta(y, c * y_hat).eta_hat
        assert scaled_pred == pytest.approx(c * base, rel=1e-9)
        both = estimate_eta(c * y, c * y_hat).eta_hat
        assert both == pytest.approx(base, rel=1e-9)


class TestEvaluatePredictions:
    def test_constant_prediction_at_mean(self):
        rep = evaluate_predictions([0.0, 2.0, 0.0, 2.0], [1.0, 1.0, 1.0, 1.0])
        assert rep.rmse == pytest.approx(1.0)
        assert rep.mae == pytest.approx(1.0)
        assert rep.eta_hat == pytest.approx(0.0)

    def test_rmse_mae_formulas(self):
        y = np.array([0.0, 1.0, 2.0])
        y_hat = np.array([0.0, 0.0, 4.0])
        rep = evaluate_predictions(y, y_hat)
        assert rep.rmse == pytest.approx(np.sqrt((0 + 1 + 4) / 3))
        assert rep.mae == pytest.approx((0 + 1 + 2) / 3)
        assert rep.n == 3


class TestCounterfactualSlopes:
    def _make(self, n=300, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 2))
        t = (rng.random(n) < 0.5).astype(int)
        mu0 = X @ np.array([1.0, -0.5])
        mu1 = 2.0 + X @ np.array([1.0, 0.5])
        y = np.where(t == 1, mu1, mu0)
        return Dataset(X, t, y), mu0, mu1

    class _VectorModel:
        """Predicts a fixed linear function of X; stands in for a fit."""

        def __init__(self, fn):
            self.fn = fn

        def predict(self, X):
            return self.fn(np.asarray(X))

    def test_oracle_models_have_unit_slopes(self):
        data, mu0, mu1 = self._make()
        m0 = self._VectorModel(lambda X: X @ np.array([1.0, -0.5]))
        m1 = self._VectorModel(lambda X: 2.0 + X @ np.array([1.0, 0.5]))
        s = counterfactual_slopes(data, mu0, mu1, m0, m1)
        for v in (s.eta_1_1, s.eta_1_0, s.eta_0_0, s.eta_0_1):
            assert v == pytest.approx(1.0, abs=1e-9)

    def test_exact_shrinkage_model(self):
        data, mu0, mu1 = self._make(seed=1)
        m1_mean = mu1[data.t == 1].mean()
        m1 = self._VectorModel(
            lambda X: 0.5 * (2.0 + X @ np.array([1.0, 0.5])) + 0.5 * m1_mean
        )
        m0 = self._VectorModel(lambda X: X @ np.array([1.0, -0.5]))
        s = counterfactual_slopes(data, mu0, mu1, m0, m1)
        assert s.eta_1_1 == pytest.approx(0.5, abs=1e-9)
        assert s.eta_1_0 == pytest.approx(0.5, abs=1e-9)
        assert s.eta_0_0 == pytest.approx(1.0, abs=1e-9)

    def test_missing_oracle_rejected(self):
        data, mu0, mu1 = self._make(seed=2)
        m = self._VectorModel(lambda X: X[:, 0])
        with pytest.raises(OracleUnavailableError):
            counterfactual_slopes(data, None, None, m, m)


class TestShrinkageAteBias:
    def _inputs(self, **kw):
        base = dict(pi=0.5, eta_1_0=0.5, eta_0_1=0.5, w1=1.0, w0=1.0,
                    mu1_in=3.0, mu1_out=1.0, mu0_in=0.0, mu0_out=2.0)
        base.update(kw)
        return BiasInputs(**base)

    def test_hand_evaluated_value(self):
        # pi=.5, etas=.5, w=1, both stratum gaps equal 2:
        # 0.5*0.5*1*2 + 0.5*0.5*1*2 = 1.0
        assert shrinkage_ate_bias(self._inputs()) == pytest.approx(1.0)

    def test_zero_when_extrapolation_perfect(self):
        assert shrinkage_ate_bias(self._inputs(eta_1_0=1.0, eta_0_1=1.0)) == 0.0

    def test_zero_without_covariate_shift(self):
        inp = self._inputs(mu1_in=1.5, mu1_out=1.5, mu0_in=-0.5, mu0_out=-0.5)
        assert shrinkage_ate_bias(inp) == 0.0

    def test_linear_in_each_gap_and_slope_factor(self):
        base = shrinkage_ate_bias(self._inputs())
        doubled_gap = shrinkage_ate_bias(self._inputs(mu1_in=5.0))  # gap 2 -> 4
        assert doubled_gap - base == pytest.approx(0.5 * 0.5 * 1.0 * 2.0)
        half_slope_term = shrinkage_ate_bias(self._inputs(eta_1_0=0.75))
        assert base - half_slope_term == pytest.approx(0.5 * 0.25 * 1.0 * 2.0)

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            self._inputs(pi=0.0)
        with pytest.raises(InvalidInputError):
            self._inputs(eta_1_0=1.2)
        with pytest.raises(InvalidInputError):
            self._inputs(w1=0.0)

    def test_w_equal_one_allowed(self):
        # boundary value used by the injected-shrinkage oracle studies
        assert shrinkage_ate_bias(self._inputs(w1=1.0, w0=1.0)) == pytest.approx(1.0)
