"""Systematic-prediction-bias diagnostics and closed-form ATE bias.

Predictions that shrink toward the outcome mean satisfy
E(yhat | y) = eta * y (after centering) for some slope eta in [0, 1]; eta is
estimated here by the OLS slope of yhat on y, and 1 - eta is reported as the
shrinkage metric. The closed-form ATE bias induced by such shrinkage in
per-arm outcome models is

    bias = (1 - pi) * (1 - eta_1_out) * w1 * (mu1_in - mu1_out)
         +      pi  * (1 - eta_0_out) * w0 * (mu0_out_stratum - mu0_in)

where pi is the treated share, eta_t_out the out-of-distribution slope of
arm t's model on the opposite arm, w_t the weight with which the shrinkage
target leans toward the training-arm mean, and the mu-bars are arm-stratum
means of the oracle outcome surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .errors import InvalidInputError, OracleUnavailableError, UndefinedSlopeError, check_unit

__all__ = [
    "SpbReport",
    "BiasInputs",
    "CounterfactualSlopes",
    "estimate_eta",
    "evaluate_predictions",
    "counterfactual_slopes",
    "shrinkage_ate_bias",
]


@dataclass(frozen=True)
class SpbReport:
    """Shrinkage and accuracy summary for a (y, yhat) pair."""

    eta_hat: float
    spb_metric: float  # 1 - eta_hat
    intercept: float
    resid_cor: float  # Cor(y, yhat - y); 0 when the residual is constant
    rmse: float
    mae: float
    n: int


@dataclass(frozen=True)
class BiasInputs:
    """Inputs of the closed-form shrinkage-induced ATE bias."""

    pi: float
    eta_1_0: float  # arm-1 model slope evaluated on controls
    eta_0_1: float  # arm-0 model slope evaluated on treated
    w1: float
    w0: float
    mu1_in: float  # mean of mu1*(X) over treated
    mu1_out: float  # mean of mu1*(X) over controls
    mu0_in: float  # mean of mu0*(X) over controls
    mu0_out: float  # mean of mu0*(X) over treated

    def __post_init__(self):
        check_unit("pi", self.pi)
        for key, ends in (("eta_1_0", "[]"), ("eta_0_1", "[]"), ("w1", "(]"), ("w0", "(]")):
            check_unit(key, getattr(self, key), ends)


@dataclass(frozen=True)
class CounterfactualSlopes:
    """Calibration slopes of per-arm models against the oracle surfaces,
    split by assigned arm (in-distribution vs out-of-distribution)."""

    eta_1_1: float  # arm-1 model on treated units
    eta_1_0: float  # arm-1 model on control units (OOD)
    eta_0_0: float  # arm-0 model on control units
    eta_0_1: float  # arm-0 model on treated units (OOD)


def _slope_intercept(y: np.ndarray, y_hat: np.ndarray) -> tuple[float, float]:
    var = float(np.var(y))
    if var == 0.0:
        raise UndefinedSlopeError("reference outcome is constant; slope undefined")
    cov = float(np.mean((y - y.mean()) * (y_hat - y_hat.mean())))
    eta = cov / var
    return eta, float(y_hat.mean() - eta * y.mean())


def _validate_pair(y, y_hat) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if y.ndim != 1 or y_hat.shape != y.shape:
        raise InvalidInputError("y and y_hat must be 1-d vectors of equal length")
    if y.size < 3:
        raise InvalidInputError("need at least 3 points for a slope estimate")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(y_hat))):
        raise InvalidInputError("y or y_hat contains non-finite entries")
    return y, y_hat


def evaluate_predictions(y, y_hat) -> SpbReport:
    """Full prediction report: shrinkage slope, residual correlation, RMSE, MAE."""
    y, y_hat = _validate_pair(y, y_hat)
    eta, intercept = _slope_intercept(y, y_hat)
    resid = y_hat - y
    if np.std(resid) == 0.0 or np.std(y) == 0.0:
        resid_cor = 0.0
    else:
        resid_cor = float(np.corrcoef(y, resid)[0, 1])
    return SpbReport(
        eta_hat=eta,
        spb_metric=1.0 - eta,
        intercept=intercept,
        resid_cor=resid_cor,
        rmse=float(np.sqrt(np.mean(resid**2))),
        mae=float(np.mean(np.abs(resid))),
        n=y.size,
    )


def estimate_eta(y, y_hat) -> SpbReport:
    """Shrinkage slope of yhat on y (OLS with intercept), as a full report."""
    return evaluate_predictions(y, y_hat)


def counterfactual_slopes(data: Dataset, mu0_star, mu1_star, model0,
                          model1) -> CounterfactualSlopes:
    """Per-arm/per-stratum calibration slopes of fitted outcome models.

    Regresses model predictions on the reference surfaces ``mu0_star`` and
    ``mu1_star``: the oracle surfaces mu_t*(X), or the realized potential
    outcomes. Only computable in simulations where those quantities exist.
    """
    if mu0_star is None or mu1_star is None:
        raise OracleUnavailableError(
            "counterfactual slopes need oracle surfaces (or potential outcomes); "
            "they are not computable on real data"
        )
    ref0, ref1 = np.asarray(mu0_star, dtype=float), np.asarray(mu1_star, dtype=float)
    if not all(ref.shape == (data.n,) and np.isfinite(ref).all() for ref in (ref0, ref1)):
        raise InvalidInputError(f"mu0_star and mu1_star must be finite, of length {data.n}")
    treated = data.arm_indices(1)
    control = data.arm_indices(0)
    if treated.size == 0 or control.size == 0:
        raise InvalidInputError("both arms must be nonempty")
    pred0 = model0.predict(data.X)
    pred1 = model1.predict(data.X)
    return CounterfactualSlopes(
        eta_1_1=_slope_intercept(ref1[treated], pred1[treated])[0],
        eta_1_0=_slope_intercept(ref1[control], pred1[control])[0],
        eta_0_0=_slope_intercept(ref0[control], pred0[control])[0],
        eta_0_1=_slope_intercept(ref0[treated], pred0[treated])[0],
    )


def shrinkage_ate_bias(inputs: BiasInputs) -> float:
    """Closed-form ATE bias of per-arm outcome regression under linear
    shrinkage with out-of-distribution slopes eta_1_0, eta_0_1."""
    term1 = (1.0 - inputs.pi) * (1.0 - inputs.eta_1_0) * inputs.w1 * (
        inputs.mu1_in - inputs.mu1_out
    )
    term0 = inputs.pi * (1.0 - inputs.eta_0_1) * inputs.w0 * (
        inputs.mu0_out - inputs.mu0_in
    )
    return term1 + term0
