"""umlr: unbiased ML regression for causal inference.

Outcome-regression models with systematic prediction bias (predictions
shrunk toward the outcome mean) propagate that bias into average-treatment-
effect estimates. This package provides:

- mean-anchored ("umlr") variants of ridge, lasso, and gradient-boosted
  trees that zero the training residual sums over below-mean and above-mean
  outcome groups (:mod:`umlr.learners`);
- shrinkage diagnostics and the closed-form ATE bias they induce
  (:mod:`umlr.diagnostics`);
- S/T/X meta-learners, AIPW, cross-fitted DML, and a propensity-matching
  ATT benchmark (:mod:`umlr.estimators`);
- a synthetic data-generating process and Monte-Carlo harness
  (:mod:`umlr.simulation`);
- a small CLI (``umlr simulate | estimate | diagnose``) in :mod:`umlr.cli`.
"""

from .core import Dataset, SplitIndices, partition_by_mean
from .diagnostics import (
    BiasInputs,
    CounterfactualSlopes,
    SpbReport,
    counterfactual_slopes,
    estimate_eta,
    evaluate_predictions,
    shrinkage_ate_bias,
)
from .errors import (
    ConvergenceError,
    CsvParseError,
    DegeneratePartitionError,
    DivisionGuardError,
    InvalidInputError,
    NoMatchesError,
    OracleUnavailableError,
    RecalibrationSingularError,
    ResamplingError,
    SingularSystemError,
    UmlrError,
    UndefinedSlopeError,
    UnstableBootstrapError,
)
from .estimators import (
    AteEstimate,
    PropensityModel,
    aipw,
    aipw_scores,
    bootstrap_ci,
    dml,
    fit_propensity,
    outcome_regression_ate,
    psm_att,
    s_learner,
    t_learner,
    x_learner,
)
from .learners import (
    FittedModel,
    LearnerConfig,
    anchor_recalibrate,
    fit,
    fit_constrained_linear,
)
from .simulation import (
    DgpConfig,
    McSummary,
    SimReplicate,
    SweepCell,
    aipw_oracle_sweep,
    default_sweep_learner,
    generate_replicate,
    inject_spb,
    run_monte_carlo,
    shrinkage_oracle_study,
)

__version__ = "0.1.0"
