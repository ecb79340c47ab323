import json
import zlib
from dataclasses import replace

import numpy as np
import pytest

from umlr import (
    DgpConfig,
    InvalidInputError,
    LearnerConfig,
    aipw,
    generate_replicate,
    inject_spb,
    run_monte_carlo,
    shrinkage_ate_bias,
)
from umlr.diagnostics import BiasInputs
from umlr.errors import ResamplingError
from umlr.estimators import (
    ESTIMATORS,
    EstimatorSpec,
    bootstrap_interval,
    outcome_regression_ate,
    resampled_points,
)
import umlr.estimators as estimators
import umlr.simulation as simulation
from umlr.simulation import aipw_oracle_sweep, default_sweep_learner, shrinkage_oracle_study

SMALL = DgpConfig(n=120, p=8, s=3, seed=42)


class TestGenerateReplicate:
    def test_observed_outcome_reconstructs(self):
        rep = generate_replicate(SMALL, 0)
        y = np.where(rep.data.t == 1, rep.y1, rep.y0)
        assert np.array_equal(rep.data.y, y)

    def test_true_ate_is_mean_cate(self):
        rep = generate_replicate(SMALL, 1)
        assert rep.true_ate == pytest.approx(float(np.mean(rep.true_cate)))
        # shared noise: unit-level effects carry no noise term
        assert np.allclose(rep.true_cate, rep.mu1_star - rep.mu0_star)

    def test_deterministic_in_seed_and_index(self):
        a = generate_replicate(SMALL, 3)
        b = generate_replicate(SMALL, 3)
        assert np.array_equal(a.data.X, b.data.X)
        assert np.array_equal(a.data.t, b.data.t)
        assert np.array_equal(a.data.y, b.data.y)
        c = generate_replicate(SMALL, 4)
        assert not np.array_equal(a.data.y, c.data.y)

    def test_null_propensity_balances_arms(self):
        cfg = DgpConfig(n=20000, p=5, s=2, gamma_scale=0.0, seed=7)
        rep = generate_replicate(cfg, 0)
        assert abs(rep.data.t.mean() - 0.5) < 0.02
        assert np.allclose(rep.e_star, 0.5)

    def test_constant_effect_when_modifiers_off(self):
        cfg = DgpConfig(n=100, p=6, s=2, effect_scale=0.0, mu1=3.0, mu0=1.0, seed=9)
        rep = generate_replicate(cfg, 0)
        assert np.allclose(rep.true_cate, 2.0)
        assert rep.true_ate == pytest.approx(2.0)

    def test_heterogeneous_effect_by_default(self):
        rep = generate_replicate(SMALL, 5)
        assert np.std(rep.true_cate) > 0

    def test_surfaces_recompute_from_stored_coefficients(self):
        rep = generate_replicate(SMALL, 6)
        X = rep.data.X
        assert np.allclose(rep.mu1_star, SMALL.mu1 + X @ rep.beta1)
        assert np.allclose(rep.mu0_star, SMALL.mu0 + X @ rep.beta0)
        tau = (SMALL.mu1 - SMALL.mu0) + X @ (rep.beta1 - rep.beta0)
        assert np.allclose(rep.true_cate, tau)

    def test_aligned_confounding_blocks(self):
        rep = generate_replicate(SMALL, 7)
        active_g = np.flatnonzero(rep.gamma)
        assert active_g.size == SMALL.s
        # confounder block of the outcome coefficients shares support and is
        # sign-aligned with gamma (opposite overall sign by default)
        assert np.allclose(
            np.sign(rep.beta0[active_g]) * SMALL.confound_sign,
            np.sign(rep.gamma[active_g]),
        )
        assert np.all(rep.beta1[active_g] == rep.beta0[active_g])

    def test_independent_noise_flag(self):
        cfg = DgpConfig(n=100, p=6, s=2, shared_noise=False, seed=11)
        rep = generate_replicate(cfg, 0)
        # with independent arm noises the unit-level effect carries noise
        assert not np.allclose(rep.true_cate, rep.mu1_star - rep.mu0_star)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            DgpConfig(n=10)
        with pytest.raises(InvalidInputError):
            DgpConfig(n=100, p=4, s=5)
        with pytest.raises(InvalidInputError):
            DgpConfig(n=100, p=6, s=4, effect_scale=0.5)  # needs 2s <= p
        with pytest.raises(InvalidInputError):
            DgpConfig(n=100, p=6, s=2, sigma=-1.0)

    @pytest.mark.parametrize("key", ["sigma", "mu1", "mu0", "beta_scale", "gamma_scale",
                                     "effect_scale"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value_rejected(self, key, value):
        with pytest.raises(InvalidInputError, match=repr(key)):
            DgpConfig(n=100, p=6, s=2, **{key: value})


class TestInjectSpb:
    def test_no_shrinkage_returns_oracle(self):
        rep = generate_replicate(SMALL, 0)
        mu0_hat, mu1_hat = inject_spb(rep, eta_in=1.0, eta_out=1.0, w=0.5)
        assert np.allclose(mu0_hat, rep.mu0_star)
        assert np.allclose(mu1_hat, rep.mu1_star)

    def test_total_collapse_hits_training_mean(self):
        rep = generate_replicate(SMALL, 1)
        mu0_hat, mu1_hat = inject_spb(rep, eta_in=1.0, eta_out=0.0, w=1.0)
        t = rep.data.t
        assert np.allclose(mu1_hat[t == 0], rep.mu1_star[t == 1].mean())
        assert np.allclose(mu0_hat[t == 1], rep.mu0_star[t == 0].mean())

    def test_plugin_bias_equals_closed_form_per_replicate(self):
        # with injected shrinkage the plug-in ATE bias equals the closed-form
        # expression evaluated at the realized sample strata, exactly
        rep = generate_replicate(DgpConfig(n=400, p=20, s=5, seed=3), 2)
        eta_out, w = 0.45, 0.8
        mu0_hat, mu1_hat = inject_spb(rep, eta_in=1.0, eta_out=eta_out, w=w)
        point = outcome_regression_ate(rep.data, mu0_hat, mu1_hat)
        t = rep.data.t
        closed = shrinkage_ate_bias(BiasInputs(
            pi=float(t.mean()), eta_1_0=eta_out, eta_0_1=eta_out, w1=w, w0=w,
            mu1_in=float(rep.mu1_star[t == 1].mean()),
            mu1_out=float(rep.mu1_star[t == 0].mean()),
            mu0_in=float(rep.mu0_star[t == 0].mean()),
            mu0_out=float(rep.mu0_star[t == 1].mean()),
        ))
        assert point - rep.true_ate == pytest.approx(closed, abs=1e-10)

    def test_input_validation(self):
        rep = generate_replicate(SMALL, 0)
        with pytest.raises(InvalidInputError):
            inject_spb(rep, eta_in=1.2, eta_out=0.5, w=1.0)
        with pytest.raises(InvalidInputError):
            inject_spb(rep, eta_in=1.0, eta_out=0.5, w=0.0)


class TestShrinkageOracleStudy:
    def test_or_bias_matches_closed_form(self):
        dgp = DgpConfig(n=300, p=20, s=5, seed=5)
        out = shrinkage_oracle_study(dgp, reps=20, eta_in=1.0, eta_out=0.5, w=1.0)
        assert np.allclose(out["or_bias"], out["closed_form"], atol=1e-10)

    def test_aipw_tracks_or_bias_on_average(self):
        dgp = DgpConfig(n=400, p=20, s=5, seed=6)
        out = shrinkage_oracle_study(dgp, reps=60, eta_in=1.0, eta_out=0.5, w=1.0)
        diff = out["aipw_bias"] - out["or_bias"]
        se = diff.std(ddof=1) / np.sqrt(len(diff))
        assert abs(diff.mean()) <= max(2 * se, 1e-10)

    def test_bad_knob_rejected_before_the_first_replicate(self, monkeypatch):
        def no_replicate(*args):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(simulation, "generate_replicate", no_replicate)
        dgp = DgpConfig(n=40, p=4, s=2)
        for knobs in ((1.2, 0.5, 1.0), (1.0, -0.1, 1.0), (0.5, 0.5, 2.0), (0.5, 0.5, 0.0)):
            with pytest.raises(InvalidInputError):
                shrinkage_oracle_study(dgp, 5, *knobs)


class TestRunMonteCarlo:
    SCENARIO = [("t_learner", "mlr"), ("t_learner", "umlr")]
    CFG = DgpConfig(n=120, p=6, s=2, gamma_scale=0.3, seed=13)
    LEARNER = LearnerConfig(kind="ridge", lam=5.0)

    def test_reps_minimum(self):
        with pytest.raises(InvalidInputError):
            run_monte_carlo(self.CFG, self.LEARNER, self.SCENARIO, reps=5)

    @pytest.mark.parametrize("kwargs", [
        dict(B=10), dict(B=49), dict(B=-5), dict(B=-5, scenario=[("dml", "mlr")]),
        dict(B=0, workers=0), dict(B=0, workers=-2),
        dict(B=0, scenario=[("t_learner", "umlr")], learner=LearnerConfig(kind="gbt", n_trees=5),
             umlr_route="constrained"),
    ])
    def test_bad_knob_rejected_before_the_first_replicate(self, kwargs, monkeypatch):
        # each of these used to run every replicate, failing or ignoring the knob
        def no_replicate(*args):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(simulation, "generate_replicate", no_replicate)
        kwargs = {"scenario": self.SCENARIO, "learner": self.LEARNER, **kwargs}
        with pytest.raises(InvalidInputError):
            run_monte_carlo(self.CFG, reps=10, **kwargs)

    def test_small_B_accepted_when_no_cell_bootstraps(self):
        # DML carries its own interval, so B is not read
        res = run_monte_carlo(self.CFG, self.LEARNER, [("dml", "mlr")], reps=10, B=10)
        assert res[0].n_failed == 0 and res[0].coverage is not None

    def test_unknown_estimator_rejected(self):
        with pytest.raises(InvalidInputError):
            run_monte_carlo(self.CFG, self.LEARNER, [("zzz", "mlr")], reps=10)

    def test_psm_umlr_cell_rejected(self):
        # matching uses no outcome model, so a umlr cell would repeat the mlr one
        with pytest.raises(InvalidInputError):
            run_monte_carlo(self.CFG, self.LEARNER, [("psm_att", "umlr")], reps=10, B=0)

    def test_summary_fields_and_rmse_bound(self):
        res = run_monte_carlo(self.CFG, self.LEARNER, self.SCENARIO, reps=12, B=0)
        assert [s.mode for s in res] == ["mlr", "umlr"]
        for s in res:
            assert s.reps == 12 and s.n_failed == 0 and s.valid
            assert s.coverage is None  # no intervals requested
            # rmse >= |mean bias| in absolute units
            mean_abs_bias = abs(s.bias_pct_signed) / 100 * 2.0 * 0.9
            assert s.rmse >= 0

    def test_bit_identical_across_worker_counts(self):
        kwargs = dict(reps=12, B=60, collect_slopes=True)
        r1 = run_monte_carlo(self.CFG, self.LEARNER, self.SCENARIO, workers=1, **kwargs)
        r2 = run_monte_carlo(self.CFG, self.LEARNER, self.SCENARIO, workers=3, **kwargs)
        j1 = json.dumps([s.to_dict() for s in r1], sort_keys=True)
        j2 = json.dumps([s.to_dict() for s in r2], sort_keys=True)
        assert j1 == j2

    def test_rerun_bit_identical(self):
        r1 = run_monte_carlo(self.CFG, self.LEARNER, self.SCENARIO, reps=12, B=60)
        r2 = run_monte_carlo(self.CFG, self.LEARNER, self.SCENARIO, reps=12, B=60)
        assert json.dumps([s.to_dict() for s in r1], sort_keys=True) == \
            json.dumps([s.to_dict() for s in r2], sort_keys=True)

    def test_propensity_clip_applied(self):
        # strong confounding pushes many propensities outside [0.2, 0.8], so
        # every propensity-weighted point must move with the clip
        cfg = replace(self.CFG, gamma_scale=1.5)
        scenario = [("aipw", "mlr"), ("dml", "mlr")]
        kwargs = dict(reps=10, B=0, return_records=True)
        _, default = run_monte_carlo(cfg, self.LEARNER, scenario, **kwargs)
        _, tight = run_monte_carlo(cfg, self.LEARNER, scenario, clip=(0.2, 0.8), **kwargs)
        for r_default, r_tight in zip(default, tight):
            assert r_default["error"] is None and r_tight["error"] is None
            assert r_default["point"] != r_tight["point"]
        with pytest.raises(InvalidInputError):
            run_monte_carlo(cfg, self.LEARNER, scenario, reps=10, clip=(0.8, 0.2))

    def test_per_replicate_records(self):
        res, records = run_monte_carlo(self.CFG, self.LEARNER, self.SCENARIO,
                                       reps=10, B=0, return_records=True)
        assert len(records) == 20
        assert {r["estimator"] for r in records} == {"t_learner"}

    def test_failures_counted_and_flagged(self):
        # constant outcome in one arm breaks umlr partitioning; force it by a
        # zero-noise, zero-signal DGP
        cfg = DgpConfig(n=60, p=4, s=1, sigma=0.0, beta_scale=0.0,
                        gamma_scale=0.0, effect_scale=0.0, mu1=1.0, mu0=0.0,
                        seed=17)
        res = run_monte_carlo(cfg, self.LEARNER, [("t_learner", "umlr")],
                              reps=10, B=0)
        assert res[0].n_failed == 10
        assert not res[0].valid

    def test_slope_collection(self):
        res = run_monte_carlo(self.CFG, self.LEARNER, self.SCENARIO, reps=10,
                              B=0, collect_slopes=True)
        for s in res:
            assert s.slope_out_1 is not None and s.slope_out_0 is not None


class TestPairedBootstrap:
    """Every bootstrapped cell of a replicate draws the resample stream of
    the scenario's first bootstrapped cell, and ``resampled_points``
    evaluates all of them together, as it does the rows of ``umlr
    estimate``."""

    NULL = DgpConfig(n=100, p=4, s=2, mu1=2.0, mu0=0.0, gamma_scale=0.0,
                     effect_scale=0.0, sigma=0.4, beta_scale=2.5, seed=5)
    LEARNER = LearnerConfig(kind="ridge", lam=0.1)
    SCENARIO = [(name, mode) for name in ("s_learner", "t_learner", "x_learner", "aipw", "dml")
                for mode in ("mlr", "umlr")]
    T_BOTH = [("t_learner", "mlr"), ("t_learner", "umlr")]
    B = 60

    def ci_seed(self, r: int, k: int) -> int:
        return ((self.NULL.seed + 1) * 1_000_003 + r) * 131 + k

    @pytest.mark.parametrize("method", ["normal", "percentile"])
    def test_every_mode_draws_its_first_cells_stream(self, method):
        _, records = run_monte_carlo(self.NULL, self.LEARNER, self.SCENARIO, reps=10, B=self.B,
                                     ci_method=method, return_records=True)
        checked = 0
        for i, row in enumerate(records):
            r, k = divmod(i, len(self.SCENARIO))
            name, mode = self.SCENARIO[k]
            assert (row["rep"], row["estimator"], row["mode"]) == (r, name, mode)
            assert row["error"] is None, row
            if name == "dml":
                continue
            spec = EstimatorSpec(self.LEARNER, mode)
            (points,), _ = resampled_points(generate_replicate(self.NULL, r).data,
                                            [(ESTIMATORS[name], spec)], self.B, self.ci_seed(r, 0))
            point = row["point"]
            lo, hi = bootstrap_interval(points, self.B, 0.95, method, lambda: point)
            assert (row["ci_low"], row["ci_high"]) == (min(lo, point), max(hi, point)), row
            checked += 1
        assert checked == 80

    def test_one_propensity_fit_per_resample(self, monkeypatch):
        # per replicate: the full-data fit that x_learner and aipw share in
        # both modes (the kernel at k = 1), one kernel call covering DML's
        # five folds in both modes, then one covering every resample
        calls, kernel = [], []
        fit_propensity, propensity_kernel = estimators.fit_propensity, estimators._propensity_kernel

        def counted(*args, **kwargs):
            calls.append(1)
            return fit_propensity(*args, **kwargs)

        def counted_kernel(X, t, c, l2):
            kernel.append(c.shape[0])
            return propensity_kernel(X, t, c, l2)

        monkeypatch.setattr(estimators, "fit_propensity", counted)
        monkeypatch.setattr(estimators, "_propensity_kernel", counted_kernel)
        summaries = run_monte_carlo(self.NULL, self.LEARNER, self.SCENARIO, reps=10, B=self.B)
        assert all(s.n_failed == 0 for s in summaries)
        assert len(calls) == 10
        assert kernel == [1, 5, self.B] * 10

    def flaky_t(self, monkeypatch, umlr_share=0.0, mlr_point_fails=False):
        """Swap in a T-learner that fails in umlr mode on about ``umlr_share``
        of the resamples, and in mlr mode on the replicate itself if asked.
        A swapped run is never stacked: the T cells are evaluated resample by
        resample, beside the stacked AIPW cells of ``records``."""
        t_run = ESTIMATORS["t_learner"].run

        def run(data, spec, nuis, diagnostics=False):
            resample = np.unique(data.y).size < data.n  # rows repeat
            if spec.mode == "umlr" and resample and \
                    zlib.crc32(data.y.tobytes()) < umlr_share * 2**32:
                raise ResamplingError("flaky resample")
            if spec.mode == "mlr" and mlr_point_fails and not resample:
                raise ResamplingError("flaky point")
            return t_run(data, spec, nuis, diagnostics)

        monkeypatch.setitem(ESTIMATORS, "t_learner", replace(ESTIMATORS["t_learner"], run=run))

    def records(self):
        """The records of the T cells, which come first, and of the stacked
        AIPW cells beside them."""
        scenario = self.T_BOTH + [("aipw", "mlr"), ("aipw", "umlr")]
        rows = run_monte_carlo(self.NULL, self.LEARNER, scenario, reps=10, B=self.B,
                               return_records=True)[1]
        return ([row for row in rows if row["estimator"] == "t_learner"],
                [row for row in rows if row["estimator"] == "aipw"])

    def test_a_mode_failing_on_resamples_loses_only_its_own_points(self, monkeypatch):
        self.flaky_t(monkeypatch)
        clean, clean_aipw = self.records()
        self.flaky_t(monkeypatch, umlr_share=0.02)
        flaky, flaky_aipw = self.records()
        assert flaky_aipw == clean_aipw
        moved = 0
        for a, b in zip(clean, flaky):
            assert b["error"] is None and a["point"] == b["point"]
            if b["mode"] == "mlr":
                assert a == b
            else:
                moved += (a["ci_low"], a["ci_high"]) != (b["ci_low"], b["ci_high"])
        assert moved > 0  # some umlr resample did fail

    def test_unstable_bootstrap_errors_only_that_modes_row(self, monkeypatch):
        self.flaky_t(monkeypatch)
        clean, clean_aipw = self.records()
        self.flaky_t(monkeypatch, umlr_share=0.3)
        flaky, flaky_aipw = self.records()
        assert flaky_aipw == clean_aipw
        for a, b in zip(clean, flaky):
            if b["mode"] == "mlr":
                assert a == b
            else:
                assert b["error"].startswith("UnstableBootstrapError")
                assert b["point"] == a["point"] and b["ci_low"] is None

    def test_a_failed_first_point_leaves_the_next_mode_on_the_same_stream(self, monkeypatch):
        self.flaky_t(monkeypatch)
        clean, clean_aipw = self.records()
        self.flaky_t(monkeypatch, mlr_point_fails=True)
        flaky, flaky_aipw = self.records()
        assert flaky_aipw == clean_aipw
        for a, b in zip(clean, flaky):
            if b["mode"] == "mlr":
                assert b["error"] == "ResamplingError: flaky point" and b["point"] is None
            else:
                assert a == b


class TestAipwOracleSweep:
    def test_po_mean_variant_is_exactly_unbiased_with_shared_noise(self):
        cells = aipw_oracle_sweep([60], [1.0], DgpConfig(n=60, p=10, s=3, seed=19),
                                  reps=5, variants=("po_mean_oracle",))
        assert cells[0].mean_bias == pytest.approx(0.0, abs=1e-12)

    def test_grid_shape_and_variants(self):
        cells = aipw_oracle_sweep(
            [60, 80], [0.5, 1.0], DgpConfig(n=60, p=10, s=3, seed=19), reps=5,
            variants=("aipw_oracle_mlr", "po_mean_oracle"),
        )
        assert len(cells) == 8
        assert {c.variant for c in cells} == {"aipw_oracle_mlr", "po_mean_oracle"}

    def test_default_learner_rule_scales_with_noise(self):
        weak = default_sweep_learner(500, 200, 1.0)
        strong = default_sweep_learner(500, 200, 5.0)
        assert strong.lam == pytest.approx(5 * weak.lam)
        assert weak.kind == "lasso"

    def test_unknown_variant_rejected(self):
        with pytest.raises(InvalidInputError, match="'variant'"):
            aipw_oracle_sweep([60], [1.0], SMALL, reps=5, variants=("bogus",))

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            aipw_oracle_sweep([], [1.0], SMALL, reps=5)


class TestOracleNuisanceAipw:
    def test_unbiased_with_oracle_surfaces_and_propensity(self):
        # oracle outcome surfaces and oracle propensity: mean bias within
        # 2 MC standard errors of zero
        dgp = DgpConfig(n=300, p=12, s=4, seed=23)
        biases = []
        for r in range(200):
            rep = generate_replicate(dgp, r)
            point = aipw(rep.data, rep.mu0_star, rep.mu1_star, rep.e_star).point
            biases.append(point - rep.true_ate)
        b = np.asarray(biases)
        se = b.std(ddof=1) / np.sqrt(b.size)
        assert abs(b.mean()) <= 2.0 * se


@pytest.mark.slow
class TestXLearnerBand:
    def test_anchored_x_learner_bias_within_table_band(self):
        # anchored X-learner at the n=500 study scenario stays inside the
        # 5% band (point estimates only; intervals not needed here)
        from umlr.estimators import fit_propensity, x_learner
        dgp = DgpConfig(n=500, p=200, s=10, mu1=6.0, mu0=0.0, gamma_scale=0.3,
                        sigma=2.0, seed=20250808)
        learner = LearnerConfig(kind="ridge", lam=250.0)
        biases = []
        for r in range(60):
            rep = generate_replicate(dgp, r)
            prop = fit_propensity(rep.data.X, rep.data.t, l2=1.0)
            est = x_learner(rep.data, learner, "umlr", prop,
                            umlr_route="anchored", with_diagnostics=False)
            biases.append((est.point - rep.true_ate) / rep.true_ate * 100)
        assert abs(float(np.mean(biases))) <= 5.0
