"""The nuisance memo: ``umlr estimate`` fits each outcome and propensity
model once per dataset, the two modes share it, and the bootstrap shares one
memo per resample between rows, without moving any number of the report."""

import hashlib
import json

import numpy as np
import pytest

import umlr.estimators as estimators
import umlr.learners as learners
from umlr import (
    ConvergenceError,
    Dataset,
    LearnerConfig,
    UmlrError,
    anchor_recalibrate,
    fit,
    fit_constrained_linear,
)
from umlr.cli import load_csv, main
from umlr.diagnostics import evaluate_predictions
from umlr.estimators import ESTIMATORS, EstimatorSpec, Nuisances, bootstrap_ci, dml, t_learner

GBT = LearnerConfig(kind="gbt", n_trees=5)
SEED = 3

# Report of ``estimate --learner gbt --trees 5 --estimator t,x,aipw --mode both
# --bootstrap 50 --seed 3`` on the cohort below, computed before the memo.
PINNED_DIGEST = "10d0c0bea0d86067ad99af63c32bba1defbd736de0713d72b188eb5ebf9f41d6"
PINNED_ROWS = [
    ("t_learner", "mlr", 2.1661925155906236, 1.8731697668064535, 2.459215264374794),
    ("t_learner", "umlr", 1.7247257989097908, 1.3787078904890642, 2.0707437073305175),
    ("x_learner", "mlr", 2.0000851051254203, 1.7552432280698378, 2.2449269821810027),
    ("x_learner", "umlr", 1.6660799590011224, 1.372470220307985, 1.9596896976942597),
    ("aipw", "mlr", 1.7167329119956358, 1.2953126513449968, 2.138153172646275),
    ("aipw", "umlr", 1.7259298882766312, 1.3623545914137716, 2.089505185139491),
]


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """Confounded 120-row cohort written with repr floats."""
    rng = np.random.default_rng(11)
    n, p = 120, 3
    X = rng.standard_normal((n, p))
    t = (rng.random(n) < 1.0 / (1.0 + np.exp(-0.8 * X[:, 0]))).astype(int)
    y = 1.5 * t + X[:, 0] - 0.5 * X[:, 1] + 0.5 * rng.standard_normal(n)
    lines = ["y,t," + ",".join(f"x{j}" for j in range(p))]
    lines += [",".join([repr(float(y[i])), str(t[i]), *map(repr, X[i].tolist())])
              for i in range(n)]
    path = tmp_path_factory.mktemp("nuisance") / "cohort.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def fit_counts(monkeypatch):
    """Counts the gbt fits and the propensity kernel calls made through the
    estimators module; a kernel call fits one dataset or all DML folds."""
    counts = {"gbt": 0, "propensity": 0}
    fit, propensity_kernel = estimators.fit, estimators._propensity_kernel

    def counted_fit(config, X, y):
        counts[config.kind] = counts.get(config.kind, 0) + 1
        return fit(config, X, y)

    def counted_propensity(*args):
        counts["propensity"] += 1
        return propensity_kernel(*args)

    monkeypatch.setattr(estimators, "fit", counted_fit)
    monkeypatch.setattr(estimators, "_propensity_kernel", counted_propensity)
    return counts


def estimate(cohort, tmp_path, *args):
    out = tmp_path / "report.json"
    rc = main(["estimate", "--data", str(cohort), "--learner", "gbt", "--trees", "5",
               "--seed", str(SEED), *args, "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    report.pop("metadata")
    report["config"].pop("data")
    return report


def test_each_point_nuisance_is_fitted_once(cohort, tmp_path, fit_counts):
    args = ("--estimator", "t,x,aipw,dml,psm", "--mode", "both", "--bootstrap", "0")
    estimate(cohort, tmp_path, *args)
    # two arm models, two stage-2 pairs of the x-learner, 5 folds x 2 arms
    # for DML; the full-data propensity fit and one kernel call for DML's folds
    assert fit_counts == {"gbt": 16, "propensity": 2}
    estimate(cohort, tmp_path, *args)  # nothing is kept between calls
    assert fit_counts == {"gbt": 32, "propensity": 4}


def test_bootstrap_shares_one_memo_per_resample(cohort, tmp_path, fit_counts):
    report = estimate(cohort, tmp_path, "--estimator", "t,x,aipw", "--mode", "both",
                      "--bootstrap", "50")
    # per dataset (the full data and each of the 50 resamples): two arm
    # models and two stage-2 pairs, and one propensity fit
    assert fit_counts == {"gbt": 6 * 51, "propensity": 51}
    rows = [(r["estimator"], r["mode"], r["point"], r["ci_low"], r["ci_high"])
            for r in report["results"]]
    assert rows == PINNED_ROWS
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DIGEST


def test_bootstrap_rows_equal_bootstrap_ci(cohort, tmp_path):
    report = estimate(cohort, tmp_path, "--estimator", "s,t,x,aipw,psm", "--mode", "both",
                      "--bootstrap", "50", "--ci-method", "percentile")
    data, _ = load_csv(str(cohort), "y", "t")
    for row in report["results"]:
        spec = EstimatorSpec(GBT, row["mode"])
        run = ESTIMATORS[row["estimator"]].run
        lo, hi = bootstrap_ci(data, lambda d: run(d, spec, Nuisances(d)).point, B=50,
                              seed=SEED, method="percentile")
        point = row["point"]
        assert (row["ci_low"], row["ci_high"]) == (min(lo, point), max(hi, point)), row


def test_anchored_model_wraps_the_plain_fit(fit_counts):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 2))
    t = np.arange(40) % 2
    nuis = Nuisances(Dataset(X, t, X[:, 0] + t + rng.standard_normal(40)))
    plain = nuis.model(GBT, "mlr", "auto", ("arm", 1))
    anchored = nuis.model(GBT, "umlr", "auto", ("arm", 1))
    assert fit_counts["gbt"] == 1 and anchored.trees is plain.trees
    assert np.array_equal(nuis.predictions(GBT, "umlr", "auto", ("arm", 1)),
                          anchored.predict(X))


def test_anchored_gbt_arm_reuses_the_training_predictions(monkeypatch):
    # boosting already predicted every training row; anchoring the arm, and
    # the diagnostics of the arm fits, must not route those rows through the
    # trees again, nor move a number
    rng = np.random.default_rng(1)
    X = rng.standard_normal((60, 3))
    t = np.arange(60) % 2
    data = Dataset(X, t, X[:, 0] + t + rng.standard_normal(60))
    nuis = Nuisances(data)
    plain = nuis.model(GBT, "mlr", "auto", ("arm", 1))
    passes = []  # rows of each pass through the ensemble
    base_predict = learners.FittedModel._base_predict
    monkeypatch.setattr(learners.FittedModel, "_base_predict",
                        lambda model, rows: passes.append(len(rows)) or base_predict(model, rows))
    anchored = nuis.model(GBT, "umlr", "anchored", ("arm", 1))
    assert passes == []
    rows = data.arm_indices(1)
    assert anchored.anchor == anchor_recalibrate(plain, X[rows], data.y[rows]).anchor
    assert passes == [rows.size]  # what the public function costs
    passes.clear()
    estimates = [t_learner(data, GBT, mode, "anchored", with_diagnostics=True, nuis=nuis)[2]
                 for mode in ("mlr", "umlr")]
    assert passes == [data.n, data.n]  # each arm's plain predictions, shared by both modes
    monkeypatch.undo()
    for mode, est in zip(("mlr", "umlr"), estimates):
        for arm in (0, 1):
            model, rows = nuis.model(GBT, mode, "anchored", ("arm", arm)), data.arm_indices(arm)
            assert est.diagnostics[f"mu{arm}"] == evaluate_predictions(data.y[rows],
                                                                      model.predict(X[rows]))


def test_failed_fit_is_not_stored(fit_counts):
    X = np.linspace(-1.0, 1.0, 30)[:, None]
    t = (X[:, 0] > 0).astype(int)  # separable: no finite optimum without a penalty
    nuis = Nuisances(Dataset(X, t, X[:, 0]))
    for calls in (1, 2):
        with pytest.raises(ConvergenceError):
            nuis.propensity(0.0, (0.01, 0.99))
        assert fit_counts["propensity"] == calls


LASSO = LearnerConfig(kind="lasso", lam=0.05)


@pytest.fixture
def lasso_fits(monkeypatch):
    """Counts the plain lasso fits, wherever they are made."""
    calls = []
    fit_lasso = learners._fit_lasso

    def counted(config, X, y):
        calls.append(X.shape)
        return fit_lasso(config, X, y)

    monkeypatch.setattr(learners, "_fit_lasso", counted)
    return calls


def lasso_data():
    n = 80
    rng = np.random.default_rng(5)
    X = rng.standard_normal((n, 4))
    t = np.arange(n) % 2
    return Dataset(X, t, X[:, 0] - 0.5 * X[:, 1] + t + 0.5 * rng.standard_normal(n))


def test_both_lasso_modes_share_each_plain_fit(lasso_fits):
    # the constrained lasso warm-starts from the memo's plain fit of its part
    data = lasso_data()
    nuis = Nuisances(data)
    for mode in ("mlr", "umlr"):
        t_learner(data, LASSO, mode, nuis=nuis)
    assert len(lasso_fits) == 2
    for mode in ("mlr", "umlr"):
        dml(data, LASSO, mode, folds=5, nuis=nuis)
    assert len(lasso_fits) == 2 + 10


def test_lasso_bootstrap_fits_each_arm_once_per_dataset(cohort, tmp_path, lasso_fits):
    out = tmp_path / "report.json"
    assert main(["estimate", "--data", str(cohort), "--learner", "lasso", "--lam", "0.05",
                 "--estimator", "t", "--mode", "both", "--bootstrap", "50",
                 "--seed", str(SEED), "--out", str(out)]) == 0
    assert len(lasso_fits) == 2 * 51  # the full data and each resample, both arms


def test_memo_umlr_lasso_equals_the_public_fit():
    data = lasso_data()
    nuis = Nuisances(data)
    for arm in (0, 1):
        plain = nuis.model(LASSO, "mlr", "auto", ("arm", arm))
        kept = plain.coef.copy(), plain.intercept
        umlr = nuis.model(LASSO, "umlr", "auto", ("arm", arm))
        rows = data.arm_indices(arm)
        X, y = data.X[rows], data.y[rows]
        for public in (fit_constrained_linear(LASSO, X, y),
                       fit_constrained_linear(LASSO, X, y, plain=fit(LASSO, X, y))):
            assert np.array_equal(umlr.coef, public.coef)
            assert umlr.intercept == public.intercept
            assert umlr.group_residual_sums == public.group_residual_sums
        # the shared plain fit is read, not changed
        assert nuis.model(LASSO, "mlr", "auto", ("arm", arm)) is plain
        assert np.array_equal(plain.coef, kept[0]) and plain.intercept == kept[1]
        assert np.array_equal(plain.coef, fit(LASSO, X, y).coef)


@pytest.mark.parametrize("case", ["no_convergence", "constant_arm"])
def test_umlr_lasso_raises_what_the_public_fit_raises(case, monkeypatch):
    data = lasso_data()
    if case == "no_convergence":  # the plain fit itself raises
        monkeypatch.setattr(learners, "LASSO_MAX_SWEEPS", 1)
    else:  # the plain fit succeeds, the anchoring split does not
        data = Dataset(data.X, data.t, np.where(data.t == 1, 2.0, data.y))
    rows = data.arm_indices(1)
    with pytest.raises(UmlrError) as public:
        fit_constrained_linear(LASSO, data.X[rows], data.y[rows])
    with pytest.raises(UmlrError) as memo:
        Nuisances(data).model(LASSO, "umlr", "auto", ("arm", 1))
    assert type(memo.value) is type(public.value)
    assert str(memo.value) == str(public.value)
