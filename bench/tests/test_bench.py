"""Tests of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import inspect
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import umlr  # noqa: E402
import umlr.cli  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from tracing import LAYERS, Tracer, self_times, span_table  # noqa: E402
from workloads import WORKLOADS, write_cohort  # noqa: E402


class FakeClock:
    """Returns the scheduled times in order."""

    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def test_self_time_is_duration_minus_child_coverage():
    # root [0, 10] has children [1, 3] and [2, 5] (overlapping) and [8, 12]
    # (running past the root); [1, 3] has a grandchild [1.5, 2.5].
    start = [0.0, 1.0, 1.5, 2.0, 8.0]
    end = [10.0, 3.0, 2.5, 5.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    own = self_times(start, end, parent)
    # root: covered [1, 5] and [8, 10] -> 10 - 6
    np.testing.assert_allclose(own, [4.0, 1.0, 1.0, 3.0, 4.0])


def test_tracer_records_nested_spans_with_parent_and_unit():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 9.0, 10.0]))
    root = tracer.enter("a")
    tracer.unit = 7
    child = tracer.enter("b")
    tracer.exit(tracer.enter("c"), failed=True)
    tracer.exit(child, failed=False)
    tracer.exit(tracer.enter("b"), failed=False)
    tracer.exit(root, failed=False)
    cols = tracer.store.columns()
    assert cols["parent"].tolist() == [-1, 0, 1, 0]
    assert cols["unit"].tolist() == [0, 7, 7, 7]
    table = span_table(tracer.store)
    assert table["a"] == {"calls": 1, "errors": 0, "total_s": 10.0, "self_s": 3.0}
    assert table["b"] == {"calls": 2, "errors": 0, "total_s": 7.0, "self_s": 5.0}
    assert table["c"] == {"calls": 1, "errors": 1, "total_s": 2.0, "self_s": 2.0}


def test_span_store_spans_several_chunks(monkeypatch):
    import tracing

    monkeypatch.setattr(tracing, "CHUNK_BITS", 2)
    tracer = Tracer(clock=itertools.count().__next__)
    outer = tracer.enter("outer")
    for _ in range(5):
        tracer.exit(tracer.enter("inner"), failed=False)
    tracer.exit(outer, failed=False)
    table = span_table(tracer.store)
    assert tracer.store.n == 6
    assert table["inner"]["calls"] == 5
    assert table["outer"] == {"calls": 1, "errors": 0, "total_s": 11.0, "self_s": 6.0}


def _public_bindings():
    """(module, attribute, function) for every binding, in any umlr module,
    of a public function of one of the six layers."""
    originals = set()
    for layer in LAYERS:
        mod = sys.modules[f"umlr.{layer}"]
        for attr, value in vars(mod).items():
            if (inspect.isfunction(value) and value.__module__ == mod.__name__
                    and not attr.startswith("_")):
                originals.add(value)
    return [(mod, attr, value)
            for name, mod in sorted(sys.modules.items())
            if name == "umlr" or name.startswith("umlr.")
            for attr, value in sorted(vars(mod).items())
            if inspect.isfunction(value) and value in originals]


def test_install_reaches_every_binding_and_uninstall_restores():
    bindings = _public_bindings()
    imported = {(mod.__name__, attr) for mod, attr, _ in bindings}
    # names bound outside their defining module must be reached too
    assert ("umlr", "run_monte_carlo") in imported
    assert ("umlr.simulation", "bootstrap_ci") in imported
    assert ("umlr.estimators", "fit") in imported
    methods = [(umlr.Dataset, "subset"), (umlr.FittedModel, "predict")]
    original_methods = [getattr(owner, attr) for owner, attr in methods]

    tracer = Tracer()
    tracer.install()
    try:
        for mod, attr, fn in bindings:
            wrapper = getattr(mod, attr)
            assert wrapper is not fn and wrapper.__wrapped__ is fn, (mod.__name__, attr)
        for (owner, attr), fn in zip(methods, original_methods):
            assert getattr(owner, attr).__wrapped__ is fn

        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 3))
        t = np.arange(40) % 2
        data = umlr.Dataset(X, t, X[:, 0] + t + rng.standard_normal(40))
        umlr.t_learner(data, umlr.LearnerConfig(kind="ridge", lam=1.0), "umlr")
    finally:
        tracer.uninstall()

    for mod, attr, fn in bindings:
        assert getattr(mod, attr) is fn, (mod.__name__, attr)
    for (owner, attr), fn in zip(methods, original_methods):
        assert getattr(owner, attr) is fn

    table = span_table(tracer.store)
    assert table["estimators.t_learner"]["calls"] == 1
    assert table["learners.fit_constrained_linear.ridge"]["calls"] == 2
    assert table["core.partition_by_mean"]["calls"] == 2
    assert table["learners.predict.linear"]["calls"] == 4
    assert tracer.counts["learners.fit_constrained_linear.ridge.cells"] == 40 * 3
    names = tracer.store.names
    cols = tracer.store.columns()
    root = names.index("estimators.t_learner")
    for code, parent in zip(cols["name"], cols["parent"]):
        if names[code] != "estimators.t_learner":
            assert parent >= 0
    assert cols["name"][0] == root


def test_metrics_and_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("seed", [0, 5])
def test_cohort_is_a_function_of_the_seed(tmp_path, seed):
    a, b, other = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    write_cohort(a, seed)
    write_cohort(b, seed)
    write_cohort(other, seed + 1)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != other.read_bytes()
    data, covariates = umlr.cli.load_csv(str(a), "y", "t")
    assert (data.n, data.p, len(covariates)) == (1000, 20, 20)
