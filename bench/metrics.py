"""Names and units of every metric the benchmark prints, and the reduction
of a traced run's spans to the per-layer metrics.

Per-layer counts and times are per unit of the traced phase (a replicate
for the ``mc_*`` workloads, an ``umlr estimate`` call for the CLI), so they
compare across runs that finish different numbers of units. A function a
workload never calls reads 0.
"""

from __future__ import annotations

from tracing import LAYERS

END_TO_END = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# span name -> the per-unit stats printed for it
SPAN_STATS = {
    "learners.fit.ridge": ("calls", "self_ms", "errors", "cells"),
    "learners.fit.lasso": ("calls", "self_ms", "errors", "cells"),
    "learners.fit.gbt": ("calls", "self_ms", "errors", "cells"),
    "learners.fit_constrained_linear.ridge": ("calls", "self_ms", "errors", "cells"),
    "learners.fit_constrained_linear.lasso": ("calls", "self_ms", "errors", "cells"),
    "learners.anchor_recalibrate": ("calls", "self_ms", "errors"),
    "learners.predict.linear": ("calls", "self_ms", "errors", "rows"),
    "learners.predict.gbt": ("calls", "self_ms", "errors", "rows"),
    "core.Dataset.subset": ("calls", "self_ms"),
    "core.partition_by_mean": ("calls", "self_ms", "errors"),
    "estimators.bootstrap_ci": ("calls", "self_ms", "errors", "resamples"),
    "estimators.fit_propensity": ("calls", "self_ms", "errors"),
    "estimators.t_learner": ("calls", "self_ms", "errors"),
    "estimators.s_learner": ("calls", "self_ms", "errors"),
    "estimators.x_learner": ("calls", "self_ms", "errors"),
    "estimators.aipw": ("calls", "self_ms", "errors"),
    "estimators.dml": ("calls", "self_ms", "errors"),
    "estimators.psm_att": ("calls", "self_ms", "errors"),
    "diagnostics.evaluate_predictions": ("calls", "self_ms", "errors"),
    "diagnostics.counterfactual_slopes": ("calls", "self_ms", "errors"),
    "simulation.generate_replicate": ("calls", "self_ms", "errors"),
    "simulation.run_monte_carlo": ("self_ms",),
    "cli.load_csv": ("calls", "self_ms", "errors", "rows"),
    "cli.main": ("self_ms",),
}
STAT_UNITS = {
    "calls": "count/unit",
    "self_ms": "ms/unit",
    "errors": "count/unit",
    "cells": "cells/unit",
    "rows": "rows/unit",
    "resamples": "count/unit",
}
DERIVED = {
    "learners.lasso.constrained_over_plain": "ratio",
    "estimators.bootstrap_ci.ms_per_resample": "ms",
    "estimators.bootstrap_ci.fail_ratio": "ratio",
    "estimators.dml.ms_per_fold": "ms",
    **{f"{layer}.self_ms": "ms/unit" for layer in LAYERS},
    "run.cpu_s": "s/unit",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
}
PER_LAYER = {
    **{f"{span}.{stat}": STAT_UNITS[stat]
       for span, stats in SPAN_STATS.items() for stat in stats},
    **DERIVED,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(table, counts, units: int, traced_s: float, root_s: float,
                  untraced_unit_s: float, cpu_unit_s: float) -> dict[str, float]:
    """Per-layer metric values of a traced phase of ``units`` units.

    ``table`` and ``counts`` hold what the phase recorded (see
    ``tracing.span_table``); the phase took ``traced_s`` seconds, of which
    top-level spans covered ``root_s``. ``untraced_unit_s`` and
    ``cpu_unit_s`` are the wall and CPU seconds per unit measured untraced.
    """
    empty = {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0}

    def row(span):
        return table.get(span, empty)

    out = {}
    for span, stats in SPAN_STATS.items():
        r = row(span)
        per_unit = {
            "calls": r["calls"],
            "self_ms": 1e3 * r["self_s"],
            "errors": r["errors"],
            "cells": counts.get(span + ".cells", 0),
            "rows": counts.get(span + ".rows", 0),
            "resamples": counts.get(span + ".resamples", 0),
        }
        for stat in stats:
            out[f"{span}.{stat}"] = per_unit[stat] / units

    lasso_c = row("learners.fit_constrained_linear.lasso")
    lasso_p = row("learners.fit.lasso")
    out["learners.lasso.constrained_over_plain"] = _ratio(
        _ratio(lasso_c["self_s"], lasso_c["calls"]), _ratio(lasso_p["self_s"], lasso_p["calls"]))
    boot = row("estimators.bootstrap_ci")
    resamples = counts.get("estimators.bootstrap_ci.resamples", 0)
    out["estimators.bootstrap_ci.ms_per_resample"] = _ratio(1e3 * boot["total_s"], resamples)
    out["estimators.bootstrap_ci.fail_ratio"] = _ratio(
        counts.get("estimators.bootstrap_ci.failed_resamples", 0), resamples)
    out["estimators.dml.ms_per_fold"] = _ratio(
        1e3 * row("estimators.dml")["total_s"], counts.get("estimators.dml.folds", 0))
    for layer in LAYERS:
        self_s = sum(r["self_s"] for name, r in table.items() if name.startswith(layer + "."))
        out[f"{layer}.self_ms"] = 1e3 * self_s / units
    out["run.cpu_s"] = cpu_unit_s
    out["trace.overhead_pct"] = 100.0 * (traced_s / units / untraced_unit_s - 1.0)
    out["trace.coverage_pct"] = 100.0 * root_s / traced_s
    assert out.keys() == PER_LAYER.keys()
    return out


def top_self_shares(table, traced_s: float) -> list[tuple[str, float]]:
    """The five span names with the largest self-time share of the traced
    phase, in %."""
    ranked = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])[:5]
    return [(name, round(100.0 * r["self_s"] / traced_s, 2)) for name, r in ranked]
