"""Tests of the benchmark itself: hook table, trace fidelity, result line.

Small sizes of each workload keep these fast; the full sizes run only through
perfbench/run.py.
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
from spans import (CLOCK_HOOKS, LAYER_METRICS, TRACE_HOOKS, Hook, Tracer,  # noqa: E402
                   installed, layer_metrics, resolve)
from unit import instances, reports_digest, run_unit, trace_checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = {
    "sloshing": dict(nx=14, ny=18, steps=3),
    "manufactured": dict(n=8, steps=3),
    "entropy_suite": dict(n_seeds=2, n_steps=3),
}


@pytest.mark.parametrize("hook", TRACE_HOOKS, ids=lambda h: h.target)
def test_hook_target_resolves(hook):
    assert resolve(hook.target) is not None, f"{hook.target} no longer exists"


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_matches_untraced(name, tmp_path):
    wl = WORKLOADS[name]
    size = SMALL[name]
    plain = run_unit(wl, 5, False, str(tmp_path), size)
    traced = run_unit(wl, 5, True, str(tmp_path), size)
    for result, error, wall, tracer, missing in (plain, traced):
        assert error is None and missing == []
    plain_insts = instances(plain[3])
    traced_insts = instances(traced[3])
    assert len(plain_insts) == (2 * size["n_seeds"] if name == "entropy_suite" else 1)
    # the StepReports are bit for bit those of the untraced run
    assert [r for _, r in traced_insts] == [r for _, r in plain_insts]
    assert reports_digest(traced_insts) == reports_digest(plain_insts)
    # Newton and outer totals of the trace equal the reports' sums, and self
    # times plus the untraced remainder add up to the wall time
    for cname, ok, text in trace_checks(traced[3], traced_insts, traced[2]):
        assert ok, f"{cname}: {text}"
    layers = layer_metrics(traced[3].spans, [])
    assert set(layers) == set(LAYER_METRICS)
    assert layers["pressure_correction.newton_iters"] == sum(
        r.newton_iters for _, reports in traced_insts for r in reports)


def test_hooks_are_removed_after_the_unit():
    before = [resolve(h.target)[2] for h in TRACE_HOOKS]
    with installed(Tracer(), TRACE_HOOKS):
        assert resolve(TRACE_HOOKS[0].target)[2] is not before[0]
    assert [resolve(h.target)[2] for h in TRACE_HOOKS] == before


def test_missing_target_drops_its_metrics(tmp_path):
    hooks = CLOCK_HOOKS + (Hook("driftflux.driver:no_such_function", "momentum.predict"),)
    tracer = Tracer()
    with installed(tracer, hooks) as missing:
        WORKLOADS["manufactured"].execute(tracer, 0, str(tmp_path), **SMALL["manufactured"])
    assert [h.target for h in missing] == ["driftflux.driver:no_such_function"]
    layers = layer_metrics(tracer.spans, [h.span for h in missing])
    assert "momentum.predict_s" not in layers and "momentum.solve_s" not in layers
    assert "diagnostics.report_calls" in layers


def test_result_line_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        n: unit for n, unit in run.END_TO_END_UNITS.items() if n not in run.OFF_RESULT_LINE}
    reported = {n: unit for n, (unit, _, _) in LAYER_METRICS.items()
                if n not in run.OFF_RESULT_LINE}
    reported["trace.overhead_frac"] = "ratio"
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == reported
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(WORKLOADS) == sorted(run.WORKLOAD_NAMES)


def test_percentile_matches_numpy():
    values = list(np.random.default_rng(0).exponential(size=37))
    for pct in (50.0, 66.0, 90.0, 99.0):
        assert run.percentile(values, pct) == pytest.approx(np.percentile(values, pct), rel=1e-12)
