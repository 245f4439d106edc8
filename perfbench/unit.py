"""One unit of a workload, run in a fresh process.

    python3 perfbench/unit.py --workload sloshing --seed 0 --trace 0 --out DIR

Prints one JSON object: wall, set-up and step times, peak RSS, checks, a digest
of the step reports and, with --trace 1, the per-layer metrics and self times.
``src`` must be on PYTHONPATH; run.py sets that up.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import tempfile
import time
from dataclasses import astuple

import numpy
import scipy
from driftflux.errors import DriftFluxError

from spans import CLOCK_HOOKS, TRACE_HOOKS, SpanTable, Tracer, installed, layer_metrics
from workloads import WORKLOADS


def run_unit(workload, seed, traced, out_dir, size=None):
    """Execute one unit in this process; returns (result, error, wall, tracer, missing)."""
    size = workload.size if size is None else size
    tracer = Tracer()
    with installed(tracer, TRACE_HOOKS if traced else CLOCK_HOOKS) as missing:
        t0 = time.perf_counter()
        try:
            result, error = workload.execute(tracer, seed, out_dir, **size), None
        except DriftFluxError as exc:
            result, error = None, exc
        wall = time.perf_counter() - t0
    return result, error, wall, tracer, [h.span for h in missing]


def instances(tracer):
    """(cells, step reports) of every simulation the unit ran."""
    return [(s.attrs["cells"], s.attrs["reports"]) for s in tracer.spans
            if s.name == "driver.simulate" and "reports" in s.attrs]


def reports_digest(insts):
    h = hashlib.sha256()
    for cells, reports in insts:
        h.update(repr((cells, [astuple(r) for r in reports])).encode())
    return h.hexdigest()


def setup_time(tracer):
    """Sum over simulations of build_case (or random_wall_problem) start to the
    first driver.advance start."""
    steps = [s.start for s in tracer.spans if s.name == "driver.advance"]
    total = 0.0
    for s in tracer.spans:
        if s.name == "cases.build":
            first = next((t for t in steps if t > s.start), None)
            if first is not None:
                total += first - s.start
    return total


def trace_checks(tracer, insts, wall):
    """The trace agrees with the reports, and self times add up to the wall."""
    table = SpanTable(tracer.spans)
    newton = table.attr_sum("pressure_correction.newton", "iterations")
    outer = table.count("pressure_correction.newton")
    rep_newton = sum(r.newton_iters for _, reports in insts for r in reports)
    rep_outer = sum(r.outer_iters for _, reports in insts for r in reports)
    self_sum = sum(table.self_time) + (wall - table.root_time())
    nested = min(table.self_time, default=0.0) >= -1e-9
    return [
        ("trace_newton_total", newton == rep_newton,
         f"trace {newton} vs reports {rep_newton} Newton iterations"),
        ("trace_outer_total", outer == rep_outer,
         f"trace {outer} vs reports {rep_outer} outer iterations"),
        ("trace_self_time_sum", nested and math.isclose(self_sum, wall, rel_tol=1e-9),
         f"self times plus remainder {self_sum:.6f} s vs wall {wall:.6f} s"),
    ]


def write_spans(tracer, path):
    with open(path, "w") as fh:
        for s in tracer.spans:
            attrs = {k: v for k, v in s.attrs.items() if k != "reports"}
            fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.step, attrs]) + "\n")


def summarize(workload, seed, traced, result, error, wall, tracer, missing, spans_path=None):
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    size = workload.size
    insts = instances(tracer)
    step_times = [s.end - s.start for s in tracer.spans if s.name == "driver.advance"]
    done_steps = sum(len(reports) - 1 for _, reports in insts)
    planned = workload.planned_steps(**size)
    checks = []
    if error is not None:
        checks.append(("completed", False, f"{type(error).__name__}: {error}"))
    else:
        checks += workload.check(result, insts, **size)
    if traced:
        checks += trace_checks(tracer, insts, wall)
    out = {
        "workload": workload.name, "seed": seed, "trace": int(traced),
        "wall_s": wall, "setup_s": setup_time(tracer), "step_times": step_times,
        "cell_steps": sum(cells * (len(reports) - 1) for cells, reports in insts),
        "rss_kb": rss_kb, "digest": reports_digest(insts),
        "attempted": planned + len(checks),
        "failed": (planned - done_steps) + sum(1 for _, ok, _ in checks if not ok),
        "checks": [list(c) for c in checks], "missing_hooks": sorted(set(missing)),
        "env": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")},
    }
    if traced:
        table = SpanTable(tracer.spans)
        out["layers"] = layer_metrics(tracer.spans, missing)
        out["self_s"] = table.self_times_by_name()
        out["self_s"]["(untraced remainder)"] = wall - table.root_time()
        if spans_path:
            write_spans(tracer, spans_path)
            out["spans_file"] = spans_path
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True, help="directory for outputs and spans")
    ap.add_argument("--spans", default=None, help="file for the traced run's spans")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=args.out) as tmp:
        result, error, wall, tracer, missing = run_unit(workload, args.seed, bool(args.trace), tmp)
    out = summarize(workload, args.seed, bool(args.trace), result, error, wall, tracer,
                    missing, args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
