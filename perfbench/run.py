"""driftflux benchmark: time-to-solution of three solver workloads.

    python3 perfbench/run.py --workload sloshing --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py                  # every workload, untraced

Run from the repository root.  Each unit of a workload runs in a fresh
Python process (one at a time, BLAS pinned to one thread), until --seconds
have passed and at least the workload's minimum number of units has run.
With --trace 0 the end-to-end metrics are printed; with --trace 1, traced and
untraced units alternate and the per-layer metrics are printed.  Every metric
is printed by name with its unit, then the last line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Details of each run go to .perfbench_out/.  README.md defines the metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from spans import COUNT_METRICS, LAYER_METRICS, NOT_ON_EVERY_WORKLOAD

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("sloshing", "manufactured", "entropy_suite")
BLAS_THREADS = 1
DEADLINE_S = 150  # a run without its minimum units by then fails, ending within 180 s
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "step_s_median": "s", "step_s_tail": "s",
                    "cell_steps_per_s": "1/s", "peak_rss_mb": "MB"}
# Printed but kept off the result line, so carrying no bound: step_s_median
# flips between the two speeds the host alternates between (README.md), and
# the layer times that are 0 on some workload.
OFF_RESULT_LINE = ("step_s_median",) + NOT_ON_EVERY_WORKLOAD


class UnitFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(workload, seed, traced, index, timeout):
    spans = os.path.join(OUT, f"spans-{workload}-unit{index}.jsonl")
    cmd = [sys.executable, os.path.join(HERE, "unit.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--out", OUT]
    if traced:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise UnitFailed(f"{workload} unit {index} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise UnitFailed(f"{workload} unit {index} exited with {proc.returncode}:\n"
                         + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, pct):
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(units, tail_pct):
    steps = [t for u in units for t in u["step_times"]]
    return {
        # a mean: the median of the few units of a run jumps with the host's speed
        "wall_s": statistics.fmean(u["wall_s"] for u in units),
        "setup_s": statistics.median(u["setup_s"] for u in units),
        "step_s_median": statistics.median(steps),
        "step_s_tail": percentile(steps, tail_pct),
        "cell_steps_per_s": (sum(u["cell_steps"] for u in units)
                             / sum(sum(u["step_times"]) for u in units)),
        "peak_rss_mb": statistics.median(u["rss_kb"] for u in units) / 1024.0,
    }


def per_layer(traced, untraced):
    names = set.intersection(*(set(u["layers"]) for u in traced))
    out = {n: statistics.median(u["layers"][n] for u in traced)
           for n in LAYER_METRICS if n in names}
    out["trace.overhead_frac"] = (statistics.median(u["wall_s"] for u in traced)
                                  / statistics.median(u["wall_s"] for u in untraced) - 1.0)
    repeats = all(u["layers"][n] == traced[0]["layers"][n]
                  for u in traced for n in COUNT_METRICS if n in names)
    return out, repeats


def run_workload(name, seed, seconds, traced):
    """Run units until the time is up; returns the result object and details."""
    from workloads import MIN_UNITS, WORKLOADS  # imports driftflux, so only once src is on the path
    wl = WORKLOADS[name]
    t0 = time.perf_counter()
    units = []
    while True:
        elapsed = time.perf_counter() - t0
        plain = [u for u in units if not u["trace"]]
        if traced:  # at least two of each, for the count and overhead comparisons
            enough = min(len(plain), len(units) - len(plain)) >= 2
        else:
            enough = len(units) >= MIN_UNITS
        if enough and elapsed >= min(seconds, DEADLINE_S):
            break
        if elapsed >= DEADLINE_S:
            raise UnitFailed(f"{name}: {len(units)} units did not fit in {DEADLINE_S} s")
        # traced runs alternate untraced and traced units, starting untraced
        unit_traced = traced and len(units) % 2 == 1
        units.append(run_child(name, seed, unit_traced, len(units), timeout=170 - elapsed))

    digests = {u["digest"] for u in units}
    checks = [("reports_identical_across_units", len(digests) == 1,
               f"{len(digests)} distinct step-report digests over {len(units)} units")]
    good = [u for u in units if u["failed"] == 0]
    plain = [u for u in good if not u["trace"]]
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
              "seed_affects_inputs": wl.seeded, "tail_pct": wl.tail_pct,
              "units": units, "env": dict(units[0]["env"], python=platform.python_version(),
                                          nproc=os.cpu_count())}
    if traced:
        with_trace = [u for u in good if u["trace"]]
        if not with_trace or not plain:
            raise UnitFailed(f"{name}: no correct traced and untraced units")
        metrics, repeats = per_layer(with_trace, plain)
        checks.append(("counts_repeat_across_units", repeats,
                       "count metrics identical in every traced unit"))
        units_of = {n: u for n, (u, _, _) in LAYER_METRICS.items()}
        units_of["trace.overhead_frac"] = "ratio"
    else:
        if not plain:
            raise UnitFailed(f"{name}: no correct units")
        metrics = end_to_end(plain, wl.tail_pct)
        units_of = END_TO_END_UNITS
    attempted = sum(u["attempted"] for u in units) + len(checks)
    failed = sum(u["failed"] for u in units) + sum(1 for _, ok, _ in checks if not ok)
    detail["checks"] = checks
    detail["failed_frac"] = failed / attempted
    detail["metrics"] = {n: {"value": v, "unit": units_of[n]} for n, v in metrics.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: m for n, m in detail["metrics"].items()
                          if n not in OFF_RESULT_LINE}}
    detail["result"] = result
    return result, detail


def report(name, result, detail):
    env = detail["env"]
    n_steps = sum(len(u["step_times"]) for u in detail["units"] if not u["trace"])
    print(f"# {name}: seed {detail['seed']} (changes inputs: "
          f"{'yes' if detail['seed_affects_inputs'] else 'no'}), {len(detail['units'])} units, "
          f"nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, BLAS threads {env['blas_threads']}")
    for cname, ok, text in detail["checks"]:
        print(f"# check {cname}: {'ok' if ok else 'FAILED'} ({text})")
    for u in detail["units"]:
        for cname, ok, text in u["checks"]:
            if not ok:
                print(f"# unit check {cname}: FAILED ({text})")
        if u["missing_hooks"]:
            print(f"# hooks not found, their metrics dropped: {', '.join(u['missing_hooks'])}")
    for mname, m in detail["metrics"].items():
        note = "  (printed only)" if mname in OFF_RESULT_LINE else ""
        if mname == "step_s_tail":
            note = f"  (p{detail['tail_pct']:g} of {n_steps} steps)"
        print(f"{name:14s} {mname:36s} {m['value']:.6g} {m['unit']}{note}")
    print(f"{name:14s} {'failed_frac':36s} {detail['failed_frac']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    if detail["trace"]:
        unit = next(u for u in detail["units"] if u["trace"])
        print(f"# self times of one traced unit (wall {unit['wall_s']:.6f} s):")
        for lname, t in sorted(unit["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"#   {lname:36s} {t:.6f} s")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "driftflux", "__init__.py")):
        print(f"error: no driftflux sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    sys.path[:0] = [HERE, SRC]
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, detail = run_workload(name, args.seed, args.seconds, bool(args.trace))
            path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w") as fh:
                json.dump(detail, fh, indent=1)
            report(name, result, detail)
            results[name] = result
    except UnitFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}/{n}": m for w, r in results.items()
                             for n, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
