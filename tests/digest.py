"""Numerics digest: one SHA-256 per run over every state and step report the
run yields, printed with the run's Newton totals.

    python tests/digest.py                          # this tree
    python tests/digest.py --against <checkout>     # and a second checkout

The run list is fixed: W1 and W2 of ``perfbench`` (no output written), the
entropy, conservation, pressure-work, drift-dissipation and interface suites
at seed 0, and every shipped config at 10 steps under both flux functions.
A suite that yields no state digests the values its checks are evaluated on.
Equal digests mean bit-identical numerics; with ``--against`` the script
also runs the list on the second checkout's ``src`` and prints, for every
run whose digest differs, the maximum absolute and relative deviation of
each field.  It exits with status 1 when a digest differs.

BLAS runs on one thread: W1's digest differs between one and two OpenBLAS
threads.  A state's face densities are left out of the digest, since they
are functions of its densities.
"""

import os
import sys

if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, when numpy loads BLAS

import argparse
import dataclasses
import hashlib
import pickle
import subprocess
import tempfile
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CONFIG_STEPS = 10


def sloshing(steps=10):
    """W1: the 70x90 sloshing case, dt 0.01."""
    from driftflux import driver
    from driftflux.config import make_config
    return driver.run_simulation(make_config("sloshing", nx=70, ny=90, dt=0.01,
                                             t_end=steps * 0.01))


def manufactured(steps=40):
    """W2: the 40x40 manufactured case, dt 0.00078125."""
    from driftflux import driver
    from driftflux.config import make_config
    dt = 0.00078125
    return driver.run_simulation(make_config("manufactured", nx=40, ny=40, dt=dt,
                                             t_end=steps * dt))


def suite(name):
    def run():
        from driftflux import verification
        return verification.run_suite(name, seed=0)
    return run


def shipped(path, flux):
    def run():
        from driftflux import driver
        from driftflux.config import load_config
        config = load_config(path)
        return driver.run_simulation(dataclasses.replace(
            config, t_end=CONFIG_STEPS * config.dt, flux=flux, out_dir="", dump_interval=0))
    return run


def run_list():
    """(name, run) of every run the digest covers, in print order."""
    runs = [("W1 sloshing", sloshing), ("W2 manufactured", manufactured)]
    runs += [(f"suite {name}", suite(name)) for name in
             ("entropy", "conservation", "pressure-work", "drift-dissipation", "interface")]
    runs += [(f"{path.stem} {flux}", shipped(path, flux))
             for path in sorted((ROOT / "configs").glob("*.cfg"))
             for flux in ("flux_splitting", "godunov")]
    return runs


def record(run):
    """Run ``run`` once; returns {"digest", "newton", "error", "fields"}, with
    "fields" mapping each recorded field to its values over the run."""
    from driftflux import driver, gas_fraction, verification
    from driftflux import pressure_correction as pc
    from driftflux.errors import DriftFluxError

    entries = []
    newton = {"p": [0, 0], "y": [0, 0]}  # [iterations, residual evaluations]

    def add(prefix, obj):
        for f in dataclasses.fields(obj):
            if not f.name.startswith("rho_face"):
                entries.append((f"{prefix}.{f.name}", getattr(obj, f.name)))

    def steps_wrap(steps):
        def recorded(*args, **kwargs):
            for state, report in steps(*args, **kwargs):
                add("state", state)
                add("report", report)
                yield state, report
        return recorded

    def newton_wrap(key):
        def wrap(newton_solve):
            def counted(residual_fn, *args, **kwargs):
                def residual(x):
                    newton[key][1] += 1
                    return residual_fn(x)
                res = newton_solve(residual, *args, **kwargs)
                newton[key][0] += res.iterations
                return res
            return counted
        return wrap

    def output_wrap(name):
        def wrap(fn):
            def recorded(*args, **kwargs):
                out = fn(*args, **kwargs)
                entries.append((name, np.asarray(out, dtype=float)))
                return out
            return recorded
        return wrap

    error = None
    hooks = [(driver, "steps", steps_wrap), (pc, "newton_solve", newton_wrap("p")),
             (gas_fraction, "newton_solve", newton_wrap("y"))]
    hooks += [(verification, name, output_wrap(name)) for name in (
        "correct_mass_fraction", "drift_dissipation_check",
        "pressure_work_inequality_check", "segment_point_check")]
    with ExitStack() as stack:
        for owner, name, wrap in hooks:
            stack.enter_context(mock.patch.object(owner, name, wrap(getattr(owner, name))))
        try:
            result = run()
        except DriftFluxError as exc:
            error = f"{type(exc).__name__}: {exc}"
        else:
            if isinstance(result, verification.SuiteResult):
                entries.append(("suite.passed", result.passed))
                entries += [(f"suite.{k}", v) for k, v in sorted(result.data.items())]
    sha = hashlib.sha256(repr(error).encode())
    fields = {}
    for name, value in entries:
        a = np.ascontiguousarray(value)
        sha.update(f"{name} {a.dtype.str} {a.shape}".encode())
        sha.update(a.tobytes())
        fields.setdefault(name, []).append(a.astype(float).ravel())
    return {"digest": sha.hexdigest(), "newton": newton, "error": error,
            "fields": {k: np.concatenate(v) for k, v in fields.items()}}


def record_all():
    return {name: record(run) for name, run in run_list()}


def deviations(a, b):
    """(field, max abs, max rel) of every field whose values differ, or a
    one-line reason when the two runs do not line up."""
    if a["fields"].keys() != b["fields"].keys():
        return ["the recorded fields differ"]
    out = []
    for name, x in a["fields"].items():
        y = b["fields"][name]
        if x.shape != y.shape:
            out.append(f"{name}: {x.size} against {y.size} values")
            continue
        with np.errstate(invalid="ignore", divide="ignore"):
            d = np.abs(x - y)
            rel = np.where(d > 0, d / np.maximum(np.abs(x), np.abs(y)), 0.0)
        if not np.array_equal(x, y, equal_nan=True):
            out.append(f"{name}: max abs {np.nanmax(d):.3e}, max rel {np.nanmax(rel):.3e}")
    return out


def totals(rec):
    (pi, pr), (yi, yr) = rec["newton"]["p"], rec["newton"]["y"]
    return f"p {pi}/{pr}  y {yi}/{yr}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", help="a second checkout to digest and compare")
    ap.add_argument("--src", help=argparse.SUPPRESS)   # the package to digest
    ap.add_argument("--dump", help=argparse.SUPPRESS)  # pickle the records here
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src or str(ROOT / "src"))
    if args.dump:
        with open(args.dump, "wb") as fh:
            pickle.dump(record_all(), fh)
        return 0
    ours = record_all()
    print("Newton totals: iterations/residual evaluations of the pressure step (p) "
          "and the y-correction (y)")
    if not args.against:
        for name, rec in ours.items():
            print(f"{name:32s} {rec['digest'][:16]}  {totals(rec)}"
                  + (f"  stopped: {rec['error']}" if rec["error"] else ""))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        dump = os.path.join(tmp, "records.pkl")
        subprocess.run([sys.executable, __file__, "--src",
                        str(Path(args.against).resolve() / "src"), "--dump", dump], check=True)
        with open(dump, "rb") as fh:
            theirs = pickle.load(fh)
    equal = 0
    for name, rec in ours.items():
        other = theirs[name]
        same = rec["digest"] == other["digest"]
        equal += same
        print(f"{name:32s} {rec['digest'][:16]} {other['digest'][:16]} "
              f"{'equal' if same else 'DIFFERS'}  {totals(rec)} | {totals(other)}")
        if not same:
            for line in deviations(rec, other) or ["no field differs; the error differs"]:
                print(f"    {line}")
    print(f"{equal} of {len(ours)} runs have equal digests")
    return 0 if equal == len(ours) else 1


if __name__ == "__main__":
    sys.exit(main())
