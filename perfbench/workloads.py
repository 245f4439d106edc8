"""The benchmark's workloads and the correctness checks run on their outputs.

Each workload drives driftflux only through its public API.  ``execute`` is
the timed part; ``check`` runs afterwards on the result and on the step
reports captured by the ``driver.simulate`` hook, so no timing is reported
from a wrong run.  Why each workload was chosen is in README.md.
"""

import json
import os
from dataclasses import dataclass

from driftflux import driver, verification
from driftflux.config import make_config

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
MIN_UNITS = 3  # fresh-process repeats per untraced run, at least


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool          # whether --seed changes the inputs
    tail_pct: float       # step_s_tail percentile: >= 10 steps beyond it at MIN_UNITS
    size: dict            # the benchmark's input size
    execute: object       # (tracer, seed, out_dir, **size) -> result; the timed part
    planned_steps: object  # (**size) -> scheme steps one unit attempts
    check: object         # (result, instances, **size) -> [(name, ok, detail)]


def _bounds_checks(instances):
    bad = sum(1 for _, reports in instances for r in reports if not r.bounds_ok)
    return [("bounds_ok", bad == 0, f"{bad} step reports out of bounds")]


# --- sloshing ---------------------------------------------------------------

SLOSHING_DT = 0.01


def execute_sloshing(tracer, seed, out_dir, nx, ny, steps):
    # dump_interval as in configs/sloshing.cfg; VTK dumps land in out_dir
    config = make_config("sloshing", nx=nx, ny=ny, dt=SLOSHING_DT,
                         t_end=steps * SLOSHING_DT, out_dir=out_dir, dump_interval=20)
    return driver.run_simulation(config)


def check_sloshing(result, instances, nx, ny, steps):
    reports = result.reports
    tol = 1e-10 + 2e-10 * steps  # suite_conservation's tolerance
    m0, g0 = reports[0].mass, reports[0].gas_mass
    dm = max(abs(r.mass - m0) for r in reports) / m0
    dg = max(abs(r.gas_mass - g0) for r in reports) / g0
    return _bounds_checks(instances) + [
        ("mass_conservation", dm <= tol, f"relative mass drift {dm:.3e} (<= {tol:.1e})"),
        ("gas_mass_conservation", dg <= tol, f"relative gas-mass drift {dg:.3e} (<= {tol:.1e})"),
    ]


# --- manufactured -----------------------------------------------------------

MANUFACTURED_DT = 0.00078125


def execute_manufactured(tracer, seed, out_dir, n, steps):
    config = make_config("manufactured", nx=n, ny=n, dt=MANUFACTURED_DT,
                         t_end=steps * MANUFACTURED_DT)
    return driver.run_simulation(config)


def check_manufactured(result, instances, n, steps):
    with open(REFERENCE) as fh:
        ref = json.load(fh)["manufactured"]
    if (ref["n"], ref["steps"], ref["dt"]) != (n, steps, MANUFACTURED_DT):
        return [("manufactured_errors", False, f"no reference for n={n}, steps={steps}")]
    errors = driver.manufactured_errors(result)
    checks = _bounds_checks(instances)
    for name, value, expected in zip(("err_u", "err_p", "err_y"), errors,
                                     (ref["err_u"], ref["err_p"], ref["err_y"])):
        dev = abs(value - expected) / expected
        checks.append((f"manufactured_{name}", dev <= ref["rel_tol"],
                       f"{value:.12e} vs reference {expected:.12e} "
                       f"(relative deviation {dev:.1e} <= {ref['rel_tol']:.0e})"))
    return checks


# --- entropy suite ----------------------------------------------------------

def execute_entropy(tracer, seed, out_dir, n_seeds, n_steps):
    with tracer.span("verification.suite"):
        return verification.suite_entropy(seed=seed, n_seeds=n_seeds, n_steps=n_steps)


def check_entropy(result, instances, n_seeds, n_steps):
    checks = _bounds_checks(instances)
    checks.append(("suite_passed", bool(result.passed), "; ".join(result.lines)))
    checks.append(("suite_instances", len(instances) == 2 * n_seeds,
                   f"{len(instances)} simulations (expect {2 * n_seeds})"))
    return checks


WORKLOADS = {
    "sloshing": Workload(
        name="sloshing", seeded=False, tail_pct=66.0,
        size=dict(nx=70, ny=90, steps=10),
        execute=execute_sloshing,
        planned_steps=lambda nx, ny, steps: steps,
        check=check_sloshing),
    "manufactured": Workload(
        name="manufactured", seeded=False, tail_pct=91.0,
        size=dict(n=40, steps=40),
        execute=execute_manufactured,
        planned_steps=lambda n, steps: steps,
        check=check_manufactured),
    "entropy_suite": Workload(
        name="entropy_suite", seeded=True, tail_pct=99.0,
        size=dict(n_seeds=20, n_steps=20),
        execute=execute_entropy,
        planned_steps=lambda n_seeds, n_steps: 2 * n_seeds * n_steps,
        check=check_entropy),
}
