"""Randomized property suites behind ``driftflux verify`` and the acceptance tests."""

import functools
from dataclasses import dataclass, field

import numpy as np

from . import eos as _eos
from .boundary import BoundaryConditions
from .cases import BOX_EOS, BOX_MU, Problem, build_case
from .config import make_config
from .diagnostics import (drift_dissipation_check, entropy_scale,
                          global_entropy_bound, pressure_work_inequality_check,
                          segment_point_check)
from .driver import simulate
from .eos import EosParams
from .errors import InvariantViolation
from .gas_fraction import FLUX_FUNCTIONS, DriftModel, correct_mass_fraction, drift_fluxes, _phi
from .linalg import NewtonConfig, solve
from .mesh import build_diamond_geometry, build_uniform_mesh, upwind, upwind_transport_matrix
from .momentum import ViscosityModel


@dataclass
class SuiteResult:
    name: str
    passed: bool
    lines: list = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def report(self):
        status = "PASS" if self.passed else "FAIL"
        return "\n".join([f"[{status}] suite {self.name}"] + [f"  {l}" for l in self.lines])


def _random_admissible(rng, n, eos, y_lo=0.15, y_hi=0.9, p_lo=0.5, p_hi=2.5):
    p = rng.uniform(p_lo, p_hi, n) * eos.a2 * eos.rho_l / 5.0
    y = rng.uniform(y_lo, y_hi, n)
    rho = _eos.rho_from_py(p, y, eos)
    return p, y, rho, rho * y


@functools.cache
def _unit_box(nx, ny):
    """Mesh and diamond geometry of the unit square's nx x ny box, built once
    per shape, so that the patterns cached on the mesh are too: the suites
    draw thousands of problems on a few shapes."""
    mesh = build_uniform_mesh(nx, ny, 1.0, 1.0)
    return mesh, build_diamond_geometry(mesh)


def random_wall_problem(rng, nx=4, ny=4):
    """Closed box with randomized admissible data and velocities up to 0.1,
    used by the entropy and conservation suites."""
    mesh, geom = _unit_box(nx, ny)
    p, y, rho, _ = _random_admissible(rng, mesh.n_cells, BOX_EOS)
    u = np.zeros((mesh.n_faces, 2))
    u[: mesh.n_internal] = rng.uniform(-0.1, 0.1, (mesh.n_internal, 2))
    return Problem(
        name="random_box", mesh=mesh, geom=geom, eos=BOX_EOS, bc=BoundaryConditions(),
        viscosity=ViscosityModel("constant", mu=BOX_MU), drift=DriftModel("none"),
        flux_fn=FLUX_FUNCTIONS["flux_splitting"], u_init=u, rho_init=rho,
        p_init=p, y_init=y,
    )


def _strip_meshes(rng):
    shapes = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (7, 1), (2, 4), (8, 1)]
    return shapes[rng.integers(len(shapes))]


def pressure_work_instance(rng, eos, dt=0.1):
    """Build (rho*, z*) admissible, random antisymmetric fluxes, and solve the
    implicit upwind balances for (rho, z); rejects draws that leave C."""
    for _ in range(50):
        mesh, _ = _unit_box(*_strip_meshes(rng))
        M = mesh.n_cells
        _, _, rho_star, z_star = _random_admissible(rng, M, eos)
        v = rng.uniform(-0.4, 0.4, mesh.n_internal) * mesh.cell_measure / dt
        A = upwind_transport_matrix(mesh, upwind(mesh, v)[0], v,
                                    np.full(M, mesh.cell_measure / dt))
        rho, z = solve(A, mesh.cell_measure / dt * np.column_stack([rho_star, z_star])).T
        try:
            _eos.gas_density_from_rho_z(rho, z, eos)  # (rho*, z*) are in C by construction
        except InvariantViolation:
            continue
        return mesh, rho_star, z_star, rho, z, v
    raise RuntimeError("could not draw an admissible pressure-work instance")


def suite_pressure_work(seed=0, n_instances=1000, n_pairs=1000):
    """Pressure-work inequality plus the segment-point lemma."""
    rng = np.random.default_rng(seed)
    eos = EosParams(5.0, 1.0)
    dt = 0.1
    lines = []
    ok = True
    worst = np.inf
    if n_instances:
        for _ in range(n_instances):
            mesh, rs, zs, rho, z, v = pressure_work_instance(rng, eos, dt)
            margin = pressure_work_inequality_check(mesh, eos, rho, rs, z, zs, v, dt)
            scale = max(1.0, abs(margin))
            worst = min(worst, margin / scale)
        lines.append(f"pressure-work margin over {n_instances} instances: worst "
                     f"{worst:.3e} (require >= -1e-12)")
        ok = ok and worst >= -1e-12

    worst_T = np.inf
    worst_res = 0.0
    zeta_ok = True
    if n_pairs:
        for _ in range(n_pairs):
            _, _, r1, z1 = _random_admissible(rng, 1, eos)
            _, _, r2, z2 = _random_admissible(rng, 1, eos)
            zeta, T, res = segment_point_check(eos, (r1[0], z1[0]), (r2[0], z2[0]))
            worst_T = min(worst_T, T)
            worst_res = max(worst_res, abs(res))
            zeta_ok = zeta_ok and -1e-12 <= zeta <= 1 + 1e-12
        lines.append(f"segment-point over {n_pairs} pairs: min T {worst_T:.3e} "
                     f"(>= -1e-14), max residual {worst_res:.3e} (<= 1e-10), "
                     f"zeta in [0,1]: {zeta_ok}")
        ok = ok and worst_T >= -1e-14 and worst_res <= 1e-10 and zeta_ok
    return SuiteResult("pressure-work", ok, lines,
                       data={"worst_margin": worst, "worst_T": worst_T,
                             "worst_residual": worst_res})


def drift_instance(rng, eos, nx=3, ny=3, dt=0.05):
    mesh, _ = _unit_box(nx, ny)
    p, y, rho, z = _random_admissible(rng, mesh.n_cells, eos, y_lo=0.1, y_hi=0.9)
    v_mean = rng.uniform(-1.0, 1.0, mesh.n_internal)
    lam = rng.uniform(0.2, 5.0)
    model = DriftModel("darcy", lam=lam)
    G = drift_fluxes(mesh, eos, model, rho, p, z, v_mean)
    return mesh, rho, z, p, G


def suite_drift_dissipation(seed=0, n_states=200):
    rng = np.random.default_rng(seed)
    eos = EosParams(5.0, 1.0)
    flux = FLUX_FUNCTIONS["godunov"]
    dt = 0.05
    worst_margin = np.inf
    worst_t2 = np.inf
    for _ in range(n_states):
        mesh, rho, z, p, G = drift_instance(rng, eos, dt=dt)
        y_new = correct_mass_fraction(mesh, rho, z, G, flux, 0.0, dt)
        margin, t2 = drift_dissipation_check(mesh, eos, rho, z, y_new, p, G, flux, dt)
        scale = max(1.0, abs(margin))
        worst_margin = min(worst_margin, margin / scale)
        worst_t2 = min(worst_t2, t2 / max(1.0, abs(t2)))
    lines = [f"drift dissipativity over {n_states} states: worst free-energy margin "
             f"{worst_margin:.3e} (>= -1e-10), worst edgewise T2 {worst_t2:.3e} (>= -1e-12)"]
    ok = worst_margin >= -1e-10 and worst_t2 >= -1e-12
    return SuiteResult("drift-dissipation", ok, lines,
                       data={"worst_margin": worst_margin, "worst_t2": worst_t2})


def suite_entropy(seed=0, n_seeds=20, n_steps=20):
    """Per-step entropy inequality on randomized 4 x 4 closed-box runs, without
    and with the renormalization step; with it, also the telescoped global bound."""
    worst = np.inf
    worst_global = np.inf
    dt = 0.05
    for s in range(n_seeds):
        rng = np.random.default_rng(seed + s)
        problem = random_wall_problem(rng)
        res = simulate(problem, dt=dt, t_end=n_steps * dt)
        for rep in res.reports[1:]:
            worst = min(worst, rep.entropy_margin / entropy_scale(rep))
        problem2 = random_wall_problem(np.random.default_rng(seed + s))
        res2 = simulate(problem2, dt=dt, t_end=n_steps * dt, renormalize=True)
        for rep in res2.reports[1:]:
            worst = min(worst, rep.entropy_margin / entropy_scale(rep))
        margins = global_entropy_bound(res2.reports)
        scale = max(1.0, res2.reports[0].kinetic + abs(res2.reports[0].free_energy))
        worst_global = min(worst_global, float(np.min(margins)) / scale)
    lines = [f"entropy per-step margin over {n_seeds} seeds x {n_steps} steps: "
             f"worst {worst:.3e} (>= -1e-10)",
             f"telescoped global bound (renormalization on): worst "
             f"{worst_global:.3e} (>= -1e-10)"]
    ok = worst >= -1e-10 and worst_global >= -1e-10
    return SuiteResult("entropy", ok, lines,
                       data={"worst_step": worst, "worst_global": worst_global})


def suite_conservation(seed=0, n_steps=120, nx=4, ny=4):
    rng = np.random.default_rng(seed)
    problem = random_wall_problem(rng, nx, ny)
    dt = 0.05
    res = simulate(problem, dt=dt, t_end=n_steps * dt)
    mass = np.array([r.mass for r in res.reports])
    gas = np.array([r.gas_mass for r in res.reports])
    dm = float(np.max(np.abs(mass - mass[0])) / mass[0])
    dg = float(np.max(np.abs(gas - gas[0])) / gas[0])
    # quiescent uniform run: momentum stays exactly zero
    quiet = build_case(make_config("uniform", nx=nx, ny=ny, dt=dt, t_end=n_steps * dt))
    resq = simulate(quiet, dt=dt, t_end=n_steps * dt)
    mom = np.array([[r.mom_x, r.mom_y] for r in resq.reports])
    dmom = float(np.max(np.abs(mom)))
    tol = 1e-10 + 20 * n_steps * 1e-11  # relative drift plus accumulated Newton slack
    lines = [f"mass drift {dm:.3e}, gas-mass drift {dg:.3e} over {n_steps} steps "
             f"(<= {tol:.1e})",
             f"quiescent momentum max |mom| {dmom:.3e} (<= 1e-10)"]
    ok = dm <= tol and dg <= tol and dmom <= 1e-10
    return SuiteResult("conservation", ok, lines,
                       data={"mass_drift": dm, "gas_drift": dg, "momentum": dmom})


def interface_front_cells(mesh, z):
    """Index of the first cell row (in x) past the transported front of z."""
    row = z[: mesh.nx]
    mid = 0.5 * (row.min() + row.max())
    idx = np.argmax(row > mid) if row[-1] > row[0] else np.argmax(row < mid)
    return int(idx)


def suite_interface(seed=0, n_steps=50, nx=40, ny=4, tol=1e-8):
    config = make_config("interface", nx=nx, ny=ny)
    problem = build_case(config)
    dt = config.dt
    u0 = problem.u_init[0].copy()
    p0 = problem.p_init[0]
    state0_front = interface_front_cells(problem.mesh, problem.rho_init * problem.y_init)
    res = simulate(problem, dt=dt, t_end=n_steps * dt,
                   ncfg=NewtonConfig(abs_tol=1e-13, rel_tol=1e-13))
    dp = float(np.max(np.abs(res.state.p - p0))) / p0
    du = float(np.max(np.abs(res.state.u - u0)))
    front1 = interface_front_cells(problem.mesh, res.state.z)
    moved = front1 - state0_front
    lines = [f"max |p - p0|/p0 = {dp:.3e}, max |u - u0| = {du:.3e} (<= {tol:.0e})",
             f"front moved {moved} cells (require >= 10)"]
    ok = dp <= tol and du <= tol and moved >= 10
    return SuiteResult("interface", ok, lines,
                       data={"dp": dp, "du": du, "moved": moved})


def suite_flux_functions(seed=0, n_random=200):
    rng = np.random.default_rng(seed)
    lines = []
    ok = True
    grid = np.linspace(0.0, 1.0, 11)
    for name, fn in FLUX_FUNCTIONS.items():
        cons = np.max(np.abs(fn.value(grid, grid) - _phi(grid)))
        lines.append(f"{name}: max |g(a,a) - phi(a)| on 11-point grid = {cons:.3e} (exact)")
        ok = ok and cons == 0.0
    # sampled monotonicity on [-0.1, 1.1]^2, with increments that also cross
    # the kinks at a = 0 and a = 1, where the arguments are clamped
    h = 1e-3
    straddle = np.array([[-h / 2, 0.3], [1 - h / 2, 0.3], [0.3, -h / 2], [0.3, 1 - h / 2]])
    a = np.concatenate([rng.uniform(-0.1, 1.1, (400, 2)), straddle])
    for name, fn in FLUX_FUNCTIONS.items():
        up = fn.value(a[:, 0] + h, a[:, 1]) - fn.value(a[:, 0], a[:, 1])
        dn = fn.value(a[:, 0], a[:, 1] + h) - fn.value(a[:, 0], a[:, 1])
        mono = float(min(np.min(up), np.min(-dn)))
        lines.append(f"{name}: sampled monotonicity on [-0.1, 1.1]^2 worst increment "
                     f"{mono:.3e} (>= -1e-12)")
        ok = ok and mono >= -1e-12
    # Godunov against brute-force extremum search
    god = FLUX_FUNCTIONS["godunov"]
    s = np.linspace(0.0, 1.0, 10001)
    worst = 0.0
    for _ in range(n_random):
        a1, a2 = rng.uniform(0.0, 1.0, 2)
        lo, hi = min(a1, a2), max(a1, a2)
        seg = s[(s >= lo) & (s <= hi)]
        seg = np.concatenate([[lo], seg, [hi]])
        ref = np.max(_phi(seg)) if a2 <= a1 else np.min(_phi(seg))
        worst = max(worst, abs(float(god.value(a1, a2)) - ref))
    lines.append(f"godunov vs brute force over {n_random} pairs: max diff {worst:.3e} (<= 1e-8)")
    ok = ok and worst <= 1e-8
    return SuiteResult("flux-functions", ok, lines, data={"godunov_diff": worst})


def suite_bounds(seed=0, manufactured_steps=20, sloshing_steps=20):
    """Physical-range checks on manufactured and coarse sloshing runs."""
    lines = []
    ok = True
    config = make_config("manufactured", nx=16, ny=16, dt=0.01,
                         t_end=manufactured_steps * 0.01)
    res = simulate(build_case(config), config.dt, config.t_end)
    mok = all(r.bounds_ok for r in res.reports)
    ymin = min(r.y_min for r in res.reports)
    ymax = max(r.y_max for r in res.reports)
    lines.append(f"manufactured {manufactured_steps} steps: bounds_ok={mok}, "
                 f"y in [{ymin:.3e}, {ymax:.6f}]")
    ok = ok and mok and ymax <= 1.0
    cfg2 = make_config("sloshing", nx=14, ny=18, dt=0.02, t_end=sloshing_steps * 0.02)
    res2 = simulate(build_case(cfg2), cfg2.dt, cfg2.t_end)
    sok = all(r.bounds_ok for r in res2.reports)
    ymin2 = min(r.y_min for r in res2.reports)
    lines.append(f"sloshing {sloshing_steps} steps: bounds_ok={sok}, y_min={ymin2:.3e} "
                 f"(floor {res2.problem.y_floor:.0e})")
    ok = ok and sok
    return SuiteResult("bounds", ok, lines)


SUITES = {
    "bounds": suite_bounds,
    "conservation": suite_conservation,
    "entropy": suite_entropy,
    "pressure-work": suite_pressure_work,
    "drift-dissipation": suite_drift_dissipation,
    "interface": suite_interface,
    "flux-functions": suite_flux_functions,
}


def run_suite(name, seed=0):
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; available: {sorted(SUITES)}") from None
    return fn(seed=seed)
