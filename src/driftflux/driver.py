"""Time-stepping driver and the convergence-study harness."""

import logging
import os
from dataclasses import dataclass

import numpy as np

from .cases import build_case
from .config import make_config
from .diagnostics import build_step_report, initial_step_report
from .errors import DriftFluxError, InvariantViolation, SimulationError
from .fields import (State, admissibility_violation, discrete_l2_error_cell,
                     discrete_l2_error_velocity, face_density)
from .gas_fraction import correct_mass_fraction, drift_fluxes
from .io import dump_path, write_diagnostics_csv, write_vtk
from .linalg import NewtonConfig
from .mesh import volume_fluxes
from .momentum import MomentumAssembler, init_density_prediction, predict_velocity
from .pressure_correction import PressureCorrector, renormalize_pressure

log = logging.getLogger("driftflux")


@dataclass
class SimulationResult:
    problem: object
    state: State
    reports: list
    u_tilde: np.ndarray = None


def newton_config_from(config):
    return NewtonConfig(abs_tol=config.newton_abs_tol, rel_tol=config.newton_rel_tol,
                        max_iter=config.newton_max_iter)


def initial_state(problem, dt):
    """Density prediction (first-step compatibility) and the level-0 state.

    The given initial pressure is kept as data; the state law ties rho, p and
    z together only from the first correction step on.  The mass fraction is
    re-paired with the predicted fields (y^0 = z^0 / rho^0, which the shared
    transport operator keeps inside the initial range).
    """
    z_guess = problem.rho_init * problem.y_init
    rho0, z0, fluxes = init_density_prediction(
        problem.mesh, problem.bc, problem.eos, problem.rho_init, problem.u_init,
        problem.p_init, z_guess, dt)
    y0 = np.minimum(z0 / rho0, 1.0)
    return State(t=0.0, u=np.array(problem.u_init, dtype=float),
                 p=np.array(problem.p_init, dtype=float), rho=rho0,
                 z=z0, y=y0,
                 rho_prev=np.array(problem.rho_init, dtype=float), fluxes=fluxes)


def advance(problem, state, dt, t_next, assembler, corrector, ncfg,
            renormalize=False):
    """One full scheme step; returns (new state, u_tilde, correction result, p_used)."""
    p_used = state.p
    if renormalize:
        p_used = renormalize_pressure(
            problem.mesh, problem.geom, state.p,
            face_density(state.rho, problem.geom),
            face_density(state.rho_prev, problem.geom))
    work = state if p_used is state.p else _with_pressure(state, p_used)
    u_tilde = predict_velocity(work, dt, assembler, problem.bc, t_next,
                               body_accel=problem.body_accel,
                               source=problem.momentum_source)
    corr = corrector.step(work, u_tilde, dt, t_next, ncfg, p_old=p_used,
                          enforce_y_bound=problem.y_ceiling_guard)
    v_mean = volume_fluxes(problem.mesh, corr.u)[: problem.mesh.n_internal]
    G = drift_fluxes(problem.mesh, problem.eos, problem.drift,
                     corr.rho, corr.p, corr.z, v_mean)
    y_new = correct_mass_fraction(problem.mesh, problem.eos, corr.rho, corr.z, G,
                                  problem.flux_fn, problem.drift.diffusion, dt,
                                  ncfg, source=problem.y_source, t=t_next,
                                  boundary_flux=problem.y_boundary_flux)
    new_state = State(t=t_next, u=corr.u, p=corr.p, rho=corr.rho, z=corr.z,
                      y=y_new, rho_prev=state.rho.copy(), fluxes=corr.fluxes)
    return new_state, u_tilde, corr, p_used


def _with_pressure(state, p):
    s = state.copy()
    s.p = np.asarray(p, dtype=float)
    return s


def _guard(state, problem):
    why = admissibility_violation(state.rho, state.z, state.p, state.y,
                                  y_ceiling=problem.y_ceiling_guard)
    if why:
        raise InvariantViolation(why)


def simulate(problem, dt, t_end, ncfg=None, renormalize=False, out_dir=None,
             dump_interval=0, y_floor=None):
    """Run the three-step scheme from t = 0 to t_end with constant dt."""
    ncfg = ncfg or NewtonConfig()
    y_floor = problem.y_floor if y_floor is None else y_floor
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        log.warning("t_end %.6g is not a multiple of dt %.6g; running %d steps",
                    t_end, dt, n_steps)
    assembler = MomentumAssembler(problem.mesh, problem.geom, problem.viscosity)
    corrector = PressureCorrector(problem.mesh, problem.geom, problem.eos, problem.bc)
    try:
        state = initial_state(problem, dt)
    except DriftFluxError as exc:
        raise SimulationError(f"initialization failed: {exc}", step=0) from exc
    reports = [initial_step_report(problem.mesh, problem.geom, problem.eos, state,
                                   dt, y_floor, problem.y_ceiling_guard)]
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        if dump_interval:
            write_vtk(problem.mesh, state, problem.eos, dump_path(out_dir, 0))
    u_tilde = None
    try:
        for n in range(1, n_steps + 1):
            t_next = n * dt
            state_new, u_tilde, corr, p_used = advance(
                problem, state, dt, t_next, assembler, corrector, ncfg, renormalize)
            _guard(state_new, problem)
            mu_cells = problem.viscosity.cell_viscosity(state.rho)
            reports.append(build_step_report(
                n, problem.mesh, problem.geom, problem.eos, state, state_new,
                u_tilde, dt, p_used, mu_cells, problem.viscosity.constant_form,
                corr.newton_iters, corr.outer_iters, y_floor,
                problem.y_ceiling_guard))
            state = state_new
            if out_dir and dump_interval and n % dump_interval == 0:
                write_vtk(problem.mesh, state, problem.eos, dump_path(out_dir, n))
    except DriftFluxError as exc:
        if out_dir:
            write_diagnostics_csv(reports, os.path.join(out_dir, "diagnostics.csv"),
                                  abort_note=f"step {len(reports)}: {exc}")
        raise SimulationError(f"aborted at step {len(reports)}: {exc}",
                              step=len(reports), reports=reports) from exc
    if out_dir:
        write_diagnostics_csv(reports, os.path.join(out_dir, "diagnostics.csv"))
        if dump_interval:
            write_vtk(problem.mesh, state, problem.eos, dump_path(out_dir, n_steps))
    return SimulationResult(problem=problem, state=state, reports=reports,
                            u_tilde=u_tilde)


def run_simulation(config):
    problem = build_case(config)
    return simulate(problem, config.dt, config.t_end,
                    ncfg=newton_config_from(config),
                    renormalize=config.renormalize,
                    out_dir=config.out_dir or None,
                    dump_interval=config.dump_interval)


def manufactured_errors(result):
    """(err_u, err_p, err_y) of a manufactured run against the closed forms."""
    problem = result.problem
    sol = problem.exact
    t = result.state.t
    err_u = discrete_l2_error_velocity(
        result.state.u, lambda x: sol.velocity(x, t), problem.geom)
    err_p = discrete_l2_error_cell(
        result.state.p, lambda x: sol.pressure(x, t), problem.mesh)
    err_y = discrete_l2_error_cell(
        result.state.y, lambda x: sol.mass_fraction(x, t), problem.mesh)
    return err_u, err_p, err_y


def exact_injection_errors(n, t=0.5):
    """Harness self-test: sample the analytic fields, expect zero errors."""
    config = make_config("manufactured", nx=n, ny=n)
    problem = build_case(config)
    sol = problem.exact
    mesh, geom = problem.mesh, problem.geom
    rho, _, y, z, p = sol.eval(t, mesh.cell_centers)
    state = State(t=t, u=sol.velocity(mesh.face_midpoint, t), p=p, rho=rho, z=z,
                  y=y, rho_prev=rho, fluxes=np.zeros(mesh.n_faces))
    fake = SimulationResult(problem=problem, state=state, reports=[])
    return manufactured_errors(fake)


def run_manufactured(n, dt, t_end=0.5, flux="flux_splitting", ncfg=None):
    config = make_config("manufactured", nx=n, ny=n, dt=dt, t_end=t_end, flux=flux)
    result = run_simulation(config)
    return manufactured_errors(result)


@dataclass
class ConvergenceStudy:
    meshes: list
    dts: list
    errors: dict  # (n, dt) -> (err_u, err_p, err_y) or None on failure

    def observed_order(self, variable, axis):
        """Least-squares slope of log(err) vs log(h) or log(dt)."""
        idx = {"u": 0, "p": 1, "y": 2}[variable]
        if axis == "space":
            pts = [(1.0 / n, self.errors[(n, self.dts[0])][idx]) for n in self.meshes]
        else:
            n = self.meshes[0]
            pts = [(dt, self.errors[(n, dt)][idx]) for dt in self.dts]
        x = np.log([p[0] for p in pts])
        y = np.log([p[1] for p in pts])
        return float(np.polyfit(x, y, 1)[0])

    def ratio(self, variable, coarse, fine, dt=None):
        idx = {"u": 0, "p": 1, "y": 2}[variable]
        dt = dt if dt is not None else self.dts[0]
        return self.errors[(coarse, dt)][idx] / self.errors[(fine, dt)][idx]


def convergence_study(meshes, dts, t_end=0.5, flux="flux_splitting", matrix=False):
    """Error table of the manufactured case over meshes x time steps.

    With ``matrix=False`` only the combinations needed for the two observed
    orders are run: every mesh at dts[0] and every dt on meshes[0].
    """
    errors = {}
    pairs = [(n, dt) for n in meshes for dt in dts] if matrix else (
        [(n, dts[0]) for n in meshes] + [(meshes[0], dt) for dt in dts[1:]])
    for n, dt in pairs:
        log.info("manufactured run: %dx%d mesh, dt=%g", n, n, dt)
        try:
            errors[(n, dt)] = run_manufactured(n, dt, t_end, flux)
        except DriftFluxError as exc:
            log.error("run (%d, %g) failed: %s", n, dt, exc)
            errors[(n, dt)] = None
    return ConvergenceStudy(meshes=list(meshes), dts=list(dts), errors=errors)
