"""Time-stepping driver and the convergence-study harness."""

import logging
import os
from dataclasses import dataclass, replace

import numpy as np

from .cases import build_case
from .config import make_config
from .diagnostics import build_step_report, initial_step_report
from .errors import DriftFluxError, InvariantViolation, SimulationError
from .fields import (State, admissibility_violation, discrete_l2_error_cell,
                     discrete_l2_error_velocity, face_density)
from .gas_fraction import correct_mass_fraction, drift_fluxes
from .io import dump_path, write_diagnostics_csv, write_vtk
from .linalg import NewtonSequence
from .mesh import volume_fluxes
from .momentum import MomentumAssembler, init_density_prediction, predict_velocity
from .pressure_correction import PressureCorrector, renormalize_pressure

log = logging.getLogger("driftflux")


@dataclass
class SimulationResult:
    problem: object
    state: State
    reports: list


def initial_state(problem, dt):
    """Density prediction (first-step compatibility) and the level-0 state.

    The given initial pressure is kept as data; the state law ties rho, p and
    z together only from the first correction step on.  The mass fraction is
    re-paired with the predicted fields, y^0 = z^0 / rho^0; the driver's guard
    checks this level like every other, and the initial density and gas
    density, which no guard sees as rho_prev, must be positive.
    """
    z_guess = problem.rho_init * problem.y_init
    why = admissibility_violation(problem.rho_init, z_guess, y_ceiling=False)
    if why:
        raise InvariantViolation(f"initial data: {why}")
    rho0, z0, fluxes = init_density_prediction(
        problem.mesh, problem.bc, problem.eos, problem.rho_init, problem.u_init,
        problem.p_init, z_guess, dt)
    return State(t=0.0, u=np.array(problem.u_init, dtype=float),
                 p=np.array(problem.p_init, dtype=float), rho=rho0, z=z0, y=z0 / rho0,
                 rho_prev=np.array(problem.rho_init, dtype=float), fluxes=fluxes,
                 rho_face=face_density(rho0, problem.geom),
                 rho_face_prev=face_density(problem.rho_init, problem.geom))


def advance(problem, state, dt, t_next, assembler, corrector, y_newton=None,
            renormalize=False):
    """One full scheme step, its y-correction a solve of the sequence
    ``y_newton``; returns (new state, u_tilde, correction result, p_used).
    Only the new level's face density is formed: rho^n's is carried on."""
    p_used = state.p
    if renormalize:
        p_used = renormalize_pressure(problem.mesh, problem.geom, state.p, state.rho_face,
                                      state.rho_face_prev)
    work = replace(state, p=p_used)
    u_tilde = predict_velocity(work, dt, assembler, problem.bc, t_next,
                               body_accel=problem.body_accel,
                               source=problem.momentum_source)
    corr = corrector.step(work, u_tilde, dt, t_next, y_ceiling=problem.y_ceiling)
    v_mean = volume_fluxes(problem.mesh, corr.u)[: problem.mesh.n_internal]
    G = drift_fluxes(problem.mesh, problem.eos, problem.drift,
                     corr.rho, corr.p, corr.z, v_mean)
    y_new = correct_mass_fraction(problem.mesh, corr.rho, corr.z, G, problem.flux_fn,
                                  problem.drift.diffusion, dt, newton=y_newton,
                                  source=problem.y_source, t=t_next,
                                  boundary_flux=problem.y_boundary_flux)
    new_state = State(t=t_next, u=corr.u, p=corr.p, rho=corr.rho, z=corr.z,
                      y=y_new, rho_prev=state.rho.copy(), fluxes=corr.fluxes,
                      rho_face=face_density(corr.rho, problem.geom),
                      rho_face_prev=state.rho_face)
    return new_state, u_tilde, corr, p_used


def _guard(state, problem):
    """The step report's ``bounds_ok``, True, when ``state`` lies in the one
    admissible set; raises :class:`InvariantViolation` otherwise."""
    why = admissibility_violation(state.rho, state.z, state.p, state.y,
                                  y_ceiling=problem.y_ceiling, y_floor=problem.y_floor)
    if why:
        raise InvariantViolation(why)
    return True


def steps(problem, dt, t_end, ncfg=None, renormalize=False):
    """Yield (state, report) for level 0, then for each scheme step up to t_end.

    The time loop of every run: every state, level 0 included, passes the
    driver's guard before it is yielded.  The run's pressure steps and its
    y-corrections are two :class:`~driftflux.linalg.NewtonSequence`, both
    with the targets ``ncfg``: the corrector's drops its factor at each step,
    and the y sequence holds one LU for the whole run.
    """
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        log.warning("t_end %.6g is not a multiple of dt %.6g; running %d steps",
                    t_end, dt, n_steps)
    assembler = MomentumAssembler(problem.mesh, problem.geom, problem.viscosity)
    corrector = PressureCorrector(problem.mesh, problem.geom, problem.eos, problem.bc, ncfg)
    y_newton = NewtonSequence(ncfg)
    state = initial_state(problem, dt)
    report = initial_step_report(problem.mesh, problem.geom, problem.eos, state, dt,
                                 _guard(state, problem))
    yield state, report
    for n in range(1, n_steps + 1):
        state, u_tilde, corr, p_used = advance(
            problem, state, dt, n * dt, assembler, corrector, y_newton, renormalize)
        report = build_step_report(n, report, state, u_tilde, dt, p_used, assembler,
                                   problem.eos, corr.newton_iters, _guard(state, problem))
        yield state, report


def simulate(problem, dt, t_end, ncfg=None, renormalize=False, out_dir=None,
             dump_interval=0):
    """Run the three-step scheme from t = 0 to t_end with constant dt."""
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    reports = []
    try:
        for state, report in steps(problem, dt, t_end, ncfg, renormalize):
            reports.append(report)
            if out_dir and dump_interval and report.step % dump_interval == 0:
                write_vtk(problem.mesh, state, problem.eos, dump_path(out_dir, report.step))
    except DriftFluxError as exc:
        if not reports:
            raise SimulationError(f"initialization failed: {exc}", step=0) from exc
        if out_dir:
            write_diagnostics_csv(reports, os.path.join(out_dir, "diagnostics.csv"),
                                  abort_note=f"step {len(reports)}: {exc}")
        raise SimulationError(f"aborted at step {len(reports)}: {exc}",
                              step=len(reports), reports=reports) from exc
    if out_dir:
        write_diagnostics_csv(reports, os.path.join(out_dir, "diagnostics.csv"))
        if dump_interval and report.step % dump_interval:
            write_vtk(problem.mesh, state, problem.eos, dump_path(out_dir, report.step))
    return SimulationResult(problem=problem, state=state, reports=reports)


def run_simulation(config):
    problem = build_case(config)
    return simulate(problem, config.dt, config.t_end,
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


def run_manufactured(n, dt, t_end=0.5, flux="flux_splitting"):
    config = make_config("manufactured", nx=n, ny=n, dt=dt, t_end=t_end, flux=flux)
    result = run_simulation(config)
    return manufactured_errors(result)


@dataclass
class ConvergenceStudy:
    meshes: list
    dts: list
    errors: dict  # (n, dt) -> (err_u, err_p, err_y) or None on failure

    def _error(self, variable, n, dt):
        errs = self.errors[(n, dt)]
        if errs is None:
            raise DriftFluxError(f"the manufactured run ({n}, {dt:g}) failed, "
                                 f"so its error is missing")
        return errs[{"u": 0, "p": 1, "y": 2}[variable]]

    def observed_order(self, variable, axis):
        """Least-squares slope of log(err) vs log(h) or log(dt)."""
        if axis == "space":
            pts = [(1.0 / n, self._error(variable, n, self.dts[0])) for n in self.meshes]
        else:
            n = self.meshes[0]
            pts = [(dt, self._error(variable, n, dt)) for dt in self.dts]
        x = np.log([p[0] for p in pts])
        y = np.log([p[1] for p in pts])
        return float(np.polyfit(x, y, 1)[0])


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
