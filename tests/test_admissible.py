"""The one admissible set: each site that checks it keeps its decision at
the boundary of the set, with no slack above the y ceiling."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from driftflux import cases
from driftflux import eos as E
from driftflux.boundary import BoundaryConditions
from driftflux.cases import build_case
from driftflux.config import make_config
from driftflux.driver import _guard, run_simulation, simulate
from driftflux.eos import EosParams
from driftflux.errors import DriftFluxError, InvariantViolation, SimulationError
from driftflux.fields import State, admissibility_violation, face_density
from driftflux.gas_fraction import FLUX_FUNCTIONS, correct_mass_fraction
from driftflux.linalg import NewtonResult
from driftflux.mesh import build_diamond_geometry, build_uniform_mesh
from driftflux.pressure_correction import PressureCorrector
from driftflux.verification import random_wall_problem

E51 = EosParams(5.0, 1.0)
MESH = build_uniform_mesh(2, 1, 1.0, 1.0)
GEOM = build_diamond_geometry(MESH)
ONE_ULP_ABOVE_ONE = np.nextafter(1.0, 2.0)


def _state(y, rho=1.0, p=1.0, z=None):
    y = np.full(2, y, dtype=float)
    rho = np.full(2, rho, dtype=float)
    z = rho * y if z is None else np.full(2, z, dtype=float)
    rho_face = face_density(rho, GEOM)
    return State(t=0.0, u=np.zeros((MESH.n_faces, 2)), p=np.full(2, p, dtype=float),
                 rho=rho, z=z, y=y, rho_prev=rho, fluxes=np.zeros(MESH.n_faces),
                 rho_face=rho_face, rho_face_prev=rho_face)


def bounds_ok(state, y_floor=0.0, y_ceiling=True):
    """Whether ``state`` lies in the one admissible set, as the driver's guard
    decides it."""
    return admissibility_violation(state.rho, state.z, state.p, state.y, y_ceiling,
                                   y_floor) is None


def _guard_accepts(state, ceiling=True, y_floor=0.0):
    try:
        _guard(state, SimpleNamespace(y_ceiling=ceiling, y_floor=y_floor))
    except InvariantViolation:
        return False
    return True


def _y_correction_accepts(rho, z, source=None):
    """Whether a y-correction with drift, which runs Newton, takes (rho, z):
    Newton's admissible set is the one admissible set of y = z / rho."""
    try:
        with np.errstate(divide="ignore"):
            correct_mass_fraction(MESH, np.full(2, rho), np.full(2, z), np.array([0.1]),
                                  FLUX_FUNCTIONS["flux_splitting"], 0.0, 0.1, source=source)
    except DriftFluxError:
        return False
    return True


def test_step_guard_y_ceiling_slack():
    """The guard has no slack above y = 1: it rejects 1 ulp above it."""
    assert _guard_accepts(_state(1.0))
    assert not _guard_accepts(_state(ONE_ULP_ABOVE_ONE))
    assert not _guard_accepts(_state(1.0 + 1e-11))
    assert _guard_accepts(_state(1.5), ceiling=False)


def test_step_guard_y_floor_slack():
    floor = 1e-9
    assert _guard_accepts(_state(floor * (1.0 - 5e-13)), y_floor=floor)
    assert not _guard_accepts(_state(floor * (1.0 - 2e-12)), y_floor=floor)


def test_y_correction_ceiling_slack():
    """The y-correction takes z / rho = 1 and rejects 1 ulp above it."""
    assert _y_correction_accepts(1.0, 1.0)
    assert not _y_correction_accepts(1.0, ONE_ULP_ABOVE_ONE)
    assert not _y_correction_accepts(1.0, 1.0 + 1e-11)
    # a manufactured source lifts the ceiling
    assert _y_correction_accepts(1.0, 1.5, source=lambda x, t: np.zeros(len(x)))


def test_bounds_ok_has_no_ceiling_slack():
    assert bounds_ok(_state(1.0))
    assert not bounds_ok(_state(ONE_ULP_ABOVE_ONE))
    assert bounds_ok(_state(1.5), y_ceiling=False)


def test_bounds_ok_y_floor_slack():
    floor = 1e-9
    assert bounds_ok(_state(floor * (1.0 - 5e-13)), y_floor=floor)
    assert not bounds_ok(_state(floor * (1.0 - 2e-12)), y_floor=floor)


@pytest.mark.parametrize("field", ["rho", "p", "z"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_nonpositive_fields_rejected_by_guard_and_report(field, value):
    state = _state(0.5, **{field: value})
    assert not _guard_accepts(state, ceiling=False)
    assert not bounds_ok(state, y_ceiling=False)


@pytest.mark.parametrize("rho,z", [(0.0, 0.5), (-1.0, 0.5), (1.0, 0.0), (1.0, -0.5)])
def test_nonpositive_fields_rejected_by_y_correction(rho, z):
    assert not _y_correction_accepts(rho, z, source=lambda x, t: np.zeros(len(x)))


def _pressure_step_end(monkeypatch, p, z, y_ceiling=True):
    """Run one correction step whose Newton solve returns (p, z) in every cell."""
    corrector = PressureCorrector(MESH, GEOM, E51, BoundaryConditions())
    x = np.concatenate([np.full(2, p), np.full(2, z)])
    monkeypatch.setattr("driftflux.pressure_correction.newton_solve",
                        lambda *args, **kw: NewtonResult(x=x, iterations=1, residual_norm=0.0))
    state = _state(0.5, rho=E.rho_from_py(1.0, 0.5, E51))
    return corrector.step(state, state.u, 0.1, 0.1, y_ceiling=y_ceiling)


def test_pressure_step_checks_end_state(monkeypatch):
    res = _pressure_step_end(monkeypatch, 1.0, 0.5)
    assert np.all(res.z / res.rho <= 1.0)
    # z = 1 and p = 5 / (5 + d) give y = z / rho = 1 + d on this state law
    for d in (1e-12, 1e-9):
        p = 5.0 / (5.0 + d)
        with pytest.raises(InvariantViolation, match="y must stay at or below 1"):
            _pressure_step_end(monkeypatch, p, 1.0)
        _pressure_step_end(monkeypatch, p, 1.0, y_ceiling=False)
    # rho < 0 (p small), z <= 0, p <= 0; the state law divides by the stubbed
    # p = 0, which Newton's own admissibility test (p above a floor) never returns
    for p, z in ((0.5, 1.0), (1.0, 0.0), (1.0, -0.1), (0.0, 0.5), (-1.0, 0.5)):
        with pytest.raises(InvariantViolation), np.errstate(divide="ignore"):
            _pressure_step_end(monkeypatch, p, z, y_ceiling=False)


def test_pressure_step_ends_with_y_at_most_one_within_8_ulp(monkeypatch):
    """Where a^2 z exceeds p by at most 8 ulp, the step returns z with
    a^2 z <= p and z / rho <= 1 exactly; a 9-ulp excess is left as Newton
    left it, and the end check rejects its y above 1."""
    p = 1.0  # a^2 = 1 on E51, so a^2 z = z
    for ulps in range(9):
        z = p + ulps * np.spacing(p)
        res = _pressure_step_end(monkeypatch, p, z)
        assert np.all(E51.a2 * res.z <= res.p) and np.all(res.z / res.rho <= 1.0)
        assert np.all(res.z >= p - np.spacing(p))
    with pytest.raises(InvariantViolation, match="y must stay at or below 1"):
        _pressure_step_end(monkeypatch, p, p + 9 * np.spacing(p))


def test_level_0_above_the_y_ceiling_stops_the_run():
    """An initial y above 1 in one cell stops the run at level 0: the guard
    checks the level-0 state, unclamped, as it checks every stepped one."""
    problem = build_case(make_config("uniform", nx=3, ny=3, dt=0.05, t_end=0.1))
    y_init = problem.y_init.copy()
    y_init[4] = 1.5
    with pytest.raises(SimulationError,
                       match="initialization failed: y must stay at or below 1") as info:
        simulate(dataclasses.replace(problem, y_init=y_init), 0.05, 0.1)
    assert info.value.step == 0 and info.value.reports == []


@pytest.mark.parametrize("field,message", [("rho_init", "initial data: rho, p, z"),
                                           ("p_init", "rho, p, z")])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_nonpositive_initial_data_stops_the_run_at_level_0(field, message, value):
    """One nonpositive cell of the initial density or pressure stops the run
    at level 0 with a named error: the density is checked where the initial
    data are read, before any face density is formed, and the pressure by
    the level-0 guard, before any state law takes it."""
    problem = random_wall_problem(np.random.default_rng(5))
    data = getattr(problem, field).copy()
    data[6] = value
    with pytest.raises(SimulationError,
                       match=f"initialization failed: {message} must stay positive") as info:
        simulate(dataclasses.replace(problem, **{field: data}), 0.05, 0.1)
    assert info.value.step == 0 and info.value.reports == []


def test_negative_renormalized_pressure_stops_the_step(monkeypatch):
    """The renormalized pressure is the one pressure that no guard sees
    before a state law takes it: a negative cell of it stops the run at
    step 1, at the start check of the pressure step's Newton solve."""
    def renormalized(mesh, geom, p, *rho_faces):
        q = p.copy()
        q[6] = -1.0
        return q

    monkeypatch.setattr("driftflux.driver.renormalize_pressure", renormalized)
    problem = random_wall_problem(np.random.default_rng(5))
    with pytest.raises(SimulationError, match="aborted at step 1: initial Newton iterate "
                                              "is inadmissible") as info:
        simulate(problem, 0.05, 0.1, renormalize=True)
    assert info.value.step == 1


def test_gas_density_is_defined_only_inside_c():
    """rho_g = z rho_l / (z + rho_l - rho) is refused where its denominator
    is 0 (rho_g = +inf) or negative, and taken just above 0."""
    z = np.array([1.0])
    for rho in (6.0, 6.5):
        with pytest.raises(InvariantViolation, match="admissible convex set C"):
            E.gas_density_from_rho_z(np.array([rho]), z, E51)
    rg = E.gas_density_from_rho_z(np.array([np.nextafter(6.0, 0.0)]), z, E51)
    assert np.all(np.isfinite(rg)) and np.all(rg > 0)


def test_manufactured_under_godunov_needs_no_y_ceiling(monkeypatch):
    """The one input that needs ``Problem.y_ceiling`` off: the manufactured y
    source lifts y above 1 from step 70, every report in bounds; with the
    ceiling forced on, the same run stops there."""
    config = make_config("manufactured", nx=10, ny=10, dt=0.02, t_end=1.6, flux="godunov")
    reports = run_simulation(config).reports
    assert len(reports) == 81 and all(r.bounds_ok for r in reports)
    assert [r.y_max > 1.0 for r in reports].index(True) == 70
    assert max(r.y_max for r in reports) == pytest.approx(1.031, abs=5e-4)
    monkeypatch.setattr(cases.Problem, "y_ceiling", True)
    with pytest.raises(SimulationError, match="aborted at step 70: y must stay at or below 1"):
        run_simulation(config)
