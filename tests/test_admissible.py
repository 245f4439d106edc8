"""The one admissible set: each site that checks it keeps its decision at
the boundary of the set."""

from types import SimpleNamespace

import numpy as np
import pytest

from driftflux import eos as E
from driftflux.boundary import BoundaryConditions
from driftflux.diagnostics import bounds_ok
from driftflux.driver import _guard
from driftflux.eos import EosParams
from driftflux.errors import InvariantViolation
from driftflux.fields import State
from driftflux.gas_fraction import FLUX_FUNCTIONS, correct_mass_fraction
from driftflux.linalg import NewtonResult
from driftflux.mesh import build_diamond_geometry, build_uniform_mesh
from driftflux.pressure_correction import PressureCorrector

E51 = EosParams(5.0, 1.0)
MESH = build_uniform_mesh(2, 1, 1.0, 1.0)


def _state(y, rho=1.0, p=1.0, z=None):
    y = np.full(2, y, dtype=float)
    rho = np.full(2, rho, dtype=float)
    z = rho * y if z is None else np.full(2, z, dtype=float)
    return State(t=0.0, u=np.zeros((MESH.n_faces, 2)), p=np.full(2, p, dtype=float),
                 rho=rho, z=z, y=y, rho_prev=rho, fluxes=np.zeros(MESH.n_faces))


def _guard_accepts(state, ceiling=True):
    try:
        _guard(state, SimpleNamespace(y_ceiling_guard=ceiling))
    except InvariantViolation:
        return False
    return True


def _y_correction_accepts(rho, z, source=None):
    try:
        correct_mass_fraction(MESH, E51, np.full(2, rho), np.full(2, z), np.zeros(1),
                              FLUX_FUNCTIONS["flux_splitting"], 0.0, 0.1, source=source)
    except InvariantViolation:
        return False
    return True


def test_step_guard_y_ceiling_slack():
    assert _guard_accepts(_state(1.0 + 1e-11))
    assert not _guard_accepts(_state(1.0 + 2e-11))
    assert _guard_accepts(_state(1.5), ceiling=False)


def test_y_correction_ceiling_slack():
    assert _y_correction_accepts(1.0, 1.0 + 1e-11)
    assert not _y_correction_accepts(1.0, 1.0 + 2e-11)
    # a manufactured source lifts the ceiling
    assert _y_correction_accepts(1.0, 1.5, source=lambda x, t: np.zeros(len(x)))


def test_bounds_ok_has_no_ceiling_slack():
    assert bounds_ok(_state(1.0))
    assert not bounds_ok(_state(1.0 + 1e-15))
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


def _pressure_step_end(monkeypatch, p, z, enforce_y_bound=True):
    """Run one correction step whose Newton solve returns (p, z) in every cell."""
    geom = build_diamond_geometry(MESH)
    corrector = PressureCorrector(MESH, geom, E51, BoundaryConditions())
    x = np.concatenate([np.full(2, p), np.full(2, z)])
    monkeypatch.setattr("driftflux.pressure_correction.newton_solve",
                        lambda *args, **kw: NewtonResult(x=x, iterations=1, residual_norm=0.0))
    state = _state(0.5, rho=E.rho_from_py(1.0, 0.5, E51))
    return corrector.step(state, state.u, 0.1, 0.1, enforce_y_bound=enforce_y_bound)


def test_pressure_step_checks_end_state(monkeypatch):
    res = _pressure_step_end(monkeypatch, 1.0, 0.5)
    assert np.all(res.z / res.rho <= 1.0)
    # z = 1 and p = 5 / (5 + d) give y = z / rho = 1 + d on this state law
    for d, accepted in ((1e-12, True), (1e-9, False)):
        p = 5.0 / (5.0 + d)
        if accepted:
            _pressure_step_end(monkeypatch, p, 1.0)
        else:
            with pytest.raises(InvariantViolation):
                _pressure_step_end(monkeypatch, p, 1.0)
            _pressure_step_end(monkeypatch, p, 1.0, enforce_y_bound=False)
    # rho < 0 (p small), z <= 0, p <= 0
    for p, z in ((0.5, 1.0), (1.0, 0.0), (1.0, -0.1), (0.0, 0.5), (-1.0, 0.5)):
        with pytest.raises(InvariantViolation):
            _pressure_step_end(monkeypatch, p, z, enforce_y_bound=False)
