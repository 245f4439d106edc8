import dataclasses

import numpy as np
import pytest

from driftflux import diagnostics as D
from driftflux import eos as E
from driftflux.driver import simulate
from driftflux.eos import EosParams
from driftflux.errors import InvariantViolation
from driftflux.fields import State, face_density
from driftflux.gas_fraction import FLUX_FUNCTIONS, DriftModel, correct_mass_fraction, drift_fluxes
from driftflux.mesh import build_diamond_geometry, build_uniform_mesh
from driftflux.verification import drift_instance, pressure_work_instance, random_wall_problem

E51 = EosParams(5.0, 1.0)


def test_conservation_report_uniform():
    m = build_uniform_mesh(3, 3, 1.0, 1.0)
    g = build_diamond_geometry(m)
    rho = np.full(m.n_cells, 2.0)
    rf = face_density(rho, g)
    state = State(t=0.0, u=np.zeros((m.n_faces, 2)), p=np.ones(m.n_cells),
                  rho=rho, z=0.5 * rho, y=np.full(m.n_cells, 0.5),
                  rho_prev=rho.copy(), fluxes=np.zeros(m.n_faces), rho_face=rf, rho_face_prev=rf)
    mass, gas, mom = D.conservation_report(state, m, g)
    assert mass == pytest.approx(2.0)
    assert gas == pytest.approx(1.0)
    assert np.allclose(mom, 0.0)


def test_conservation_report_momentum_sum():
    m = build_uniform_mesh(2, 2, 1.0, 1.0)
    g = build_diamond_geometry(m)
    rho = np.array([1.0, 2.0, 3.0, 4.0])
    u = np.zeros((m.n_faces, 2))
    u[: m.n_internal] = [[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [0.0, -1.0]]
    rf = face_density(rho, g)
    state = State(t=0.0, u=u, p=np.ones(4), rho=rho, z=0.5 * rho, y=np.full(4, 0.5),
                  rho_prev=rho.copy(), fluxes=np.zeros(m.n_faces), rho_face=rf, rho_face_prev=rf)
    _, _, mom = D.conservation_report(state, m, g)
    brute = sum(g.diamond[e] * rf[e] * u[e] for e in range(m.n_internal))
    assert np.allclose(mom, brute)


def test_pressure_work_inequality_randomized():
    rng = np.random.default_rng(51)
    dt = 0.1
    for _ in range(200):
        mesh, rs, zs, rho, z, v = pressure_work_instance(rng, E51, dt)
        margin = D.pressure_work_inequality_check(mesh, E51, rho, rs, z, zs, v, dt)
        assert margin >= -1e-12 * max(1.0, abs(margin))


def test_pressure_work_zero_velocity():
    m = build_uniform_mesh(2, 2, 1.0, 1.0)
    rho = np.array([1.0, 1.5, 2.0, 2.5])
    z = 0.4 * rho
    margin = D.pressure_work_inequality_check(m, E51, rho, rho, z, z,
                                              np.zeros(m.n_internal), 0.1)
    assert margin == pytest.approx(0.0, abs=1e-14)


def test_pressure_work_rejects_inconsistent_inputs():
    m = build_uniform_mesh(2, 1, 1.0, 1.0)
    with pytest.raises(InvariantViolation):
        D.pressure_work_inequality_check(
            m, E51, np.array([1.0, 2.0]), np.array([1.5, 1.5]),
            np.array([0.4, 0.4]), np.array([0.4, 0.4]), np.array([1.0]), 0.1)


def test_segment_point_random_pairs():
    rng = np.random.default_rng(53)
    for _ in range(200):
        p1, y1 = rng.uniform(0.3, 3.0), rng.uniform(0.05, 0.95)
        p2, y2 = rng.uniform(0.3, 3.0), rng.uniform(0.05, 0.95)
        r1 = float(E.rho_from_py(p1, y1, E51))
        r2 = float(E.rho_from_py(p2, y2, E51))
        zeta, T, res = D.segment_point_check(E51, (r1, r1 * y1), (r2, r2 * y2))
        assert -1e-12 <= zeta <= 1 + 1e-12
        assert T >= -1e-14
        assert abs(res) <= 1e-10
        # swapping the endpoints keeps T nonnegative
        zeta2, T2, _ = D.segment_point_check(E51, (r2, r2 * y2), (r1, r1 * y1))
        assert T2 >= -1e-14


def test_segment_point_affine_direction():
    """Along a constant-pressure segment f is affine: any zeta works, T = 0."""
    a = np.array([1.0, 4.0 / 9.0])
    t = 0.1
    b = a + t * np.array([1.0 - 5.0, 4.0 / 9.0])  # kernel direction of the Hessian
    assert E.p_from_rho_z(b[0], b[1], E51) == pytest.approx(
        E.p_from_rho_z(a[0], a[1], E51), rel=1e-12)
    zeta, T, res = D.segment_point_check(E51, a, b)
    assert zeta == pytest.approx(0.5)
    assert T == 0.0
    assert abs(res) < 1e-12


def test_drift_dissipation_uniform_pressure():
    m = build_uniform_mesh(3, 3, 1.0, 1.0)
    rng = np.random.default_rng(55)
    yv = rng.uniform(0.2, 0.8, m.n_cells)
    p = np.full(m.n_cells, 1.3)
    rho = E.rho_from_py(p, yv, E51)
    z = rho * yv
    G = drift_fluxes(m, E51, DriftModel("darcy", lam=1.0), rho, p, z,
                     rng.uniform(-1, 1, m.n_internal))
    assert np.all(G == 0.0)
    y_new = correct_mass_fraction(m, rho, z, G, FLUX_FUNCTIONS["godunov"], 0.0, 0.05)
    margin, t2 = D.drift_dissipation_check(m, E51, rho, z, y_new, p, G,
                                           FLUX_FUNCTIONS["godunov"], 0.05)
    assert margin == pytest.approx(0.0, abs=1e-12)
    assert t2 == pytest.approx(0.0, abs=1e-14)


def test_drift_dissipation_randomized():
    rng = np.random.default_rng(57)
    god = FLUX_FUNCTIONS["godunov"]
    for _ in range(50):
        mesh, rho, z, p, G = drift_instance(rng, E51)
        y_new = correct_mass_fraction(mesh, rho, z, G, god, 0.0, 0.05)
        margin, t2 = D.drift_dissipation_check(mesh, E51, rho, z, y_new, p, G, god, 0.05)
        assert margin >= -1e-10 * max(1.0, abs(margin))
        assert t2 >= -1e-12 * max(1.0, abs(t2))


def test_quiescent_entropy_margin_zero():
    from driftflux.cases import build_case
    from driftflux.config import make_config

    config = make_config("uniform", nx=3, ny=3, dt=0.05, t_end=0.25)
    res = simulate(build_case(config), config.dt, config.t_end)
    for rep in res.reports[1:]:
        assert abs(rep.entropy_margin) < 1e-12 * D.entropy_scale(rep)


def _slip_box(rng, nx, ny, slip_sides):
    """A closed box of :func:`random_wall_problem`'s state law, viscosity and
    cell data, with ``slip_sides`` slip and velocities up to 1: every internal
    component and the tangential one of every slip face."""
    mesh = build_uniform_mesh(nx, ny, 1.0, 1.0, tags={s: "slip" for s in slip_sides})
    problem = random_wall_problem(rng, nx, ny)
    u = rng.uniform(-1.0, 1.0, (mesh.n_faces, 2))
    bnd = np.arange(mesh.n_internal, mesh.n_faces)
    u[bnd, mesh.face_axis[bnd]] = 0.0
    u[bnd[mesh.boundary_tags == "wall"]] = 0.0
    return dataclasses.replace(problem, mesh=mesh, geom=build_diamond_geometry(mesh), u_init=u)


@pytest.mark.parametrize("shape", [(4, 4), (6, 3)])
@pytest.mark.parametrize("slip_sides", [("left", "right", "bottom", "top"), ("left", "right")],
                         ids=["all-slip", "left-right-slip"])
def test_slip_box_entropy_inequality(shape, slip_sides):
    """The per-step entropy inequality holds with slip sides: their tangential
    dofs keep their Galerkin rows, so the step's energy identity tests every
    velocity unknown, and the report books them.  Closed boxes with no drift
    and no body force, mu = 1e-2, 3 seeds, 10 steps at each dt."""
    for seed in range(3):
        for dt in (0.05, 0.2):
            problem = _slip_box(np.random.default_rng(seed), *shape, slip_sides)
            res = simulate(problem, dt=dt, t_end=10 * dt)
            assert len(res.reports) == 11 and all(r.bounds_ok for r in res.reports)
            worst = min(r.entropy_margin / D.entropy_scale(r) for r in res.reports[1:])
            assert worst >= -1e-10, (seed, dt, worst)
