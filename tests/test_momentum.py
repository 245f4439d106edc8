import numpy as np
import pytest

import driftflux.momentum as momentum
from driftflux import eos as E
from driftflux.boundary import BoundaryConditions
from driftflux.cases import build_case
from driftflux.config import make_config
from driftflux.driver import initial_state
from driftflux.eos import EosParams
from driftflux.fields import State, face_density
from driftflux.mesh import build_diamond_geometry, build_uniform_mesh
from driftflux.momentum import (MomentumAssembler, ViscosityModel,
                                assemble_dual_mass_fluxes,
                                init_density_prediction, predict_velocity,
                                viscous_element_matrix)

E51 = EosParams(5.0, 1.0)


def wall_state(geom, rho, u=None, p=None, fluxes=None):
    mesh = geom.mesh
    M = mesh.n_cells
    return State(
        t=0.0,
        u=np.zeros((mesh.n_faces, 2)) if u is None else u,
        p=np.full(M, 1.0) if p is None else p,
        rho=np.asarray(rho, dtype=float),
        z=0.4 * np.asarray(rho, dtype=float),
        y=np.full(M, 0.4),
        rho_prev=np.asarray(rho, dtype=float).copy(),
        fluxes=np.zeros(mesh.n_faces) if fluxes is None else fluxes,
        rho_face=face_density(rho, geom), rho_face_prev=face_density(rho, geom),
    )


def corner_faces(mesh):
    """(out, in) global face ids of every (cell, corner) sub-edge flux."""
    return (mesh.cell_faces[:, momentum._CORNER_OUT],
            mesh.cell_faces[:, momentum._CORNER_IN])


def diamond_balance(dual, mesh):
    """Sum of outgoing sub-edge fluxes of ``dual`` per face diamond (all faces)."""
    out_face, in_face = corner_faces(mesh)
    out = np.zeros(mesh.n_faces)
    np.add.at(out, out_face.ravel(), dual.ravel())
    np.add.at(out, in_face.ravel(), -dual.ravel())
    return out


def test_dual_fluxes_zero():
    m = build_uniform_mesh(3, 3, 1.0, 1.0)
    dual = assemble_dual_mass_fluxes(m, np.zeros(m.n_faces))
    assert dual.shape == (m.n_cells, 4)
    assert np.all(dual == 0.0)


def test_dual_fluxes_uniform_flow_exact_integrals():
    """Constant rho*u = (c, 0): sub-edge fluxes are the field's exact integrals."""
    c = 0.7
    m = build_uniform_mesh(2, 2, 1.0, 1.0)
    fluxes = np.zeros(m.n_faces)
    # F_{sigma,K} = |s| (c,0) . n_outward-of-K for every face
    fluxes[: m.n_internal] = m.edge_measure * c * m.edge_normal[:, 0]
    b = slice(m.n_internal, m.n_faces)
    fluxes[b] = m.face_measure[b] * c * m.face_normal[b][:, 0]
    dual = assemble_dual_mass_fluxes(m, fluxes)
    # exact flux of (c,0) across a sub-edge from center to corner (dx/2, dy/2)
    # with ccw normal is -c*dy/2 for NE/NW and +c*dy/2 for SW/SE
    expect = np.array([-1, -1, 1, 1]) * c * m.dy / 2
    assert np.allclose(dual, expect[None, :])
    # steady constant density: every diamond balance closes (boundary faces
    # carry their own primal flux)
    bal = diamond_balance(dual, m)
    bal[m.n_internal:] += fluxes[m.n_internal:]
    assert np.max(np.abs(bal)) < 1e-14


def test_dual_balance_after_upwind_mass_step():
    """Mass balance carries over to the diamonds for transported density."""
    rng = np.random.default_rng(2)
    m = build_uniform_mesh(5, 4, 1.0, 1.0)
    g = build_diamond_geometry(m)
    eos = E51
    bc = BoundaryConditions()
    rho_prev = rng.uniform(0.5, 3.0, m.n_cells)
    u = np.zeros((m.n_faces, 2))
    u[: m.n_internal] = rng.uniform(-0.5, 0.5, (m.n_internal, 2))
    dt = 0.05
    rho0, z0, fluxes = init_density_prediction(
        m, bc, eos, rho_prev, u, np.full(m.n_cells, 1.0),
        0.4 * rho_prev, dt)
    dual = assemble_dual_mass_fluxes(m, fluxes)
    bal = diamond_balance(dual, m)
    # boundary half-diamonds close with the boundary primal flux (walls: zero)
    bal[m.n_internal:] += fluxes[m.n_internal:]
    resid = g.face_lump / dt * (face_density(rho0, g) - face_density(rho_prev, g)) + bal
    scale = max(1.0, float(np.max(np.abs(fluxes))))
    assert np.max(np.abs(resid)) < 1e-10 * scale


def test_dual_flux_antisymmetry_structure():
    m = build_uniform_mesh(3, 2, 1.0, 1.0)
    rng = np.random.default_rng(4)
    fluxes = rng.normal(size=m.n_faces)
    dual = assemble_dual_mass_fluxes(m, fluxes)
    # the same physical sub-edge flux enters out_face positively and in_face
    # negatively by construction; verify both tables address the same faces
    out_face, in_face = corner_faces(m)
    assert out_face.shape == in_face.shape == dual.shape
    assert np.all(out_face != in_face)


def viscous_element_oracle(dx, dy, constant_model):
    """The element matrix written entry by entry, local dof l = 2*face + component."""
    G = momentum.gradient_tensor(dx, dy)
    lap = np.einsum("fhaa->fh", G)
    A = np.zeros((8, 8))
    for fr in range(4):
        for ir in range(2):
            for fc in range(4):
                for ic in range(2):
                    if constant_model:
                        val = (ir == ic) * lap[fc, fr] + G[fc, fr, ic, ir] / 3.0
                    else:
                        val = (ir == ic) * lap[fc, fr] + G[fc, fr, ir, ic] \
                            - 2.0 / 3.0 * G[fc, fr, ic, ir]
                    A[2 * fr + ir, 2 * fc + ic] = val
    return A


@pytest.mark.parametrize("constant", [True, False])
def test_viscous_element_matrix_matches_entrywise_oracle(constant):
    for dx, dy in [(1.0, 1.0), (0.1, 0.2), (1 / 70, 1 / 90), (1 / 3, 0.7), (2.0, 1e-3)]:
        assert np.array_equal(viscous_element_matrix(dx, dy, constant),
                              viscous_element_oracle(dx, dy, constant))


@pytest.mark.parametrize("constant", [True, False])
def test_viscous_form_properties(constant):
    m = build_uniform_mesh(4, 3, 1.0, 1.0)
    model = ViscosityModel("constant" if constant else "density_scaled")
    viscous_form = MomentumAssembler(m, build_diamond_geometry(m), model).viscous_form
    assert model.constant_form == constant
    mu = np.full(m.n_cells, 0.7)
    rng = np.random.default_rng(6)
    w = rng.normal(size=(m.n_faces, 2))
    assert viscous_form(np.zeros_like(w), w, mu) == 0.0
    for _ in range(100):
        v = rng.normal(size=(m.n_faces, 2))
        assert viscous_form(v, v, mu) >= -1e-14
    # rigid translation: gradients vanish elementwise
    const = np.tile(np.array([1.3, -0.4]), (m.n_faces, 1))
    assert abs(viscous_form(const, const, mu)) < 1e-12
    # bilinearity
    a = rng.normal(size=(m.n_faces, 2))
    b = rng.normal(size=(m.n_faces, 2))
    lhs = viscous_form(a + 2 * b, w, mu)
    rhs = viscous_form(a, w, mu) + 2 * viscous_form(b, w, mu)
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("constant", [True, False])
def test_viscous_form_matches_per_cell_sum(constant):
    """a_d(u, w) = sum over cells of mu_c w_c^T E u_c, with the element vector of
    a cell ordered (face 0 x, face 0 y, face 1 x, ...) along its cell_faces."""
    m = build_uniform_mesh(5, 3, 1.0, 0.6)
    model = ViscosityModel("constant" if constant else "density_scaled")
    viscous_form = MomentumAssembler(m, build_diamond_geometry(m), model).viscous_form
    element = viscous_element_matrix(m.dx, m.dy, constant)
    rng = np.random.default_rng(8)
    u, w = rng.normal(size=(2, m.n_faces, 2))
    mu = rng.uniform(0.1, 2.0, m.n_cells)
    expect = sum(mu[c] * w[m.cell_faces[c]].ravel() @ element @ u[m.cell_faces[c]].ravel()
                 for c in range(m.n_cells))
    assert viscous_form(u, w, mu) == pytest.approx(expect, rel=1e-13)


def test_predict_velocity_zero_state():
    m = build_uniform_mesh(4, 4, 1.0, 1.0)
    g = build_diamond_geometry(m)
    state = wall_state(g, np.full(m.n_cells, 2.0))
    asm = MomentumAssembler(m, g, ViscosityModel("constant", mu=1e-2))
    u = predict_velocity(state, 0.1, asm, BoundaryConditions(), 0.1)
    assert np.max(np.abs(u)) < 1e-13


def test_predict_velocity_preserves_constant_state():
    config = make_config("interface", nx=20, ny=4)
    problem = build_case(config)
    state = initial_state(problem, config.dt)
    asm = MomentumAssembler(problem.mesh, problem.geom, problem.viscosity)
    u = predict_velocity(state, config.dt, asm, problem.bc, config.dt)
    assert np.max(np.abs(u - problem.u_init[0])) < 1e-12


def test_predicted_velocity_solves_momentum_system():
    """The discrete momentum residual vanishes at the returned solution."""
    config = make_config("manufactured", nx=8, ny=8, dt=0.02)
    problem = build_case(config)
    state = initial_state(problem, config.dt)
    asm = MomentumAssembler(problem.mesh, problem.geom, problem.viscosity)
    dual = assemble_dual_mass_fluxes(problem.mesh, state.fluxes)
    mu = problem.viscosity.cell_viscosity(state.rho)
    A, b = asm.assemble(state.rho_face, state.rho_face_prev, state.u, dual, state.p,
                        config.dt, mu,
                        source=problem.momentum_source, t=config.dt, bc=problem.bc)
    u = predict_velocity(state, config.dt, asm, problem.bc, config.dt,
                         source=problem.momentum_source)
    resid = A @ u.reshape(-1) - b
    scale = max(1.0, float(np.max(np.abs(b))))
    assert np.max(np.abs(resid)) < 1e-11 * scale


def test_init_density_prediction_zero_velocity():
    m = build_uniform_mesh(3, 3, 1.0, 1.0)
    rho = np.linspace(1.0, 2.0, m.n_cells)
    rho0, z0, F = init_density_prediction(
        m, BoundaryConditions(), E51, rho, np.zeros((m.n_faces, 2)),
        np.ones(m.n_cells), 0.4 * rho, 0.1)
    assert np.allclose(rho0, rho)
    assert np.allclose(z0, 0.4 * rho)
    assert np.all(F == 0.0)


def test_init_density_prediction_divergence_free():
    m = build_uniform_mesh(2, 2, 1.0, 1.0)
    u = np.zeros((m.n_faces, 2))
    s = 0.8  # discrete vortex: flux sums vanish per cell
    u[0] = (s, 0.0)   # x-edge j=0
    u[1] = (-s, 0.0)  # x-edge j=1
    u[2] = (0.0, -s)  # y-edge i=0
    u[3] = (0.0, s)   # y-edge i=1
    rho = np.full(4, 1.7)
    rho0, z0, F = init_density_prediction(
        m, BoundaryConditions(), E51, rho, u, np.ones(4), 0.4 * rho, 0.05)
    assert np.allclose(rho0, rho, rtol=1e-13)


def test_init_density_prediction_two_cell_oracle():
    m = build_uniform_mesh(2, 1, 1.0, 1.0)
    u = np.zeros((m.n_faces, 2))
    u[0] = (1.0, 0.0)
    rho = np.array([1.0, 2.0])
    rho0, z0, F = init_density_prediction(
        m, BoundaryConditions(), E51, rho, u, np.ones(2), 0.4 * rho, 0.25)
    assert rho0 == pytest.approx([2.0 / 3.0, 7.0 / 3.0])
    assert F[0] == pytest.approx(2.0 / 3.0)


def test_viscosity_models():
    rho = np.array([1.0, 2.0])
    assert np.allclose(ViscosityModel("constant", mu=0.3).cell_viscosity(rho), 0.3)
    assert np.allclose(ViscosityModel("density_scaled", c=100.0).cell_viscosity(rho),
                       [0.01, 0.02])
    with pytest.raises(ValueError):
        ViscosityModel("weird").cell_viscosity(rho)
