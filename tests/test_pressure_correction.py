import inspect

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp

from driftflux import eos as E
from driftflux.boundary import BoundaryConditions
from driftflux.cases import build_case
from driftflux.config import make_config
from driftflux.driver import initial_state
from driftflux.eos import EosParams
from driftflux.fields import State, face_density, pressure_seminorm
from driftflux.linalg import NewtonConfig
from driftflux.mesh import (build_diamond_geometry, build_uniform_mesh, inlet_split,
                            upwind, upwind_fluxes, volume_fluxes)
from driftflux.momentum import MomentumAssembler, predict_velocity
from driftflux.pressure_correction import (PressureCorrector,
                                           assemble_pressure_operator,
                                           renormalize_pressure)

E51 = EosParams(5.0, 1.0)


def dense(A):
    """The entries of a pattern fill: an ndarray up to DENSE_MAX unknowns,
    a sparse matrix above."""
    return A.toarray() if sp.issparse(A) else A


def test_operator_kernel_contains_constants():
    m = build_uniform_mesh(4, 3, 1.0, 1.0)
    g = build_diamond_geometry(m)
    L = assemble_pressure_operator(m, g, np.full(m.n_internal, 1.3),
                                   np.full(m.n_internal, 0.9))[:-1, :-1]
    assert np.max(np.abs(L @ np.full(m.n_cells, 4.2))) < 1e-13


def test_operator_two_cell_values():
    m = build_uniform_mesh(2, 1, 1.0, 1.0)
    g = build_diamond_geometry(m)
    L = assemble_pressure_operator(m, g, np.ones(1), np.ones(1))[:-1, :-1]
    out = L @ np.array([1.0, 0.0])
    # |s|^2 / |D| = 1 / 0.25 = 4
    assert out == pytest.approx([4.0, -4.0])


def test_operator_quadratic_form_matches_seminorm():
    m = build_uniform_mesh(5, 5, 1.0, 1.0)
    g = build_diamond_geometry(m)
    rng = np.random.default_rng(23)
    rho_f = rng.uniform(0.5, 2.0, m.n_internal)
    rho_up = rng.uniform(0.5, 2.0, m.n_internal)
    p = rng.normal(size=m.n_cells)
    L = assemble_pressure_operator(m, g, rho_f, rho_up)[:-1, :-1]
    quad = float(p @ (L @ p))
    semi = pressure_seminorm(p, rho_f / rho_up, g)
    assert quad == pytest.approx(semi, rel=1e-12)


def _uniform_problem(nx=4, ny=4):
    config = make_config("uniform", nx=nx, ny=ny, dt=0.05)
    return build_case(config), config


def test_uniform_state_is_fixed_point():
    problem, config = _uniform_problem()
    state = initial_state(problem, config.dt)
    asm = MomentumAssembler(problem.mesh, problem.geom, problem.viscosity)
    corr = PressureCorrector(problem.mesh, problem.geom, problem.eos, problem.bc)
    ut = predict_velocity(state, config.dt, asm, problem.bc, config.dt)
    res = corr.step(state, ut, config.dt, config.dt)
    assert np.max(np.abs(res.p - state.p)) < 1e-11
    assert np.max(np.abs(res.u)) < 1e-12
    assert np.max(np.abs(res.z - state.z)) < 1e-11


def test_interface_step_preserves_pressure_and_velocity():
    config = make_config("interface", nx=20, ny=4)
    problem = build_case(config)
    state = initial_state(problem, config.dt)
    asm = MomentumAssembler(problem.mesh, problem.geom, problem.viscosity)
    corr = PressureCorrector(problem.mesh, problem.geom, problem.eos, problem.bc,
                             NewtonConfig(abs_tol=1e-13, rel_tol=1e-13))
    ut = predict_velocity(state, config.dt, asm, problem.bc, config.dt)
    res = corr.step(state, ut, config.dt, config.dt)
    p0 = problem.p_init[0]
    assert np.max(np.abs(res.p - p0)) <= 1e-9 * p0
    assert np.max(np.abs(res.u - problem.u_init[0])) <= 1e-9
    # while z genuinely advances
    assert np.max(np.abs(res.z - state.z)) > 1e-3


def test_two_cell_against_dense_fsolve_oracle():
    m = build_uniform_mesh(2, 1, 1.0, 1.0)
    g = build_diamond_geometry(m)
    dt = 0.1
    rho_n = np.array([1.0, 1.2])
    y_n = np.array([0.4, 0.5])
    p_n = E.p_from_rho_z(rho_n, rho_n * y_n, E51)
    u = np.zeros((m.n_faces, 2))
    u[0] = (0.3, 0.0)
    rho_face = face_density(rho_n, g)
    state = State(t=0.0, u=u, p=p_n, rho=rho_n, z=rho_n * y_n, y=y_n,
                  rho_prev=rho_n.copy(), fluxes=np.zeros(m.n_faces),
                  rho_face=rho_face, rho_face_prev=rho_face)
    corr = PressureCorrector(m, g, E51, BoundaryConditions())
    res = corr.step(state, u, dt, dt)

    # independent dense residual solved by scipy's own Newton machinery
    vol_dt = m.cell_measure / dt
    c = dt * m.edge_measure[0] ** 2 / (g.diamond[0] * rho_face[0])
    v_t = m.edge_measure[0] * 0.3
    rhoy = rho_n * y_n

    def residual(x):
        p, z = x[:2], x[2:]
        rho = E.rho_from_pz(p, z, E51)
        v = v_t + c * ((p[0] - p_n[0]) - (p[1] - p_n[1]))
        up = 0 if v >= 0 else 1
        return [vol_dt * (rho[0] - rho_n[0]) + v * rho[up],
                vol_dt * (rho[1] - rho_n[1]) - v * rho[up],
                vol_dt * (z[0] - rhoy[0]) + v * z[up],
                vol_dt * (z[1] - rhoy[1]) - v * z[up]]

    sol = scipy.optimize.fsolve(residual, np.concatenate([p_n, rhoy]), full_output=False,
                                xtol=1e-13)
    assert np.max(np.abs(res.p - sol[:2])) < 1e-9
    assert np.max(np.abs(res.z - sol[2:])) < 1e-9
    assert np.all(res.rho > 0) and np.all(res.p > 0) and np.all(res.z > 0)


def _random_wall_step(seed=31, nx=4, ny=3, dt=0.05):
    from driftflux.verification import random_wall_problem

    rng = np.random.default_rng(seed)
    problem = random_wall_problem(rng, nx, ny)
    state = initial_state(problem, dt)
    asm = MomentumAssembler(problem.mesh, problem.geom, problem.viscosity)
    corr = PressureCorrector(problem.mesh, problem.geom, problem.eos, problem.bc)
    ut = predict_velocity(state, dt, asm, problem.bc, dt)
    return problem, state, corr.step(state, ut, dt, dt), dt


def test_step_conserves_mass_and_gas_mass():
    problem, state, res, dt = _random_wall_step()
    V = problem.mesh.cell_measure
    assert np.sum(V * res.rho) == pytest.approx(np.sum(V * state.rho), rel=1e-12)
    assert np.sum(V * res.z) == pytest.approx(np.sum(V * state.rho * state.y), rel=1e-12)


def test_step_bounds_and_maximum_principle():
    problem, state, res, dt = _random_wall_step(seed=37)
    y_new = res.z / res.rho
    assert np.all(res.rho > 0) and np.all(res.p > 0) and np.all(res.z > 0)
    assert np.all(y_new > 0) and np.all(y_new <= 1.0 + 1e-12)
    # gas fraction maximum principle
    assert np.min(y_new) >= np.min(state.y) - 1e-11
    assert np.max(y_new) <= np.max(state.y) + 1e-11
    # a-priori z bounds from the appendix lemma
    m = problem.mesh
    v = np.zeros(m.n_cells)
    vol = m.edge_measure * np.sum(res.u[: m.n_internal] * m.edge_normal, axis=1)
    np.add.at(v, m.edge_K, vol)
    np.add.at(v, m.edge_L, -vol)
    div_inf = max(0.0, float(np.max(v / m.cell_measure)))
    z_data = state.rho * state.y
    assert np.min(res.z) >= np.min(z_data) / (1.0 + dt * div_inf) - 1e-11
    assert np.max(res.z) <= np.sum(m.cell_measure * z_data) / m.cell_measure + 1e-11


def _step_closures():
    """(residual, jacobian, x0) of the first Newton solve of a manufactured
    5x5 pressure step, captured from a fresh PressureCorrector.step."""
    import driftflux.pressure_correction as pc

    config = make_config("manufactured", nx=5, ny=5, dt=0.05)
    problem = build_case(config)
    state = initial_state(problem, config.dt)
    asm = MomentumAssembler(problem.mesh, problem.geom, problem.viscosity)
    ut = predict_velocity(state, config.dt, asm, problem.bc, config.dt,
                          source=problem.momentum_source)
    corr = PressureCorrector(problem.mesh, problem.geom, problem.eos, problem.bc)
    captured = []
    orig = pc.newton_solve

    def spy(res, jac, x0, *args, **kwargs):
        captured.append((res, jac, x0))
        return orig(res, jac, x0, *args, **kwargs)

    pc.newton_solve = spy
    try:
        corr.step(state, ut, config.dt, config.dt)
    finally:
        pc.newton_solve = orig
    return captured[0]


def test_step_takes_no_inadmissible_or_worse_extrapolated_start(monkeypatch):
    """A corrector whose sequence extrapolates to z < 0 offers Newton no
    guess; one whose guess doubles p offers it, and Newton keeps the plain
    start, whose residual is smaller.  Both step bit-identically to a fresh
    corrector."""
    import driftflux.pressure_correction as pc

    config = make_config("manufactured", nx=5, ny=5, dt=0.05)
    problem = build_case(config)
    state = initial_state(problem, config.dt)
    asm = MomentumAssembler(problem.mesh, problem.geom, problem.viscosity)
    ut = predict_velocity(state, config.dt, asm, problem.bc, config.dt,
                          source=problem.momentum_source)
    guesses, results = [], []
    newton_solve = pc.newton_solve

    def spy(*args, **kwargs):
        solve = inspect.signature(newton_solve).bind(*args, **kwargs).arguments
        guesses.append(solve["newton"].guess(solve["x0"], solve["start_fn"]))
        results.append(newton_solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(pc, "newton_solve", spy)
    M = problem.mesh.n_cells

    def step(d):
        corr = PressureCorrector(problem.mesh, problem.geom, problem.eos, problem.bc)
        if d is not None:
            corr.newton.record(np.zeros(2 * M), np.zeros(2 * M))
            corr.newton.record(np.zeros(2 * M), d)
        return corr.step(state, ut, config.dt, config.dt)

    fresh = step(None)
    negative_z = np.concatenate([np.zeros(M), -state.rho * state.y])
    double_p = np.concatenate([0.5 * state.p, np.zeros(M)])
    for d in (negative_z, double_p):
        res = step(d)
        for name in ("p", "z", "rho", "u", "fluxes"):
            assert np.array_equal(getattr(res, name), getattr(fresh, name))
        assert res.newton_iters == fresh.newton_iters
        assert results[-1].residual_norm == results[0].residual_norm
    assert guesses[0] is None and guesses[1] is None
    assert np.all(guesses[2][:M] > 1.9 * state.p)


def test_jacobian_matches_finite_differences():
    res, jac, x0 = _step_closures()
    J = dense(jac(x0))
    n = x0.size
    Jfd = np.zeros_like(J)
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1e-6 * max(1.0, abs(x0[j]))
        Jfd[:, j] = (res(x0 + e) - res(x0 - e)) / (2 * e[j])
    mask = np.abs(Jfd) > 1e-6
    rel = np.abs(J - Jfd)[mask] / np.abs(Jfd)[mask]
    assert np.max(rel) < 1e-5


def test_jacobian_reuses_the_residuals_state_only_at_its_iterate(monkeypatch):
    """The Jacobian takes rho(p, z), the edge fluxes, their upwind cells and
    the inflow state from the residual's evaluation at the same iterate (the
    same array object) and recomputes them at any other; either way it
    equals a fresh closure's."""
    res, jac, x0 = _step_closures()
    _, jac_fresh, _ = _step_closures()
    rng = np.random.default_rng(43)
    x1, x2 = (x0 * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0, x0.size)) for _ in range(2))
    calls = []
    rho_from_pz = E.rho_from_pz
    monkeypatch.setattr(E, "rho_from_pz", lambda *a: calls.append(1) or rho_from_pz(*a))

    def same(A, B):
        return np.array_equal(dense(A), dense(B))

    res(x1)
    assert len(calls) == 1
    # at the residual's iterate only the fresh closure evaluates the state
    assert same(jac(x1), jac_fresh(x1.copy()))
    assert len(calls) == 2
    # at a copy of another iterate both do
    assert same(jac(x2.copy()), jac_fresh(x2.copy()))
    assert len(calls) == 4
    assert not same(jac(x1), jac(x2.copy()))


def test_renormalize_identity_when_densities_equal():
    m = build_uniform_mesh(3, 3, 1.0, 1.0)
    g = build_diamond_geometry(m)
    rng = np.random.default_rng(41)
    p = rng.uniform(0.5, 2.0, m.n_cells)
    rf = rng.uniform(0.5, 2.0, m.n_internal)
    p_t = renormalize_pressure(m, g, p, rf, rf)
    assert np.max(np.abs(p_t - p)) < 1e-10


def test_renormalize_constant_pressure():
    m = build_uniform_mesh(3, 3, 1.0, 1.0)
    g = build_diamond_geometry(m)
    rng = np.random.default_rng(43)
    p = np.full(m.n_cells, 1.7)
    p_t = renormalize_pressure(m, g, p, rng.uniform(0.5, 2.0, m.n_internal),
                               rng.uniform(0.5, 2.0, m.n_internal))
    assert np.max(np.abs(p_t - 1.7)) < 1e-12


def test_renormalize_seminorm_inequality_and_mean():
    m = build_uniform_mesh(3, 3, 1.0, 1.0)
    g = build_diamond_geometry(m)
    rng = np.random.default_rng(47)
    for _ in range(20):
        p = rng.uniform(0.5, 2.0, m.n_cells)
        rf_n = rng.uniform(0.5, 2.0, m.n_internal)
        rf_nm1 = rng.uniform(0.5, 2.0, m.n_internal)
        p_t = renormalize_pressure(m, g, p, rf_n, rf_nm1)
        lhs = pressure_seminorm(p_t, rf_n, g)
        rhs = pressure_seminorm(p, rf_nm1, g)
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-12
        assert np.sum(p_t) * m.cell_measure == pytest.approx(
            np.sum(p) * m.cell_measure, rel=1e-12)


def test_step_upwinds_edges_that_the_pressure_drives_across_zero(monkeypatch):
    """Edges with v_tilde = 0 start as ties (K upwind) and end with fluxes of
    both signs: the iterate's upwind pattern switches under Newton.  The
    solve converges to the unchanged target, and the returned fluxes are
    upwinded as the corrected velocity's volume fluxes say."""
    import driftflux.pressure_correction as pc

    rng = np.random.default_rng(53)
    m = build_uniform_mesh(6, 5, 1.2, 1.0)
    g = build_diamond_geometry(m)
    M, nint = m.n_cells, m.n_internal
    rho = rng.uniform(0.5, 2.0, M)
    y = rng.uniform(0.2, 0.6, M)
    p = E.p_from_rho_z(rho, rho * y, E51)
    rho_face = face_density(rho, g)
    state = State(t=0.0, u=np.zeros((m.n_faces, 2)), p=p, rho=rho, z=rho * y, y=y,
                  rho_prev=rho.copy(), fluxes=np.zeros(m.n_faces),
                  rho_face=rho_face, rho_face_prev=rho_face)
    u_tilde = np.zeros((m.n_faces, 2))
    u_tilde[:nint] = rng.normal(size=(nint, 2))
    still = rng.permutation(nint)[: nint // 2]
    u_tilde[still] = 0.0
    solves = []
    newton_solve = pc.newton_solve

    def spy(residual, jacobian, x0, newton, *args):
        solves.append((newton.cfg, args[-1], np.abs(residual(np.array(x0))).max(),
                       newton_solve(residual, jacobian, x0, newton, *args)))
        return solves[-1][3]

    monkeypatch.setattr(pc, "newton_solve", spy)
    cfg = NewtonConfig()
    corr = PressureCorrector(m, g, E51, BoundaryConditions(), cfg).step(state, u_tilde, 0.05,
                                                                        0.05)

    (solve_cfg, abs_scale, r0, res), = solves
    assert solve_cfg is cfg and abs_scale >= 1.0
    assert res.residual_norm <= cfg.abs_tol * abs_scale + cfg.rel_tol * r0
    assert corr.newton_iters == res.iterations <= 8

    v = volume_fluxes(m, corr.u)
    resolved = np.abs(v[:nint]) > 1e-12 * np.abs(v[:nint]).max()
    assert resolved[still].all()
    assert (v[still] > 0).any() and (v[still] < 0).any()
    expected = upwind_fluxes(m, v[:nint], upwind(m, v[:nint])[0],
                             inlet_split(m, v[nint:]), corr.rho, 0.0)  # walls: no inflow
    scale = np.abs(v).max() * corr.rho.max()
    assert np.abs(corr.fluxes - expected)[np.append(resolved, np.ones(m.n_boundary, bool))].max() \
        <= 1e-12 * scale


@pytest.mark.parametrize("flux", ["flux_splitting", "godunov"])
@pytest.mark.parametrize("case", ["sloshing", "random_box"])
def test_jacobian_mass_z_block_is_the_transport_times_drho_dz(case, flux, monkeypatch):
    """The structure the CPR preconditioner of :mod:`driftflux.linalg` relies
    on: in J = [[A, B], [C, D]], the (mass, z) block B equals D diag(w) with
    w = diag(B) / diag(D), which is d(rho)/dz, to roundoff in every entry, on
    every Jacobian of a few steps of sloshing 14x18 and of a 4x4 random box."""
    import dataclasses

    import driftflux.pressure_correction as pc
    from driftflux.driver import run_simulation, simulate
    from driftflux.gas_fraction import FLUX_FUNCTIONS
    from driftflux.verification import random_wall_problem

    jacobians = []
    newton_solve = pc.newton_solve

    def spy(residual, jacobian, *args, **kwargs):
        def recording(x):
            jacobians.append(jacobian(x))
            return jacobians[-1]

        return newton_solve(residual, recording, *args, **kwargs)

    monkeypatch.setattr(pc, "newton_solve", spy)
    if case == "sloshing":
        run_simulation(make_config("sloshing", nx=14, ny=18, dt=0.01, t_end=0.03, flux=flux))
    else:
        problem = random_wall_problem(np.random.default_rng(5))
        simulate(dataclasses.replace(problem, flux_fn=FLUX_FUNCTIONS[flux]), dt=0.05,
                 t_end=0.15)
    assert len(jacobians) >= 3
    for J in jacobians:
        M = J.shape[0] // 2
        B, D = dense(J[:M, M:]), dense(J[M:, M:])
        DW = D * (np.diag(B) / np.diag(D))
        assert np.all(np.abs(B - DW) <= 4 * np.finfo(float).eps * np.abs(DW))
