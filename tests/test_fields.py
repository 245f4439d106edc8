import dataclasses

import numpy as np
import pytest

from driftflux import driver, fields
from driftflux.driver import simulate
from driftflux.errors import SimulationError
from driftflux.mesh import build_diamond_geometry, build_uniform_mesh, upwind
from driftflux.verification import random_wall_problem


@pytest.fixture
def mesh2():
    return build_uniform_mesh(2, 1, 1.0, 1.0)


@pytest.fixture
def geom2(mesh2):
    return build_diamond_geometry(mesh2)


def test_face_density_constant(geom2):
    assert fields.face_density(np.array([3.0, 3.0]), geom2)[0] == pytest.approx(3.0)


def test_face_density_equal_weights(geom2):
    # |D_K| = |D_L| = 0.125 on this mesh
    assert fields.face_density(np.array([1.0, 3.0]), geom2)[0] == pytest.approx(2.0)


def test_face_density_weighted_average():
    # every half diamond of a uniform mesh is |K| / 4, also on rectangular
    # cells, so the weighted average is the arithmetic mean on both edge axes
    m = build_uniform_mesh(2, 2, 1.0, 0.5)
    g = build_diamond_geometry(m)
    assert g.half == pytest.approx(np.full(m.n_internal, m.cell_measure / 4))
    rho = np.array([4.0, 0.4, 1.0, 2.0])
    expect = 0.5 * (rho[m.edge_K] + rho[m.edge_L])
    rf = fields.face_density(rho, g)
    assert rf.shape == (m.n_faces,)
    assert rf[: m.n_internal] == pytest.approx(expect, rel=1e-14)
    # a boundary face takes its cell's density
    assert np.array_equal(rf[m.n_internal:], rho[m.face_K[m.n_internal:]])


def test_face_density_bounds_property():
    m = build_uniform_mesh(6, 5, 1.0, 1.0)
    g = build_diamond_geometry(m)
    rng = np.random.default_rng(0)
    rho = rng.uniform(0.1, 9.0, m.n_cells)
    rf = fields.face_density(rho, g)
    # on every face between the densities of its cells (K twice on the boundary)
    L = np.where(m.face_L >= 0, m.face_L, m.face_K)
    lo = np.minimum(rho[m.face_K], rho[L])
    hi = np.maximum(rho[m.face_K], rho[L])
    assert np.all(rf >= lo - 1e-14) and np.all(rf <= hi + 1e-14)


def test_face_density_rejects_nonpositive(monkeypatch):
    """A nonpositive cell density never reaches :func:`fields.face_density`,
    which checks nothing: a run whose initial density has one stops at level
    0, before any face density is formed."""
    problem = random_wall_problem(np.random.default_rng(0), 2, 1)
    problem = dataclasses.replace(problem, rho_init=np.array([1.0, -0.5]))

    def never(*args):
        raise AssertionError("a face density was formed")

    monkeypatch.setattr(driver, "face_density", never)
    with pytest.raises(SimulationError, match="initialization failed: initial data: rho"):
        simulate(problem, 0.05, 0.1)


def test_upwind_value_examples(mesh2):
    a = np.array([1.0, 3.0])
    for v, up, down in ((2.0, 1.0, 3.0), (-2.0, 3.0, 1.0), (0.0, 1.0, 3.0)):  # tie picks K
        cells = upwind(mesh2, np.array([v]))
        assert (a[cells[0]][0], a[cells[1]][0]) == (up, down)


def test_weighted_kinetic_norm_zero(geom2):
    u = np.zeros((geom2.mesh.n_faces, 2))
    assert fields.weighted_kinetic_norm(u, np.array([2.0]), geom2) == 0.0


def test_weighted_kinetic_norm_single_edge(geom2):
    u = np.zeros((geom2.mesh.n_faces, 2))
    u[0] = (3.0, 4.0)
    # |D| = 0.25, rho = 2, |u|^2 = 25
    assert fields.weighted_kinetic_norm(u, np.array([2.0]), geom2) == pytest.approx(12.5)
    # quadratic homogeneity
    assert fields.weighted_kinetic_norm(2 * u, np.array([2.0]), geom2) == pytest.approx(50.0)


def test_weighted_kinetic_norm_books_slip_faces_with_their_half_diamond():
    """A slip face's tangential dof is a velocity unknown: it enters with the
    inertia's face mass |D_{K,sigma}| rho_K; a wall face's velocity does not."""
    m = build_uniform_mesh(2, 1, 1.0, 1.0, tags={"left": "slip"})
    g = build_diamond_geometry(m)
    rf = fields.face_density(np.array([2.0, 5.0]), g)
    u = np.zeros((m.n_faces, 2))
    left, right = m.n_internal, m.n_internal + 1
    u[left] = (0.0, 3.0)
    u[right] = (0.0, 7.0)  # a wall face: not an unknown
    # |D_{K,sigma}| = 1 * 0.25 / 2 = 0.125, rho_K = 2, |u|^2 = 9
    assert fields.weighted_kinetic_norm(u, rf, g) == pytest.approx(2.25)
    u[0] = (1.0, 0.0)  # plus the internal face: |D| = 0.25, rho = 3.5
    assert fields.weighted_kinetic_norm(u, rf, g) == pytest.approx(2.25 + 0.875)


def test_pressure_seminorm_examples(geom2):
    q = np.array([1.0, 1.0])
    assert fields.pressure_seminorm(q, np.array([2.0]), geom2) == 0.0
    q = np.array([1.5, 0.5])
    # (1/2) * (1 / 0.25) * 1 = 2
    assert fields.pressure_seminorm(q, np.array([2.0]), geom2) == pytest.approx(2.0)
    # translation invariance
    assert fields.pressure_seminorm(q + 7.3, np.array([2.0]), geom2) == pytest.approx(2.0)


def test_pressure_seminorm_equals_assembled_operator():
    """|q|^2 matches the quadratic form of B M^-1 B^t assembled as matrices."""
    import scipy.sparse as sp

    m = build_uniform_mesh(5, 4, 1.3, 0.9)
    g = build_diamond_geometry(m)
    rng = np.random.default_rng(5)
    rho_f = rng.uniform(0.5, 3.0, m.n_internal)
    q = rng.uniform(-2.0, 2.0, m.n_cells)
    # B^t as a matrix: (B^t q)_(sigma,i) = -|s| (q_K - q_L) n_i
    rows, cols, vals = [], [], []
    for e in range(m.n_internal):
        for i in range(2):
            rows += [2 * e + i, 2 * e + i]
            cols += [m.edge_K[e], m.edge_L[e]]
            vals += [-m.edge_measure[e] * m.edge_normal[e, i],
                     m.edge_measure[e] * m.edge_normal[e, i]]
    Bt = sp.coo_matrix((vals, (rows, cols)), shape=(2 * m.n_internal, m.n_cells)).tocsr()
    Minv = sp.diags(np.repeat(1.0 / (g.diamond * rho_f), 2))
    quad = float((Bt @ q) @ (Minv @ (Bt @ q)))
    assert quad == pytest.approx(fields.pressure_seminorm(q, rho_f, g), rel=1e-12)


def test_discrete_l2_error_exact_match():
    m = build_uniform_mesh(4, 4, 1.0, 1.0)
    g = build_diamond_geometry(m)
    f = lambda x: x[:, 0] + 2 * x[:, 1]
    vals = f(m.cell_centers)
    assert fields.discrete_l2_error_cell(vals, f, m) == 0.0
    uex = lambda x: np.column_stack([x[:, 0], -x[:, 1]])
    u = np.zeros((m.n_faces, 2))
    u[: m.n_internal] = uex(m.edge_midpoint)
    assert fields.discrete_l2_error_velocity(u, uex, g) == 0.0


def test_discrete_l2_error_constant_offset():
    m = build_uniform_mesh(8, 8, 1.0, 1.0)
    vals = np.full(m.n_cells, 0.37)
    assert fields.discrete_l2_error_cell(vals, lambda x: np.zeros(len(x)), m) == \
        pytest.approx(0.37, rel=1e-12)


def test_discrete_l2_error_matches_bruteforce():
    m = build_uniform_mesh(6, 3, 2.0, 1.0)
    g = build_diamond_geometry(m)
    rng = np.random.default_rng(9)
    vals = rng.normal(size=m.n_cells)
    brute = np.sqrt(sum(m.cell_measure * v * v for v in vals))
    assert fields.discrete_l2_error_cell(vals, lambda x: np.zeros(len(x)), m) == \
        pytest.approx(brute, rel=1e-12)
    u = np.zeros((m.n_faces, 2))
    u[: m.n_internal] = rng.normal(size=(m.n_internal, 2))
    brute_u = np.sqrt(sum(g.diamond[e] * (u[e] @ u[e]) for e in range(m.n_internal)))
    assert fields.discrete_l2_error_velocity(
        u, lambda x: np.zeros((len(x), 2)), g) == pytest.approx(brute_u, rel=1e-12)
