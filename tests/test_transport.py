"""The mesh's implicit upwind transport operator: the face incidence (signed
edge incidence D and boundary scatter), upwind selection and the edge-pair
matrix primitive."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from driftflux.mesh import build_uniform_mesh, coo_sum, edge_pairs, upwind, upwind_fluxes


@pytest.fixture
def mesh53():
    return build_uniform_mesh(5, 3, 1.3, 0.7)


def _scatter(mesh, f_int, f_bnd=None):
    r = np.zeros(mesh.n_cells)
    np.add.at(r, mesh.edge_K, f_int)
    np.add.at(r, mesh.edge_L, -f_int)
    if f_bnd is not None:
        np.add.at(r, mesh.face_K[mesh.n_internal:], f_bnd)
    return r


def test_incidence_matches_paired_scatter(mesh53):
    rng = np.random.default_rng(11)
    f = rng.normal(size=mesh53.n_faces)
    n = mesh53.n_internal
    ref = _scatter(mesh53, f[:n])
    tol = 1e-14 * np.max(np.abs(ref))
    assert mesh53.incidence[:, :n] @ f[:n] == pytest.approx(ref, rel=1e-14, abs=tol)
    ref = _scatter(mesh53, f[:n], f[n:])
    tol = 1e-14 * np.max(np.abs(ref))
    assert mesh53.incidence @ f == pytest.approx(ref, rel=1e-14, abs=tol)


def test_incidence_conserves(mesh53):
    n = mesh53.n_internal
    assert mesh53.incidence.shape == (mesh53.n_cells, mesh53.n_faces)
    ones = np.ones(mesh53.n_cells)
    assert np.all(ones @ mesh53.incidence[:, :n] == 0.0)
    assert np.all(ones @ mesh53.incidence[:, n:] == 1.0)


@pytest.mark.parametrize("zero_share", [0.0, 0.3, 1.0])
def test_edge_pairs_equal_central_difference_jacobian(mesh53, zero_share):
    """Upwind balance r(x) = D (v' x_up) with v' = v + c (x_K - x_L), the shape
    of the pressure correction's mass flux with a frozen pattern; v = 0 edges
    take K as upstream (tests/test_fields.py::test_upwind_value_examples)."""
    m = mesh53
    rng = np.random.default_rng(4)
    v = rng.uniform(-1.0, 1.0, m.n_internal)
    v[rng.uniform(size=m.n_internal) < zero_share] = 0.0
    c = rng.uniform(0.1, 1.0, m.n_internal)
    K, L = m.edge_K, m.edge_L
    up, _ = upwind(m, v)
    D = m.incidence[:, : m.n_internal]

    def balance(x):
        return D @ ((v + c * (x[K] - x[L])) * x[up])

    x = rng.uniform(0.5, 2.0, m.n_cells)
    pairs = edge_pairs(m, [K, L, up], [c * x[up], -c * x[up], v + c * (x[K] - x[L])])
    J = coo_sum(m.n_cells, [pairs]).toarray()
    h = 1e-6
    fd = np.column_stack([(balance(x + h * e) - balance(x - h * e)) / (2 * h)
                          for e in np.eye(m.n_cells)])
    assert J == pytest.approx(fd, abs=1e-8)

    # the linear upwind balance, and no explicit zeros from an unused side
    A = coo_sum(m.n_cells, [edge_pairs(m, [up], [v])]).tocsc()
    assert A @ x == pytest.approx(D @ (v * x[up]), rel=1e-14, abs=1e-14)
    if zero_share == 0.0:
        assert A.nnz == np.count_nonzero(A.toarray())


@given(st.floats(-10, 10), st.floats(-5, 5), st.floats(-5, 5))
def test_single_edge_upwind_flux_identity(v, a_K, a_L):
    """On one edge the operator's flux is v+ a_K - v- a_L."""
    m = build_uniform_mesh(2, 1, 1.0, 1.0)
    a = np.array([a_K, a_L])
    vv = np.array([v])
    up, _ = upwind(m, vv)
    f = upwind_fluxes(m, vv, up, (np.zeros(m.n_boundary),) * 2, a, 0.0)
    vp, vm = max(v, 0.0), -min(v, 0.0)
    assert f[0] == pytest.approx(vp * a_K - vm * a_L)
    A = coo_sum(2, [edge_pairs(m, [up], [vv])]).toarray()
    assert A @ a == pytest.approx(m.incidence @ f)
