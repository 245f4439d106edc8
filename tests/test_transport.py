"""The mesh's implicit upwind transport operator: the face incidence (signed
edge incidence D and boundary scatter), upwind selection and the edge-pair
matrix primitive."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import scipy.sparse as sp

import driftflux.mesh as mesh_mod
from driftflux.linalg import DENSE_MAX
from driftflux.mesh import (build_uniform_mesh, edge_pair_index, edge_pair_values, upwind,
                            upwind_fluxes, upwind_transport_matrix)


@pytest.fixture
def mesh53():
    return build_uniform_mesh(5, 3, 1.3, 0.7)


def _edge_pair_matrix(mesh, cols, vals):
    """COO sum of the edge-pair entries: +vals[j] in row K, -vals[j] in row L,
    in column cols[j]."""
    rows, columns = (a.ravel() for a in np.broadcast_arrays(*edge_pair_index(mesh, cols)))
    return sp.coo_matrix((edge_pair_values(vals), (rows, columns)),
                         shape=(mesh.n_cells, mesh.n_cells))


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


@pytest.mark.parametrize("shape", [(1, 1), (4, 4), (11, 11), (12, 11)])
def test_incidence_is_dense_up_to_dense_max_cells(monkeypatch, shape):
    """Up to DENSE_MAX cells the incidence is an ndarray equal to the CSC
    build entry for entry; a 12x11 mesh (132 cells) keeps the CSC matrix."""
    m = build_uniform_mesh(*shape, 1.0, 1.0)
    monkeypatch.setattr(mesh_mod, "DENSE_MAX", 0)
    csc = build_uniform_mesh(*shape, 1.0, 1.0).incidence
    assert sp.issparse(csc) and csc.format == "csc"
    if m.n_cells <= DENSE_MAX:
        assert type(m.incidence) is np.ndarray
        assert np.array_equal(m.incidence, csc.toarray())
    else:
        assert sp.issparse(m.incidence) and m.incidence.format == "csc"
        assert (m.incidence != csc).nnz == 0


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
    J = _edge_pair_matrix(m, [K, L, up],
                          [c * x[up], -c * x[up], v + c * (x[K] - x[L])]).toarray()
    h = 1e-6
    fd = np.column_stack([(balance(x + h * e) - balance(x - h * e)) / (2 * h)
                          for e in np.eye(m.n_cells)])
    assert J == pytest.approx(fd, abs=1e-8)

    # the linear upwind balance, and no explicit zeros from an unused side
    A = _edge_pair_matrix(m, [up], [v]).tocsc()
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
    A = _edge_pair_matrix(m, [up], [vv]).toarray()
    assert A @ a == pytest.approx(m.incidence @ f)


def test_upwind_transport_matrix_applies_the_balance(mesh53):
    """x -> D (v x_up) + diag x, with v = 0 edges upwinded from K; a second
    fill leaves the first matrix untouched."""
    m = mesh53
    rng = np.random.default_rng(6)
    v = rng.uniform(-1.0, 1.0, m.n_internal)
    v[rng.uniform(size=m.n_internal) < 0.3] = 0.0
    diag = rng.uniform(1.0, 2.0, m.n_cells)
    x = rng.uniform(0.5, 2.0, m.n_cells)
    D = m.incidence[:, : m.n_internal]
    A = upwind_transport_matrix(m, upwind(m, v)[0], v, diag)
    ref = D @ (v * x[upwind(m, v)[0]]) + diag * x
    assert A @ x == pytest.approx(ref, rel=1e-14, abs=1e-14)
    B = upwind_transport_matrix(m, upwind(m, -v)[0], -v, 2.0 * diag)
    assert not np.shares_memory(A.data, B.data)
    assert A @ x == pytest.approx(ref, rel=1e-14, abs=1e-14)
