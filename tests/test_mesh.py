import numpy as np
import pytest

from driftflux.errors import ConfigurationError
from driftflux.mesh import build_diamond_geometry, build_uniform_mesh


def test_single_cell_mesh():
    m = build_uniform_mesh(1, 1, 1.0, 1.0)
    assert m.n_cells == 1
    assert m.n_internal == 0
    assert m.n_boundary == 4
    assert m.cell_measure == 1.0


def test_two_cell_mesh_geometry():
    m = build_uniform_mesh(2, 1, 1.0, 1.0)
    assert m.n_cells == 2
    assert m.cell_measure == pytest.approx(0.5)
    assert m.n_internal == 1
    assert m.edge_measure[0] == pytest.approx(1.0)
    assert m.edge_normal[0] == pytest.approx([1.0, 0.0])
    assert m.d_sigma[0] == pytest.approx(0.5)
    assert m.edge_K[0] == 0 and m.edge_L[0] == 1


def test_internal_edge_count_formula():
    m = build_uniform_mesh(20, 20, 1.0, 1.0)
    assert m.n_cells == 400
    assert m.n_internal == 20 * 19 + 20 * 19 == 760


def test_internal_edge_counts_random_sizes():
    rng = np.random.default_rng(3)
    for _ in range(10):
        nx, ny = rng.integers(1, 9, 2)
        m = build_uniform_mesh(nx, ny, 2.0, 3.0)
        assert m.n_internal == ny * (nx - 1) + nx * (ny - 1)
        assert m.n_boundary == 2 * (nx + ny)


def test_invalid_dimensions_raise():
    with pytest.raises(ConfigurationError):
        build_uniform_mesh(0, 2, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        build_uniform_mesh(2, 2, -1.0, 1.0)


def test_orthogonality_and_orientation():
    m = build_uniform_mesh(4, 3, 2.0, 1.5)
    # segment between adjacent centers is orthogonal to the edge tangent
    dx = m.cell_centers[m.edge_L] - m.cell_centers[m.edge_K]
    tangent = np.column_stack([-m.edge_normal[:, 1], m.edge_normal[:, 0]])
    assert np.max(np.abs(np.sum(dx * tangent, axis=1))) < 1e-14
    # normal points from K to L
    assert np.all(np.sum(dx * m.edge_normal, axis=1) > 0)
    # d_sigma is the center distance
    assert np.allclose(np.linalg.norm(dx, axis=1), m.d_sigma)


def test_cell_face_table_closed():
    m = build_uniform_mesh(5, 4, 1.0, 1.0)
    # each internal face appears exactly twice, boundary faces once
    counts = np.bincount(m.cell_faces.ravel(), minlength=m.n_faces)
    assert np.all(counts[: m.n_internal] == 2)
    assert np.all(counts[m.n_internal:] == 1)


def test_diamond_cone_measures():
    m = build_uniform_mesh(2, 1, 1.0, 1.0)
    g = build_diamond_geometry(m)
    assert g.half[0] == pytest.approx(0.125)
    assert g.diamond[0] == pytest.approx(0.25)


def test_single_cell_boundary_half_diamonds_tile():
    m = build_uniform_mesh(1, 1, 1.0, 1.0)
    g = build_diamond_geometry(m)
    assert g.diamond.size == 0
    assert np.sum(g.boundary_half) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("nx,ny,Lx,Ly", [(4, 4, 1.0, 1.0), (7, 3, 2.5, 0.5)])
def test_diamond_tiling(nx, ny, Lx, Ly):
    m = build_uniform_mesh(nx, ny, Lx, Ly)
    g = build_diamond_geometry(m)
    total = np.sum(g.diamond) + np.sum(g.boundary_half)
    assert total == pytest.approx(Lx * Ly, rel=1e-13)
    assert np.allclose(g.diamond, 2 * g.half)


def test_subedge_geometry():
    m = build_uniform_mesh(3, 2, 1.5, 1.0)
    g = build_diamond_geometry(m)
    assert g.subedge_length == pytest.approx(np.hypot(m.dx, m.dy) / 2)
