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


@pytest.mark.parametrize("tags, match", [
    ({"top": "outflow"}, r"\['outflow'\] on the top side"),
    ({"left": "Slip"}, r"\['Slip'\] on the left side"),
    ({"Bottom": "wall"}, r"unknown boundary sides \['Bottom'\]"),
    (lambda side, x: "outlet" if side == "top" else "slipp", r"\['slipp'\] on the left side")],
    ids=["truncated", "capitalized", "side-key", "callable"])
def test_unknown_boundary_tags_and_sides_raise(tags, match):
    """A tag outside wall/slip/inlet/outlet, from a dict or a callable, and a
    side key outside left/right/bottom/top raise: none is stored truncated to
    six characters or ignored."""
    with pytest.raises(ConfigurationError, match=match):
        build_uniform_mesh(3, 2, 1.0, 1.0, tags=tags)


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
    assert np.sum(g.face_lump[m.n_internal:]) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("nx,ny,Lx,Ly", [(4, 4, 1.0, 1.0), (7, 3, 2.5, 0.5)])
def test_diamond_tiling(nx, ny, Lx, Ly):
    m = build_uniform_mesh(nx, ny, Lx, Ly)
    g = build_diamond_geometry(m)
    total = np.sum(g.diamond) + np.sum(g.face_lump[m.n_internal:])
    assert total == pytest.approx(Lx * Ly, rel=1e-13)
    assert np.allclose(g.diamond, 2 * g.half)


def _per_face_oracle(nx, ny, Lx, Ly, x0, y0, tags):
    """The face arrays of a uniform mesh, built one face at a time."""
    dx, dy = Lx / nx, Ly / ny
    faces = []  # K, L, normal, measure, midpoint, axis, distance, side
    for j in range(ny):
        for i in range(nx - 1):
            faces.append((j * nx + i, j * nx + i + 1, (1.0, 0.0), dy,
                          (x0 + (i + 1) * dx, y0 + (j + 0.5) * dy), 0, dx, None))
    for j in range(ny - 1):
        for i in range(nx):
            faces.append((j * nx + i, (j + 1) * nx + i, (0.0, 1.0), dx,
                          (x0 + (i + 0.5) * dx, y0 + (j + 1) * dy), 1, dy, None))
    for side, normal in [("left", (-1.0, 0.0)), ("right", (1.0, 0.0))]:
        for j in range(ny):
            i = 0 if side == "left" else nx - 1
            x = x0 if side == "left" else x0 + Lx
            faces.append((j * nx + i, -1, normal, dy, (x, y0 + (j + 0.5) * dy), 0, dx / 2, side))
    for side, normal in [("bottom", (0.0, -1.0)), ("top", (0.0, 1.0))]:
        for i in range(nx):
            j = 0 if side == "bottom" else ny - 1
            y = y0 if side == "bottom" else y0 + Ly
            faces.append((j * nx + i, -1, normal, dx, (x0 + (i + 0.5) * dx, y), 1, dy / 2, side))
    K, L, normal, measure, midpoint, axis, dist, side = zip(*faces)
    # the local face of a cell follows from where the face midpoint lies
    # relative to the cell centre: [W, E, S, N]
    cell_faces = np.full((nx * ny, 4), -1, dtype=np.int64)
    for f, (k, l, _, _, (mx, my), _, _, _) in enumerate(faces):
        for c in (k, l) if l >= 0 else (k,):
            cx, cy = x0 + (c % nx + 0.5) * dx, y0 + (c // nx + 0.5) * dy
            local = (0 if mx < cx else 1) if abs(mx - cx) > abs(my - cy) else (
                2 if my < cy else 3)
            assert cell_faces[c, local] == -1
            cell_faces[c, local] = f
    sides = [s for s in side if s is not None]
    bmid = midpoint[len(faces) - len(sides):]
    if tags is None:
        btags = ["wall"] * len(sides)
    elif callable(tags):
        btags = [tags(s, np.array(x)) for s, x in zip(sides, bmid)]
    else:
        btags = [tags.get(s, "wall") for s in sides]
    return dict(
        face_K=np.array(K, dtype=np.int64), face_L=np.array(L, dtype=np.int64),
        face_normal=np.array(normal, dtype=float), face_measure=np.array(measure, dtype=float),
        face_midpoint=np.array(midpoint, dtype=float), face_axis=np.array(axis, dtype=np.int8),
        face_d=np.array(dist, dtype=float), cell_faces=cell_faces,
        boundary_tags=np.array(btags, dtype="<U6"))


def _sparger(side, x):
    if side == "bottom" and x[0] < 0.6:
        return "inlet"
    return "outlet" if side == "top" else "wall"


@pytest.mark.parametrize("tags", [None, {"left": "slip", "top": "outlet", "bottom": "inlet"},
                                  _sparger], ids=["no-tags", "dict", "callable"])
@pytest.mark.parametrize("nx,ny,x0,y0", [(1, 1, 0.0, 0.0), (3, 1, 0.0, 0.0),
                                         (1, 3, 0.0, 0.0), (4, 3, -0.3, 1.7)])
def test_face_arrays_match_a_per_face_oracle(nx, ny, x0, y0, tags):
    # L / 3 * 3 != L for both extents, so a side placed at x0 + nx * dx
    # in place of x0 + Lx shows
    Lx, Ly = 1.74, 0.93
    m = build_uniform_mesh(nx, ny, Lx, Ly, x0, y0, tags=tags)
    expect = _per_face_oracle(nx, ny, Lx, Ly, x0, y0, tags)
    for name, e in expect.items():
        a = getattr(m, name)
        assert (a.dtype, a.shape) == (e.dtype, e.shape), name
        assert a.tobytes() == e.tobytes(), name
    g = build_diamond_geometry(m)
    lump = [s * d / 2 for s, d in zip(expect["face_measure"].tolist(), expect["face_d"].tolist())]
    assert g.face_lump.tobytes() == np.array(lump).tobytes()
    assert g.diamond.tobytes() == g.face_lump[: m.n_internal].tobytes()
    assert g.half.tobytes() == (np.array(lump[: m.n_internal]) / 2).tobytes()
