"""Uniform rectangular mesh, edge topology, the diamond-cell dual geometry
and the implicit upwind transport operator.

Cells are indexed row-major, k = j*nx + i.  Faces live in a single index
space: internal faces first (x-normal block, then y-normal block, each
row-major), boundary faces after (left, right, bottom, top sides).  For an
internal face sigma = K|L the stored normal points from K to L; for a
boundary face it is the outward normal of the single adjacent cell.

Every finite-volume balance (mass, gas mass, the y-correction and the
pressure-work check) goes through one operator: the face incidence turns face
fluxes in the K orientation into the net outflow of each cell, and
:func:`edge_pairs` builds the matching matrix entries.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError

WALL = "wall"
SLIP = "slip"
INLET = "inlet"
OUTLET = "outlet"

# local face order within a cell
W, E, S, N = 0, 1, 2, 3


@dataclass(frozen=True)
class Mesh2D:
    nx: int
    ny: int
    Lx: float
    Ly: float
    x0: float
    y0: float
    dx: float
    dy: float
    cell_measure: float
    cell_centers: np.ndarray      # (M, 2)
    face_K: np.ndarray            # (F,) first adjacent cell
    face_L: np.ndarray            # (F,) second adjacent cell, -1 on the boundary
    face_normal: np.ndarray       # (F, 2) n_KL / outward
    face_measure: np.ndarray      # (F,)
    face_midpoint: np.ndarray     # (F, 2)
    face_axis: np.ndarray         # (F,) 0 for x-normal, 1 for y-normal
    face_d: np.ndarray            # (F,) |x_K - x_L|, or center-to-face distance on the boundary
    cell_faces: np.ndarray        # (M, 4) global face ids, order [W, E, S, N]
    n_internal: int
    n_boundary: int
    boundary_side: np.ndarray     # (B,) left/right/bottom/top
    boundary_tags: np.ndarray     # (B,) wall/slip/inlet/outlet
    # (M, F) face incidence: the first I columns are the signed edge incidence
    # D (+1 at K, -1 at L), the last B the boundary scatter (+1 at K), so one
    # product gives the net outflow of every cell
    incidence: sp.csc_matrix

    @property
    def n_cells(self):
        return self.nx * self.ny

    @property
    def n_faces(self):
        return self.n_internal + self.n_boundary

    @property
    def edge_K(self):
        """Cell K of each internal edge."""
        return self.face_K[: self.n_internal]

    @property
    def edge_L(self):
        return self.face_L[: self.n_internal]

    @property
    def edge_normal(self):
        return self.face_normal[: self.n_internal]

    @property
    def edge_measure(self):
        return self.face_measure[: self.n_internal]

    @property
    def edge_midpoint(self):
        return self.face_midpoint[: self.n_internal]

    @property
    def d_sigma(self):
        return self.face_d[: self.n_internal]


def build_uniform_mesh(nx, ny, Lx, Ly, x0=0.0, y0=0.0, tags=None):
    """Build a uniform nx-by-ny rectangular mesh on [x0,x0+Lx] x [y0,y0+Ly].

    ``tags`` optionally maps a boundary side name to a tag, or is a callable
    ``(side, midpoint) -> tag``; every boundary face defaults to ``wall``.
    """
    if int(nx) != nx or int(ny) != ny or nx < 1 or ny < 1:
        raise ConfigurationError(f"cell counts must be positive integers, got {nx}x{ny}")
    if Lx <= 0 or Ly <= 0:
        raise ConfigurationError(f"domain extents must be positive, got {Lx}x{Ly}")
    nx, ny = int(nx), int(ny)
    dx, dy = Lx / nx, Ly / ny

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny))  # row-major: j slow, i fast
    cell_centers = np.column_stack(
        [x0 + (ii.ravel() + 0.5) * dx, y0 + (jj.ravel() + 0.5) * dy]
    )

    n_x_edges = ny * (nx - 1)
    n_y_edges = nx * (ny - 1)
    n_int = n_x_edges + n_y_edges
    n_bnd = 2 * nx + 2 * ny
    F = n_int + n_bnd

    face_K = np.empty(F, dtype=np.int64)
    face_L = np.full(F, -1, dtype=np.int64)
    face_normal = np.zeros((F, 2))
    face_measure = np.empty(F)
    face_midpoint = np.empty((F, 2))
    face_axis = np.empty(F, dtype=np.int8)
    face_d = np.empty(F)

    # internal x-normal edges, between (i,j) and (i+1,j)
    if nx > 1:
        i, j = np.meshgrid(np.arange(nx - 1), np.arange(ny))
        i, j = i.ravel(), j.ravel()
        e = j * (nx - 1) + i
        face_K[e] = j * nx + i
        face_L[e] = j * nx + i + 1
        face_normal[e] = (1.0, 0.0)
        face_measure[e] = dy
        face_midpoint[e, 0] = x0 + (i + 1) * dx
        face_midpoint[e, 1] = y0 + (j + 0.5) * dy
        face_axis[e] = 0
        face_d[e] = dx
    # internal y-normal edges, between (i,j) and (i,j+1)
    if ny > 1:
        i, j = np.meshgrid(np.arange(nx), np.arange(ny - 1))
        i, j = i.ravel(), j.ravel()
        e = n_x_edges + j * nx + i
        face_K[e] = j * nx + i
        face_L[e] = (j + 1) * nx + i
        face_normal[e] = (0.0, 1.0)
        face_measure[e] = dx
        face_midpoint[e, 0] = x0 + (i + 0.5) * dx
        face_midpoint[e, 1] = y0 + (j + 1) * dy
        face_axis[e] = 1
        face_d[e] = dy

    boundary_side = np.empty(n_bnd, dtype="<U6")
    j = np.arange(ny)
    i = np.arange(nx)
    # left
    b = n_int + j
    face_K[b] = j * nx
    face_normal[b] = (-1.0, 0.0)
    face_measure[b] = dy
    face_midpoint[b, 0] = x0
    face_midpoint[b, 1] = y0 + (j + 0.5) * dy
    face_axis[b] = 0
    face_d[b] = dx / 2
    boundary_side[j] = "left"
    # right
    b = n_int + ny + j
    face_K[b] = j * nx + nx - 1
    face_normal[b] = (1.0, 0.0)
    face_measure[b] = dy
    face_midpoint[b, 0] = x0 + Lx
    face_midpoint[b, 1] = y0 + (j + 0.5) * dy
    face_axis[b] = 0
    face_d[b] = dx / 2
    boundary_side[ny + j] = "right"
    # bottom
    b = n_int + 2 * ny + i
    face_K[b] = i
    face_normal[b] = (0.0, -1.0)
    face_measure[b] = dx
    face_midpoint[b, 0] = x0 + (i + 0.5) * dx
    face_midpoint[b, 1] = y0
    face_axis[b] = 1
    face_d[b] = dy / 2
    boundary_side[2 * ny + i] = "bottom"
    # top
    b = n_int + 2 * ny + nx + i
    face_K[b] = (ny - 1) * nx + i
    face_normal[b] = (0.0, 1.0)
    face_measure[b] = dx
    face_midpoint[b, 0] = x0 + (i + 0.5) * dx
    face_midpoint[b, 1] = y0 + Ly
    face_axis[b] = 1
    face_d[b] = dy / 2
    boundary_side[2 * ny + nx + i] = "top"

    # per-cell face table [W, E, S, N]
    cell_faces = np.empty((nx * ny, 4), dtype=np.int64)
    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny))
    ii, jj = ii.ravel(), jj.ravel()
    k = jj * nx + ii
    cell_faces[k, W] = np.where(ii > 0, jj * (nx - 1) + ii - 1, n_int + jj)
    cell_faces[k, E] = np.where(ii < nx - 1, jj * (nx - 1) + ii, n_int + ny + jj)
    cell_faces[k, S] = np.where(jj > 0, n_x_edges + (jj - 1) * nx + ii, n_int + 2 * ny + ii)
    cell_faces[k, N] = np.where(
        jj < ny - 1, n_x_edges + jj * nx + ii, n_int + 2 * ny + nx + ii
    )

    boundary_tags = np.full(n_bnd, WALL, dtype="<U6")
    if tags is not None:
        for b in range(n_bnd):
            if callable(tags):
                boundary_tags[b] = tags(boundary_side[b], face_midpoint[n_int + b])
            else:
                boundary_tags[b] = tags.get(boundary_side[b], WALL)

    # built column by column (each face lists its cells), which skips the
    # COO sort that would double the cost of building a small mesh
    incidence = sp.csc_matrix(
        (np.concatenate([np.tile([1.0, -1.0], n_int), np.ones(n_bnd)]),
         np.concatenate([np.column_stack([face_K[:n_int], face_L[:n_int]]).ravel(),
                         face_K[n_int:]]),
         np.concatenate([np.arange(0, 2 * n_int, 2), 2 * n_int + np.arange(n_bnd + 1)])),
        shape=(nx * ny, F))

    return Mesh2D(
        nx=nx, ny=ny, Lx=float(Lx), Ly=float(Ly), x0=float(x0), y0=float(y0),
        dx=dx, dy=dy, cell_measure=dx * dy, cell_centers=cell_centers,
        face_K=face_K, face_L=face_L, face_normal=face_normal,
        face_measure=face_measure, face_midpoint=face_midpoint,
        face_axis=face_axis, face_d=face_d, cell_faces=cell_faces,
        n_internal=n_int, n_boundary=n_bnd,
        boundary_side=boundary_side, boundary_tags=boundary_tags,
        incidence=incidence,
    )


def volume_fluxes(mesh, u):
    """v_sigma = |sigma| u_sigma . n_sigma on every face (K orientation)."""
    return mesh.face_measure * np.sum(np.asarray(u) * mesh.face_normal, axis=1)


def upwind(mesh, v):
    """(upstream, downstream) cell of each internal edge for the signed flux
    ``v``; ties (v = 0) pick K as upstream."""
    K, L = mesh.edge_K, mesh.edge_L
    up_is_K = np.asarray(v) >= 0
    return np.where(up_is_K, K, L), np.where(up_is_K, L, K)


def inlet_split(mesh, vb):
    """(outflow, inflow) weights of the boundary volume fluxes ``vb``.

    Inlet faces upwind a prescribed inflow state; every other boundary face
    transports the interior state with the prescribed velocity.
    """
    is_inlet = mesh.boundary_tags == INLET
    return (np.where(is_inlet, np.maximum(vb, 0.0), vb),
            np.where(is_inlet, np.maximum(-vb, 0.0), 0.0))


def upwind_fluxes(mesh, v, up, split, x, x_in):
    """Upwind face fluxes (F,) of the cell field ``x``, K orientation.

    v x_up on internal edges; vb_out x_K - vb_in x_in on boundary faces, with
    ``split`` = (vb_out, vb_in) from :func:`inlet_split`.
    """
    vb_out, vb_in = split
    bK = mesh.face_K[mesh.n_internal:]
    return np.concatenate([v * x[up], vb_out * x[bK] - vb_in * x_in])


def edge_pairs(mesh, cols, vals, row0=0):
    """COO triplets of edge-pair blocks: for every internal edge and every
    column array ``cols[j]`` with values ``vals[j]``, +vals[j] in row K and
    -vals[j] in row L (both shifted by ``row0``), in column cols[j]."""
    cols, vals = np.asarray(cols), np.asarray(vals)
    rows = np.concatenate([mesh.edge_K, mesh.edge_L] * len(cols)) + row0
    return (rows, np.concatenate([cols, cols], axis=1).ravel(),
            np.concatenate([vals, -vals], axis=1).ravel())


def coo_sum(n, triplets):
    """n-by-n COO matrix of the ``triplets`` (rows, cols, vals); duplicates add."""
    rows, cols, vals = [np.concatenate(parts) for parts in zip(*triplets)]
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n))


# corner order: NE, NW, SW, SE.  For the sub-edge from the cell center to
# corner c, n_raw is the rotated (un-normalized) segment vector; the flux
# F_raw = (rho u)(midpoint) . n_raw is the mass flux leaving the diamond of
# face ``corner_out`` and entering the diamond of ``corner_in``.
_CORNER_OUT = np.array([E, N, W, S])
_CORNER_IN = np.array([N, W, S, E])
# interpolation weights for the direction-split field at the sub-edge midpoint:
# g_x(mid) = wx0*phi_W + wx1*phi_E, g_y(mid) = wy0*phi_S + wy1*phi_N
_CORNER_WX = np.array([[0.25, 0.75], [0.75, 0.25], [0.75, 0.25], [0.25, 0.75]])
_CORNER_WY = np.array([[0.25, 0.75], [0.25, 0.75], [0.75, 0.25], [0.75, 0.25]])
# n_raw in units of (dy, dx): n_raw = (nraw_x * dy/2, nraw_y * dx/2)
_CORNER_NRAW = np.array([[-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [1.0, 1.0]])


@dataclass(frozen=True)
class DiamondGeometry:
    """Dual (diamond-cell) geometry of a uniform rectangular mesh."""

    mesh: Mesh2D
    half: np.ndarray          # (I,) |D_{K,sigma}| = |D_{L,sigma}|
    diamond: np.ndarray       # (I,) |D_sigma|
    boundary_half: np.ndarray  # (B,) |D_{K,sigma}| of boundary faces
    face_lump: np.ndarray     # (F,) diamond measure for internal, half for boundary
    subedge_length: float     # all sub-edges are congruent on a uniform mesh


def build_diamond_geometry(mesh):
    """Half-diamond and diamond measures plus sub-edge bookkeeping."""
    m = mesh
    # cone with base sigma and apex at the cell center: |sigma| * dist / 2
    dist = np.where(m.face_axis[: m.n_internal] == 0, m.dx / 2, m.dy / 2)
    half = m.face_measure[: m.n_internal] * dist / 2.0
    bdist = np.where(m.face_axis[m.n_internal:] == 0, m.dx / 2, m.dy / 2)
    boundary_half = m.face_measure[m.n_internal:] * bdist / 2.0
    diamond = 2.0 * half
    face_lump = np.concatenate([diamond, boundary_half])
    return DiamondGeometry(
        mesh=mesh, half=half, diamond=diamond,
        boundary_half=boundary_half, face_lump=face_lump,
        subedge_length=float(np.hypot(m.dx, m.dy) / 2.0),
    )


def directional_flux_density(mesh, primal_fluxes):
    """Per (cell, local face): flux density of rho*u along the +axis direction.

    ``primal_fluxes`` holds F_{sigma,K} for every face in the K orientation
    (outward of face_K); the returned densities are single-valued per face, so
    the piecewise reconstruction matches across cells.
    """
    # outward-normal sign seen from face_K along the +axis
    sign = np.where(mesh.face_axis == 0, mesh.face_normal[:, 0], mesh.face_normal[:, 1])
    dens = primal_fluxes * sign / mesh.face_measure
    phi = dens[mesh.cell_faces]  # (M, 4)
    # W and S faces: outward of their right/upper cell is -axis, but for the
    # cell that owns them as W/S the density value is identical (shared dof).
    return phi


def dual_corner_fluxes(mesh, geom, primal_fluxes):
    """F_raw per (cell, corner): mass flux leaving the _CORNER_OUT diamond.

    The reconstruction is the Rannacher-Turek direction-split field whose
    component along axis i varies affinely between the opposite-face flux
    densities; its divergence is constant per cell and its face fluxes equal
    the primal ones, which is what carries the mass balance to the diamonds.
    """
    phi = directional_flux_density(mesh, primal_fluxes)  # (M,4) order W,E,S,N
    gx = phi[:, [W]] * _CORNER_WX[:, 0] + phi[:, [E]] * _CORNER_WX[:, 1]  # (M,4)
    gy = phi[:, [S]] * _CORNER_WY[:, 0] + phi[:, [N]] * _CORNER_WY[:, 1]
    return gx * (_CORNER_NRAW[:, 0] * mesh.dy / 2) + gy * (_CORNER_NRAW[:, 1] * mesh.dx / 2)
