"""Uniform rectangular mesh, edge topology, the diamond-cell dual geometry
and the implicit upwind transport operator.

Cells are indexed row-major, k = j*nx + i.  Faces live in a single index
space: internal faces first (x-normal block, then y-normal block, each
row-major), boundary faces after (left, right, bottom, top sides).  One
table of these six face blocks builds every face array and both
``cell_faces`` entries of each face.  For an internal face sigma = K|L the
stored normal points from K to L; for a boundary face it is the outward
normal of the single adjacent cell.  The diamond measures are
|sigma| face_d / 2.

Every finite-volume balance (mass, gas mass, the y-correction and the
pressure-work check) goes through one operator: the face incidence turns face
fluxes in the K orientation into the net outflow of each cell, and
:func:`edge_pair_index` / :func:`edge_pair_values` give the matching matrix
entries.  Up to ``linalg.DENSE_MAX`` cells the incidence is a dense ndarray.

Every matrix the solver assembles (the momentum matrix, both Newton
Jacobians, the renormalization system and the transport matrices) keeps a
fixed sparsity on a mesh: each is a :class:`SparsePattern`, filled with
each call's values: as a dense ndarray up to ``linalg.DENSE_MAX`` unknowns,
the size that :func:`driftflux.linalg.solve` solves dense, and in its CSC
structure above.  The patterns and the other mesh-only arrays of a step are
built on first use and kept by :meth:`Mesh2D.cached`.
"""

import copy
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError
from .linalg import DENSE_MAX

WALL = "wall"
SLIP = "slip"
INLET = "inlet"
TAGS = (WALL, SLIP, INLET, "outlet")
SIDES = ("left", "right", "bottom", "top")

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
    boundary_tags: np.ndarray     # (B,) wall/slip/inlet/outlet
    # (M, F) face incidence: the first I columns are the signed edge incidence
    # D (+1 at K, -1 at L), the last B the boundary scatter (+1 at K), so one
    # product gives the net outflow of every cell.  Up to DENSE_MAX cells it
    # is an ndarray: one BLAS product costs less than scipy's sparse dispatch,
    # and one with two or more columns (gemm) sums each row in the CSC
    # product's order, bit for bit on every mesh of 2 to 128 cells; a
    # matrix-vector product (gemv) may round another way
    incidence: np.ndarray | sp.csc_matrix
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def cached(self, key, build):
        """The mesh-only object ``key``, such as a :class:`SparsePattern` or
        the momentum dof tables; ``build(mesh)`` makes it on first use, and
        every caller shares it."""
        if key not in self._cache:
            self._cache[key] = build(self)
        return self._cache[key]

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

    ``tags`` optionally maps a boundary side name (left, right, bottom,
    top) to a tag, or is a callable ``(side, midpoint) -> tag``; every
    boundary face defaults to ``wall``.  A side name or a tag (wall, slip,
    inlet, outlet) outside these raises :class:`ConfigurationError`.
    """
    if int(nx) != nx or int(ny) != ny or nx < 1 or ny < 1:
        raise ConfigurationError(f"cell counts must be positive integers, got {nx}x{ny}")
    if Lx <= 0 or Ly <= 0:
        raise ConfigurationError(f"domain extents must be positive, got {Lx}x{Ly}")
    if not (tags is None or callable(tags)) and (unknown := set(tags) - set(SIDES)):
        raise ConfigurationError(f"unknown boundary sides {sorted(unknown, key=repr)}; "
                                 f"the sides are {', '.join(SIDES)}")
    nx, ny = int(nx), int(ny)
    dx, dy = Lx / nx, Ly / ny
    k = np.arange(nx * ny).reshape(ny, nx)
    xc, yc = x0 + (np.arange(nx) + 0.5) * dx, y0 + (np.arange(ny) + 0.5) * dy
    xe, ye = x0 + np.arange(1, nx) * dx, y0 + np.arange(1, ny) * dy

    n_int = ny * (nx - 1) + nx * (ny - 1)
    n_bnd = 2 * nx + 2 * ny
    F = n_int + n_bnd
    face_K = np.empty(F, dtype=np.int64)
    face_L = np.full(F, -1, dtype=np.int64)
    face_normal = np.empty((F, 2))
    face_measure = np.empty(F)
    face_midpoint = np.empty((F, 2))
    face_axis = np.empty(F, dtype=np.int8)
    face_d = np.empty(F)
    cell_faces = np.empty((nx * ny, 4), dtype=np.int64)
    boundary_tags = np.empty(n_bnd, dtype="<U6")

    # the face blocks in face-index order: side (None inside), cells K and
    # K's local face, the offset of cell L and L's local face, normal,
    # measure, midpoint, axis and distance
    blocks = [(None, k[:, :-1], E, 1, W, (1.0, 0.0), dy, (xe, yc[:, None]), 0, dx),
              (None, k[:-1], N, nx, S, (0.0, 1.0), dx, (xc, ye[:, None]), 1, dy),
              ("left", k[:, 0], W, 0, 0, (-1.0, 0.0), dy, (x0, yc), 0, dx / 2),
              ("right", k[:, -1], E, 0, 0, (1.0, 0.0), dy, (x0 + Lx, yc), 0, dx / 2),
              ("bottom", k[0], S, 0, 0, (0.0, -1.0), dx, (xc, y0), 1, dy / 2),
              ("top", k[-1], N, 0, 0, (0.0, 1.0), dx, (xc, y0 + Ly), 1, dy / 2)]
    start = 0
    for side, K, local_K, offset, local_L, normal, measure, mid, axis, dist in blocks:
        f = np.arange(start, start + K.size)
        start += K.size
        face_normal[f] = normal
        face_measure[f] = measure
        mx, my, _ = np.broadcast_arrays(*mid, K)
        face_midpoint[f, 0], face_midpoint[f, 1] = mx.ravel(), my.ravel()
        face_axis[f] = axis
        face_d[f] = dist
        K = K.ravel()
        face_K[f] = K
        cell_faces[K, local_K] = f
        if side is None:
            face_L[f] = K + offset
            cell_faces[K + offset, local_L] = f
            continue
        side_tags = ([tags(side, x) for x in face_midpoint[f]] if callable(tags)
                     else [WALL if tags is None else tags.get(side, WALL)])
        if unknown := set(side_tags) - set(TAGS):
            raise ConfigurationError(f"unknown boundary tags {sorted(unknown, key=repr)} on the "
                                     f"{side} side; the tags are {', '.join(TAGS)}")
        boundary_tags[f - n_int] = side_tags

    # built column by column (each face lists its cells), which skips the
    # COO sort that would double the cost of building a small mesh
    incidence = sp.csc_matrix(
        (np.concatenate([np.tile([1.0, -1.0], n_int), np.ones(n_bnd)]),
         np.concatenate([np.column_stack([face_K[:n_int], face_L[:n_int]]).ravel(),
                         face_K[n_int:]]),
         np.concatenate([np.arange(0, 2 * n_int, 2), 2 * n_int + np.arange(n_bnd + 1)])),
        shape=(nx * ny, F))
    if nx * ny <= DENSE_MAX:
        incidence = incidence.toarray()

    return Mesh2D(
        nx=nx, ny=ny, Lx=float(Lx), Ly=float(Ly), x0=float(x0), y0=float(y0),
        dx=dx, dy=dy, cell_measure=dx * dy,
        cell_centers=np.column_stack([np.tile(xc, ny), np.repeat(yc, nx)]),
        face_K=face_K, face_L=face_L, face_normal=face_normal,
        face_measure=face_measure, face_midpoint=face_midpoint,
        face_axis=face_axis, face_d=face_d, cell_faces=cell_faces,
        n_internal=n_int, n_boundary=n_bnd,
        boundary_tags=boundary_tags,
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


def edge_pair_index(mesh, cols, row0=0):
    """(rows, cols) of edge-pair blocks, for :class:`SparsePattern`: for
    every internal edge and every column array ``cols[j]``, an entry in row
    K and one in row L (both shifted by ``row0``), in column cols[j].  The
    two arrays broadcast to shape (len(cols), 2, I) without being copied
    out."""
    return (np.stack([mesh.edge_K, mesh.edge_L])[None] + row0,
            np.asarray(cols)[:, None, :])


def edge_pair_values(vals):
    """Values of :func:`edge_pair_index`: +vals[j] in row K, -vals[j] in row L."""
    vals = np.asarray(vals)
    return np.concatenate([vals, -vals], axis=1).ravel()


def transport_pattern(mesh):
    """Triplet positions of an implicit upwind transport matrix: the edge
    pairs of columns K and L (values from :func:`edge_pair_values`), then the
    diagonal."""
    idx = np.arange(mesh.n_cells)
    return SparsePattern(mesh.n_cells, [edge_pair_index(mesh, [mesh.edge_K, mesh.edge_L]),
                                        (idx, idx)])


def upwind_transport_matrix(mesh, up, v, diagonal):
    """Matrix of x -> D (v x_up) + diagonal x on :func:`transport_pattern`:
    the implicit upwind balance of the edge fluxes ``v`` with upstream cells
    ``up``."""
    up_is_K = up == mesh.edge_K
    return mesh.cached("transport", transport_pattern).matrix([
        edge_pair_values([np.where(up_is_K, v, 0.0), np.where(up_is_K, 0.0, v)]), diagonal])


def _triplet_keys(n, blocks):
    """col * n + row of every triplet of :class:`SparsePattern` ``blocks``,
    -1 for a triplet in a negative row."""
    n = np.int64(n)  # so that col * n never overflows int32 columns
    grids = [np.broadcast(rows, cols) for rows, cols in blocks]
    keys = np.empty(sum(grid.size for grid in grids), dtype=np.int64)
    start = 0
    for (rows, cols), grid in zip(blocks, grids):
        out = keys[start:start + grid.size].reshape(grid.shape)
        np.multiply(cols, n, out=out)
        out += rows
        np.copyto(out, -1, where=rows < 0)
        start += grid.size
    return keys


class SparsePattern:
    """Structure of an n-by-n matrix whose triplet positions never change.

    Built once from the (rows, cols) blocks of every triplet an assembly
    writes, in the order it writes them; the rows and cols of a block
    broadcast against each other, and the block's triplets follow the C
    order of that shape.  Triplets in a negative row are dropped.  Each
    :meth:`matrix` call sums the value blocks into their slots in place, with
    no concatenated copy, so duplicates add as in a COO matrix.  Up to
    ``DENSE_MAX`` unknowns each matrix is an (n, n) ndarray, summed by one
    ``np.bincount`` over the triplets' row-major positions; above, it is CSC,
    and every matrix shares ``indices`` and ``indptr`` (sorted, read-only)
    but owns its ``data``.

    The triplet-to-compressed-column step follows Davis (*Direct Methods for
    Sparse Linear Systems*, SIAM 2006), here by one sort of an int64 key per
    triplet, col * n + row, so the build's scratch peaks at three arrays of
    8 bytes per triplet.
    """

    def __init__(self, n, blocks):
        keys = _triplet_keys(n, blocks)
        order = np.argsort(keys)
        keys = keys[order]
        dropped = int(np.searchsorted(keys, 0))  # the -1 keys sort first
        # starts of the runs of equal kept keys; their running count, less
        # one, is the slot of each sorted triplet
        first = np.zeros(keys.size, dtype=bool)
        first[dropped:dropped + 1] = True
        np.not_equal(keys[dropped + 1:], keys[dropped:-1], out=first[dropped + 1:])
        unique = keys[first]
        del keys
        self.nnz = unique.size
        self.indices = (unique % n).astype(np.int32)
        self.indptr = np.searchsorted(unique, np.arange(n + 1) * n).astype(np.int32)
        self.indices.flags.writeable = self.indptr.flags.writeable = False
        slot = np.cumsum(first, dtype=np.int32) - 1
        # dropped triplets go to a trailing bin that matrix() cuts off
        slot[:dropped] = self.nnz
        self._slot = np.empty_like(slot)
        self._slot[order] = slot
        # row-major position of each triplet, dropped ones in bin n * n
        self._dense = (np.append(unique % n * n + unique // n, n * n)[self._slot]
                       if n <= DENSE_MAX else None)
        # validated once here; matrix() shallow-copies it, which skips scipy's
        # per-construction index checks and keeps indices/indptr shared.  Its
        # data is a zero-stride view: every matrix() replaces it
        self._template = sp.csc_matrix(
            (np.broadcast_to(0.0, self.nnz), self.indices, self.indptr), shape=(n, n))

    def matrix(self, blocks):
        """The matrix of the slot sums of ``blocks``, an iterable of value blocks."""
        if self._dense is not None:
            n = self._template.shape[0]
            return np.bincount(self._dense, np.concatenate(list(blocks)),
                               minlength=n * n + 1)[:-1].reshape(n, n)
        A = copy.copy(self._template)
        # np.add.at reads int32 slots as they are (np.bincount copies them to int64)
        data = np.zeros(self.nnz + 1)
        start = 0
        for block in blocks:
            np.add.at(data, self._slot[start:start + len(block)], block)
            start += len(block)
        if start != self._slot.size:
            raise ValueError(f"{start} values for {self._slot.size} triplets")
        A.data = data[: self.nnz]
        return A


@dataclass(frozen=True)
class DiamondGeometry:
    """Dual (diamond-cell) geometry of a uniform rectangular mesh."""

    mesh: Mesh2D
    half: np.ndarray          # (I,) |D_{K,sigma}| = |D_{L,sigma}|
    diamond: np.ndarray       # (I,) |D_sigma|, a view of face_lump
    face_lump: np.ndarray     # (F,) diamond measure for internal, half for boundary


def build_diamond_geometry(mesh):
    """Diamond and half-diamond measures of a uniform mesh, all from
    ``face_lump`` = |sigma| face_d / 2, the cones with base sigma and apex at
    the adjacent cell centres: |D_sigma| on an internal face, |D_{K,sigma}|
    on a boundary face."""
    face_lump = mesh.face_measure * mesh.face_d / 2
    diamond = face_lump[: mesh.n_internal]
    return DiamondGeometry(mesh=mesh, half=diamond / 2, diamond=diamond, face_lump=face_lump)
