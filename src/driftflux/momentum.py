"""Velocity prediction step: Rannacher-Turek assembly with diamond-cell
dual mass fluxes, plus the first-step density prediction.

Velocity dofs live on every face (2 components); boundary dofs carry
Dirichlet rows (wall/inlet/outlet) or the slip constraints, so the system
stays square over 2 * n_faces unknowns.  The mesh fixes the sparsity: inertia,
advection, viscosity and the constraint rows fill one
:class:`driftflux.mesh.SparsePattern`, built on the first assembly, where the
other entries of the constrained rows are dropped once.
"""

from dataclasses import dataclass

import numpy as np

from .boundary import mirror_partners
from .fields import face_density_all
from .linalg import solve
from .mesh import (E, N, S, SLIP, W, SparsePattern, inlet_split, upwind, upwind_fluxes,
                   upwind_transport_matrix, volume_fluxes)

_GAUSS = 1.0 / np.sqrt(3.0)


def _reference_gradients():
    """d(phi_hat)/d(xi, eta) for the four face functions at the 2x2 Gauss points.

    Reference square [-1,1]^2, basis span{1, xi, eta, xi^2 - eta^2} with
    face-mean nodal functionals; order W, E, S, N.
    """
    pts = [(-_GAUSS, -_GAUSS), (_GAUSS, -_GAUSS), (-_GAUSS, _GAUSS), (_GAUSS, _GAUSS)]
    grads = np.empty((4, 4, 2))  # (gauss point, face, component)
    for g, (xi, eta) in enumerate(pts):
        grads[g, 0] = (-0.5 + 0.75 * xi, -0.75 * eta)   # W: 1/4 - xi/2 + 3/8 (xi^2-eta^2)
        grads[g, 1] = (0.5 + 0.75 * xi, -0.75 * eta)    # E
        grads[g, 2] = (-0.75 * xi, -0.5 + 0.75 * eta)   # S: 1/4 - eta/2 - 3/8 (xi^2-eta^2)
        grads[g, 3] = (-0.75 * xi, 0.5 + 0.75 * eta)    # N
    return grads


def gradient_tensor(dx, dy):
    """G[f1, f2, a, b] = integral over one cell of d_a(phi_f1) d_b(phi_f2).

    2x2 Gauss quadrature, exact for these quadratic integrands.
    """
    ref = _reference_gradients().copy()
    ref[:, :, 0] *= 2.0 / dx
    ref[:, :, 1] *= 2.0 / dy
    jac = dx * dy / 4.0
    return jac * np.einsum("gfa,ghb->fhab", ref, ref)


def viscous_element_matrix(dx, dy, constant_model):
    """Unit-viscosity 8x8 element matrix, local dof l = 2*face + component.

    ``constant_model`` selects mu * [grad:grad + (1/3) div*div] (the form the
    divergence of the stress reduces to for constant viscosity); otherwise
    the full deviatoric tau(v):grad(w).
    """
    G = gradient_tensor(dx, dy)
    lap = np.einsum("fhaa->fh", G)
    # A[fr, ir, fc, ic]: test function (fr, ir), trial function (fc, ic)
    A = np.eye(2)[None, :, None, :] * lap.T[:, None, :, None]
    G_cr = G.transpose(1, 3, 0, 2)  # G[fc, fr, ic, ir]
    if constant_model:
        A = A + G_cr / 3.0
    else:
        A = A + G.transpose(1, 2, 0, 3) - 2.0 / 3.0 * G_cr
    A = A.reshape(8, 8)
    A.flags.writeable = False  # shared by every assembler on a mesh
    return A


@dataclass
class ViscosityModel:
    kind: str = "constant"     # "constant" or "density_scaled" (mu = rho / c)
    mu: float = 0.0
    c: float = 1.0

    def cell_viscosity(self, rho_cells):
        if self.kind == "constant":
            return np.full_like(np.asarray(rho_cells, dtype=float), self.mu)
        if self.kind == "density_scaled":
            return np.asarray(rho_cells, dtype=float) / self.c
        raise ValueError(f"unknown viscosity model {self.kind!r}")

    @property
    def constant_form(self):
        return self.kind == "constant"


# corner order: NE, NW, SW, SE.  For the sub-edge from the cell center to
# corner c, n_raw is the rotated (un-normalized) segment vector; the flux
# F_raw = (rho u)(midpoint) . n_raw is the mass flux leaving the diamond of
# face ``_CORNER_OUT`` and entering the diamond of ``_CORNER_IN``.
_CORNER_OUT = np.array([E, N, W, S])
_CORNER_IN = np.array([N, W, S, E])
# interpolation weights for the direction-split field at the sub-edge midpoint:
# g_x(mid) = wx0*phi_W + wx1*phi_E, g_y(mid) = wy0*phi_S + wy1*phi_N
_CORNER_WX = np.array([[0.25, 0.75], [0.75, 0.25], [0.75, 0.25], [0.25, 0.75]])
_CORNER_WY = np.array([[0.25, 0.75], [0.25, 0.75], [0.75, 0.25], [0.75, 0.25]])
# n_raw in units of (dy, dx): n_raw = (nraw_x * dy/2, nraw_y * dx/2)
_CORNER_NRAW = np.array([[-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [1.0, 1.0]])


def assemble_dual_mass_fluxes(mesh, primal_fluxes):
    """F_raw per (cell, corner), (M, 4): the mass flux leaving the diamond of
    face ``cell_faces[:, _CORNER_OUT]`` and entering that of ``_CORNER_IN``.

    ``primal_fluxes`` holds F_{sigma,K} for every face in the K orientation.
    The reconstruction is the Rannacher-Turek direction-split field whose
    component along axis i varies affinely between the opposite-face flux
    densities; its divergence is constant per cell and its face fluxes equal
    the primal ones, which is what carries the mass balance to the diamonds.
    """
    f = np.asarray(primal_fluxes, dtype=float)
    # flux density along the +axis, single-valued per face, so the piecewise
    # reconstruction matches across cells; (M, 4) in the order W, E, S, N
    sign = np.where(mesh.face_axis == 0, mesh.face_normal[:, 0], mesh.face_normal[:, 1])
    phi = (f * sign / mesh.face_measure)[mesh.cell_faces]
    gx = phi[:, [W]] * _CORNER_WX[:, 0] + phi[:, [E]] * _CORNER_WX[:, 1]
    gy = phi[:, [S]] * _CORNER_WY[:, 0] + phi[:, [N]] * _CORNER_WY[:, 1]
    return gx * (_CORNER_NRAW[:, 0] * mesh.dy / 2) + gy * (_CORNER_NRAW[:, 1] * mesh.dx / 2)


@dataclass(frozen=True)
class MomentumTables:
    """The mesh-only dof arrays of the prediction step, shared read-only by
    every :class:`MomentumAssembler` on a mesh."""

    ndof: int
    cell_dofs: np.ndarray       # (M, 8) dof 2*face + component of each cell
    dirichlet_dofs: np.ndarray  # rows with a prescribed velocity
    tie_dofs: np.ndarray        # tangential slip dofs tied to their mirror partner
    tie_partners: np.ndarray


def momentum_tables(mesh):
    """The :class:`MomentumTables` of ``mesh``."""
    bidx = np.arange(mesh.n_boundary)
    tags = mesh.boundary_tags
    gface = mesh.n_internal + bidx
    axis = mesh.face_axis[gface]
    full = 2 * gface[tags != SLIP]
    slip = np.where(tags == SLIP)[0]
    slip_face = gface[slip]
    slip_normal_dof = 2 * slip_face + axis[slip]
    partners = mirror_partners(mesh)[slip]
    tang = 1 - axis[slip]
    tied = partners >= 0
    slip_tan_dof = 2 * slip_face + tang
    arrays = [(2 * mesh.cell_faces[:, :, None] + np.arange(2)).reshape(-1, 8),
              np.concatenate([full, full + 1, slip_normal_dof, slip_tan_dof[~tied]]),
              # u_d - u_partner = 0
              slip_tan_dof[tied], 2 * partners[tied] + tang[tied]]
    for a in arrays:
        a.flags.writeable = False
    return MomentumTables(2 * mesh.n_faces, *arrays)


def momentum_pattern(mesh):
    """Triplet positions in :meth:`MomentumAssembler.assemble`'s value order:
    inertia, advection, viscosity (constrained rows dropped), then the
    identity rows of the Dirichlet dofs and the slip ties; from the mesh's
    own :class:`MomentumTables`."""
    tab = mesh.cached("momentum_tables", momentum_tables)
    dof = np.arange(tab.ndof)
    # the row of each dof: -1 for the constrained ones
    row = dof.copy()
    row[tab.dirichlet_dofs] = -1
    row[tab.tie_dofs] = -1
    # dofs of the out- and in-diamond of each sub-edge, (2, 4M, 2)
    ends = 2 * np.stack([mesh.cell_faces[:, _CORNER_OUT], mesh.cell_faces[:, _CORNER_IN]])
    ends = ends.reshape(2, -1, 1) + np.arange(2)
    gd = tab.cell_dofs
    dd, td = tab.dirichlet_dofs, tab.tie_dofs
    return SparsePattern(tab.ndof, [
        (row, dof),
        # (out, out), (out, in), then (in, in), (in, out)
        (row[ends[:1]], ends), (row[ends[1:]], ends[::-1]),
        (row[gd][:, :, None], gd[:, None, :]),  # element (cell, test dof, trial dof)
        (np.concatenate([dd, td, td]), np.concatenate([dd, td, tab.tie_partners]))])


class MomentumAssembler:
    """Constrained dofs of a mesh and the prediction-step assembly.

    The mesh's :class:`MomentumTables`, and its unit-viscosity element matrix
    of each viscosity form, are built by the first assembler that needs them.
    The matrix fills the mesh's fixed ``momentum_pattern`` :class:`SparsePattern`,
    built on the first :meth:`assemble`; only its values change per step.
    Each step's system is solved on its own, with no held LU, so a large one
    tries Jacobi before it is factorized (:func:`driftflux.linalg.solve`).
    """

    def __init__(self, mesh, geom, viscosity):
        self.mesh = mesh
        self.geom = geom
        self.viscosity = viscosity
        form = viscosity.constant_form
        self.tables = mesh.cached("momentum_tables", momentum_tables)
        self.element = mesh.cached(("viscous_element", form),
                                   lambda m: viscous_element_matrix(m.dx, m.dy, form))

    def viscous_form(self, u, w, mu_cells):
        """a_d(u, w) evaluated on full (F,2) dof arrays."""
        tab = self.tables
        ue = np.asarray(u).reshape(-1)[tab.cell_dofs]
        we = np.asarray(w).reshape(-1)[tab.cell_dofs]
        return float(np.asarray(mu_cells) @ np.einsum("ca,ca->c", we @ self.element, ue))

    def assemble(self, rho_face_n, rho_face_nm1, u_n, dual, p_n, dt, mu_cells,
                 body_accel=None, source=None, t=None, bc=None):
        """Matrix and rhs of the prediction step (Dirichlet rows included).

        ``dual`` holds the mesh's (M, 4) sub-edge fluxes from
        :func:`assemble_dual_mass_fluxes`.
        """
        m, tab = self.mesh, self.tables
        dia = self.geom.face_lump
        # centered advection on diamond sub-edges: +half in the out-diamond's
        # rows, -half in the in-diamond's
        half = 0.5 * dual.ravel()
        n_tie = tab.tie_dofs.size
        pattern = m.cached("momentum_pattern", momentum_pattern)
        A = pattern.matrix(block() for block in (  # one at a time
            lambda: np.repeat(dia * rho_face_n / dt, 2),                     # lumped inertia
            lambda: np.repeat(np.concatenate([half, half, -half, -half]), 2),
            lambda: (np.asarray(mu_cells)[:, None, None] * self.element).ravel(),
            lambda: np.ones(tab.dirichlet_dofs.size + n_tie), lambda: -np.ones(n_tie)))

        rhs = (dia * rho_face_nm1)[:, None] * np.asarray(u_n) / dt
        # pressure force on internal faces: + |sigma| (p_K - p_L) n
        dp = np.asarray(p_n)[m.edge_K] - np.asarray(p_n)[m.edge_L]
        rhs[: m.n_internal] += (m.edge_measure * dp)[:, None] * m.edge_normal
        # body force, mass-lumped with the inertia weights (for piecewise
        # constant density this equals the exact finite element integral)
        if body_accel is not None:
            rhs += (dia * rho_face_n)[:, None] * np.asarray(body_accel, dtype=float)
        if source is not None:
            rhs += dia[:, None] * source(m.face_midpoint, t)
        rhs = rhs.ravel()
        # constrained rows: prescribed boundary velocity (0 on walls and slip
        # faces), 0 for the ties
        u_bnd = np.zeros((m.n_faces, 2))
        if bc is not None:
            u_bnd[m.n_internal:] = bc.face_velocity(m, t)
        rhs[tab.dirichlet_dofs] = u_bnd.ravel()[tab.dirichlet_dofs]
        rhs[tab.tie_dofs] = 0.0
        return A, rhs


def predict_velocity(state, dt, assembler, bc, t_next, body_accel=None, source=None):
    """Solve the discrete momentum balance for the predicted velocity."""
    mesh = assembler.mesh
    rho_face_n = face_density_all(state.rho, state.rho_face, mesh)
    rho_face_nm1 = face_density_all(state.rho_prev, state.rho_face_prev, mesh)
    dual = assemble_dual_mass_fluxes(mesh, state.fluxes)
    mu_cells = assembler.viscosity.cell_viscosity(state.rho)
    A, b = assembler.assemble(rho_face_n, rho_face_nm1, state.u, dual, state.p, dt,
                              mu_cells, body_accel=body_accel, source=source,
                              t=t_next, bc=bc)
    return solve(A, b).reshape(-1, 2)


def init_density_prediction(mesh, bc, eos, rho_init, u_init, p_init, z_init, dt):
    """Implicit upwind mass balance that initializes (rho^0, z^0, F^0).

    Solves |K|/dt (x0 - x_init) + div_upwind(x0 u_init) = 0 for both the
    density and the gas partial density with the same transport operator, so
    an initial state that is affine-consistent at constant pressure stays so;
    the density fluxes establish the compatibility condition for the first
    momentum step.
    """
    nint = mesh.n_internal
    v_all = volume_fluxes(mesh, u_init)
    v = v_all[:nint]
    up, _ = upwind(mesh, v)
    split = vb_out, vb_in = inlet_split(mesh, v_all[nint:])
    rho_in, z_in, _, _ = bc.inflow(mesh, 0.0, eos)(np.asarray(p_init))

    # boundary faces: the outflow weight joins the diagonal, the inflow the rhs
    bnd = mesh.incidence @ np.concatenate([
        np.zeros((nint, 3)), np.column_stack([vb_out, vb_in * rho_in, vb_in * z_in])])
    A = upwind_transport_matrix(mesh, up, v, mesh.cell_measure / dt + bnd[:, 0])
    rhs = mesh.cell_measure / dt * np.column_stack([rho_init, z_init]) + bnd[:, 1:]
    rho0, z0 = solve(A, rhs).T.copy()
    return rho0, z0, upwind_fluxes(mesh, v, up, split, rho0, rho_in)
