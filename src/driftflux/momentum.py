"""Velocity prediction step: Rannacher-Turek assembly with diamond-cell
dual mass fluxes, plus the first-step density prediction.

Velocity dofs live on every face (2 components); boundary dofs carry
Dirichlet rows (wall/inlet/outlet) or the slip constraints, so the system
stays square over 2 * n_faces unknowns.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .boundary import mirror_partners
from .errors import InvariantViolation
from .fields import face_density_all
from .linalg import solve
from .mesh import (SLIP, coo_sum, dual_corner_fluxes, edge_pairs, inlet_split, upwind,
                   upwind_fluxes, volume_fluxes, _CORNER_IN, _CORNER_OUT)

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


@dataclass
class DualFluxes:
    """Mass fluxes across diamond sub-edges, one per (cell, corner).

    ``corner_flux[c, q]`` leaves the diamond of face ``out_face[c, q]`` and
    enters the diamond of ``in_face[c, q]`` (antisymmetry holds by storage).
    """

    corner_flux: np.ndarray  # (M, 4)
    out_face: np.ndarray     # (M, 4) global face ids
    in_face: np.ndarray      # (M, 4)

    def diamond_balance(self, mesh):
        """Sum of outgoing sub-edge fluxes per face diamond (all faces)."""
        out = np.zeros(mesh.n_faces)
        np.add.at(out, self.out_face.ravel(), self.corner_flux.ravel())
        np.add.at(out, self.in_face.ravel(), -self.corner_flux.ravel())
        return out


def assemble_dual_mass_fluxes(mesh, geom, primal_fluxes):
    """Dual fluxes from the direction-split Rannacher-Turek reconstruction."""
    f = np.asarray(primal_fluxes, dtype=float)
    n = mesh.n_internal
    if not np.all(np.isfinite(f)):
        raise InvariantViolation("dual fluxes: non-finite primal fluxes")
    corner = dual_corner_fluxes(mesh, geom, f)
    return DualFluxes(
        corner_flux=corner,
        out_face=mesh.cell_faces[:, _CORNER_OUT],
        in_face=mesh.cell_faces[:, _CORNER_IN],
    )


def viscous_form(u, w, mesh, mu_cells, constant_model):
    """a_d(u, w) evaluated on full (F,2) dof arrays."""
    E = viscous_element_matrix(mesh.dx, mesh.dy, constant_model)
    gd = np.empty((mesh.n_cells, 8), dtype=np.int64)
    gd[:, 0::2] = 2 * mesh.cell_faces
    gd[:, 1::2] = 2 * mesh.cell_faces + 1
    ue = np.asarray(u).reshape(-1)[gd]
    we = np.asarray(w).reshape(-1)[gd]
    return float(np.sum(np.asarray(mu_cells) * np.einsum("ca,ab,cb->c", we, E, ue)))


class MomentumAssembler:
    """Precomputes dof/index structure for repeated prediction solves."""

    def __init__(self, mesh, geom, viscosity):
        self.mesh = mesh
        self.geom = geom
        self.viscosity = viscosity
        self.ndof = 2 * mesh.n_faces
        self._element = viscous_element_matrix(mesh.dx, mesh.dy, viscosity.constant_form)
        gd = np.empty((mesh.n_cells, 8), dtype=np.int64)
        gd[:, 0::2] = 2 * mesh.cell_faces
        gd[:, 1::2] = 2 * mesh.cell_faces + 1
        self._gdofs = gd
        self._visc_rows = np.repeat(gd, 8, axis=1).ravel()
        self._visc_cols = np.tile(gd, (1, 8)).ravel()

        # constrained dofs
        bidx = np.arange(mesh.n_boundary)
        tags = mesh.boundary_tags
        gface = mesh.n_internal + bidx
        axis = mesh.face_axis[gface]
        dirichlet = []
        for i in (0, 1):
            full = tags != SLIP
            dirichlet.append(2 * gface[full] + i)
        slip = np.where(tags == SLIP)[0]
        slip_face = gface[slip]
        self._slip_normal_dof = 2 * slip_face + axis[slip]
        partners = mirror_partners(mesh)[slip]
        tang = 1 - axis[slip]
        has_partner = partners >= 0
        self._slip_tan_dof = 2 * slip_face + tang
        self._slip_tan_partner = np.where(has_partner, 2 * partners + tang, -1)
        self._dirichlet_dofs = np.concatenate(
            dirichlet + [self._slip_normal_dof, self._slip_tan_dof[~has_partner]]
        )
        constrained = np.zeros(self.ndof, dtype=bool)
        constrained[self._dirichlet_dofs] = True
        constrained[self._slip_tan_dof] = True
        self._constrained = constrained

    def dirichlet_values(self, bc, t):
        """Values for the Dirichlet dofs (slip handled by constraint rows)."""
        vals = np.zeros(self.ndof)
        bvals = bc.face_velocity(self.mesh, t)
        for i in (0, 1):
            vals[2 * (self.mesh.n_internal + np.arange(self.mesh.n_boundary)) + i] = bvals[:, i]
        vals[self._slip_normal_dof] = 0.0
        return vals

    def assemble(self, rho_face_n, rho_face_nm1, u_n, dual, p_n, dt, mu_cells,
                 body_accel=None, source=None, t=None, bc=None):
        """Matrix and rhs of the prediction step (Dirichlet rows included)."""
        m = self.mesh
        g = self.geom
        rows, cols, vals = [], [], []

        # lumped inertia
        dia = g.face_lump
        for i in (0, 1):
            d = 2 * np.arange(m.n_faces) + i
            rows.append(d)
            cols.append(d)
            vals.append(dia * rho_face_n / dt)

        # centered advection on diamond sub-edges
        fo = 2 * dual.out_face
        fi = 2 * dual.in_face
        half = 0.5 * dual.corner_flux
        for i in (0, 1):
            for r, c in ((fo + i, fo + i), (fo + i, fi + i)):
                rows.append(r.ravel())
                cols.append(c.ravel())
                vals.append(half.ravel())
            for r, c in ((fi + i, fi + i), (fi + i, fo + i)):
                rows.append(r.ravel())
                cols.append(c.ravel())
                vals.append(-half.ravel())

        # viscosity
        ev = (np.asarray(mu_cells)[:, None, None] * self._element).ravel()
        rows.append(self._visc_rows)
        cols.append(self._visc_cols)
        vals.append(ev)

        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)

        rhs = np.zeros(self.ndof)
        for i in (0, 1):
            d = 2 * np.arange(m.n_faces) + i
            rhs[d] += dia * rho_face_nm1 * np.asarray(u_n)[:, i] / dt
        # pressure force on internal faces: + |sigma| (p_K - p_L) n_i
        nint = m.n_internal
        dp = np.asarray(p_n)[m.edge_K] - np.asarray(p_n)[m.edge_L]
        for i in (0, 1):
            rhs[2 * np.arange(nint) + i] += m.edge_measure * dp * m.edge_normal[:, i]
        # body force, mass-lumped with the inertia weights (for piecewise
        # constant density this equals the exact finite element integral)
        if body_accel is not None:
            for i in (0, 1):
                rhs[2 * np.arange(m.n_faces) + i] += dia * rho_face_n * body_accel[i]
        if source is not None:
            sv = source(m.face_midpoint, t)
            for i in (0, 1):
                rhs[2 * np.arange(m.n_faces) + i] += dia * sv[:, i]

        # replace constrained rows
        keep = ~self._constrained[rows]
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        dir_dofs = self._dirichlet_dofs
        rows = np.concatenate([rows, dir_dofs])
        cols = np.concatenate([cols, dir_dofs])
        vals = np.concatenate([vals, np.ones(dir_dofs.size)])
        tied = self._slip_tan_partner >= 0
        td = self._slip_tan_dof[tied]
        tp = self._slip_tan_partner[tied]
        rows = np.concatenate([rows, td, td])
        cols = np.concatenate([cols, td, tp])
        vals = np.concatenate([vals, np.ones(td.size), -np.ones(td.size)])

        dir_vals = self.dirichlet_values(bc, t) if bc is not None else np.zeros(self.ndof)
        rhs[self._dirichlet_dofs] = dir_vals[self._dirichlet_dofs]
        rhs[td] = 0.0

        A = sp.coo_matrix((vals, (rows, cols)), shape=(self.ndof, self.ndof)).tocsc()
        return A, rhs


def predict_velocity(state, dt, assembler, bc, t_next, body_accel=None, source=None):
    """Solve the discrete momentum balance for the predicted velocity."""
    mesh = assembler.mesh
    geom = assembler.geom
    rho_face_n = face_density_all(state.rho, geom)
    rho_face_nm1 = face_density_all(state.rho_prev, geom)
    if np.any(rho_face_n <= 0) or np.any(rho_face_nm1 <= 0):
        raise InvariantViolation("predict_velocity: nonpositive face density")
    dual = assemble_dual_mass_fluxes(mesh, geom, state.fluxes)
    mu_cells = assembler.viscosity.cell_viscosity(state.rho)
    A, b = assembler.assemble(rho_face_n, rho_face_nm1, state.u, dual, state.p, dt,
                              mu_cells, body_accel=body_accel, source=source,
                              t=t_next, bc=bc)
    x = solve(A, b)
    return x.reshape(-1, 2)


def init_density_prediction(mesh, bc, eos, rho_init, u_init, p_init, z_init, dt, t0=0.0):
    """Implicit upwind mass balance that initializes (rho^0, z^0, F^0).

    Solves |K|/dt (x0 - x_init) + div_upwind(x0 u_init) = 0 for both the
    density and the gas partial density with the same transport operator, so
    an initial state that is affine-consistent at constant pressure stays so;
    the density fluxes establish the compatibility condition for the first
    momentum step.
    """
    M = mesh.n_cells
    nint = mesh.n_internal
    v_all = volume_fluxes(mesh, u_init)
    v = v_all[:nint]
    up, _ = upwind(mesh, v)
    split = vb_out, vb_in = inlet_split(mesh, v_all[nint:])
    rho_in, z_in, _, _ = bc.inflow_state(mesh, t0, np.asarray(p_init), np.asarray(z_init), eos)

    # boundary faces: the outflow weight joins the diagonal, the inflow the rhs
    bnd = mesh.incidence @ np.concatenate([
        np.zeros((nint, 3)), np.column_stack([vb_out, vb_in * rho_in, vb_in * z_in])])
    idx = np.arange(M)
    A = coo_sum(M, [edge_pairs(mesh, [up], [v]),
                    (idx, idx, mesh.cell_measure / dt + bnd[:, 0])]).tocsc()
    rhs = mesh.cell_measure / dt * np.column_stack([rho_init, z_init]) + bnd[:, 1:]
    rho0, z0 = solve(A, rhs).T.copy()
    if np.any(rho0 <= 0) or np.any(z0 <= 0):
        raise InvariantViolation("density prediction produced nonpositive values")
    return rho0, z0, upwind_fluxes(mesh, v, up, split, rho0, rho_in)
