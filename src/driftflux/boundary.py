"""Boundary condition data shared by the momentum and pressure steps.

Tags: wall (u = 0), slip (u.n = 0, tangential mirror-tied to the opposite
face of the same cell), inlet and outlet (prescribed velocity).  Inflow
through an inlet face carries a prescribed state: either a fixed gas mass
fraction (density then follows from the adjacent cell's pressure) or
prescribed (rho, z) fields of (x, t).  Outflow always upwinds the interior.
"""

import numpy as np

from . import eos as _eos
from .mesh import INLET, SLIP, WALL


class BoundaryConditions:
    def __init__(self, velocity=None, inlet_mass_fraction=None, inlet_state=None):
        """``velocity(x, t) -> (n,2)`` applies to inlet/outlet faces (walls are 0).

        Exactly one of ``inlet_mass_fraction`` (float) and
        ``inlet_state(x, t) -> (rho, z)`` may be given when inlets exist.
        """
        self.velocity = velocity
        self.inlet_mass_fraction = inlet_mass_fraction
        self.inlet_state = inlet_state

    def face_velocity(self, mesh, t):
        """Prescribed velocity values for every boundary face (slip rows excluded
        from use; their entries are placeholders)."""
        vals = np.zeros((mesh.n_boundary, 2))
        if self.velocity is not None:
            sel = (mesh.boundary_tags != WALL) & (mesh.boundary_tags != SLIP)
            if np.any(sel):
                x = mesh.face_midpoint[mesh.n_internal:][sel]
                vals[sel] = self.velocity(x, t)
        return vals

    def inflow(self, mesh, t, eos):
        """Inflow state at time ``t`` as a function of the cell pressures:
        p -> (rho_in, z_in, drho_in/dp_K, dz_in/dp_K) per boundary face.

        A prescribed ``inlet_state(x, t)`` is evaluated here, once; a fixed
        inlet mass fraction per call, because its density follows the
        adjacent cell's pressure.  Only inlet faces carry a real inflow state;
        the other entries are placeholders (their inflow weight is zero in
        the assembly).
        """
        rho_in = np.full(mesh.n_boundary, eos.rho_l)
        z_in = np.zeros(mesh.n_boundary)
        zero = np.zeros(mesh.n_boundary)
        is_inlet = mesh.boundary_tags == INLET
        if np.any(is_inlet) and self.inlet_state is not None:
            rho_in[is_inlet], z_in[is_inlet] = self.inlet_state(
                mesh.face_midpoint[mesh.n_internal:][is_inlet], t)
        elif np.any(is_inlet):
            if self.inlet_mass_fraction is None:
                raise ValueError("inlet faces present but no inlet state given")
            y_imp = self.inlet_mass_fraction
            K = mesh.face_K[mesh.n_internal:][is_inlet]

            def state(p_cells):
                pk = np.asarray(p_cells)[K]
                rho, drho_dp = rho_in.copy(), zero.copy()
                rho[is_inlet] = _eos.rho_from_py(pk, y_imp, eos)
                drho_dp[is_inlet] = _eos.drho_dp_py(pk, y_imp, eos)
                return rho, np.where(is_inlet, rho * y_imp, 0.0), drho_dp, drho_dp * y_imp

            return state
        return lambda p_cells: (rho_in, z_in, zero, zero)


def mirror_partners(mesh):
    """For each boundary face, the opposite face of its cell (slip mirror).

    Returns -1 where the opposite face is itself a boundary face (single-cell
    row or column); such tangential dofs fall back to homogeneous Dirichlet.
    """
    opposite = {"left": 1, "right": 0, "bottom": 3, "top": 2}  # W<->E, S<->N
    opp_local = np.array([opposite[s] for s in mesh.boundary_side])
    K = mesh.face_K[mesh.n_internal:]
    partner = mesh.cell_faces[K, opp_local]
    partner = np.where(partner < mesh.n_internal, partner, -1)
    return partner
