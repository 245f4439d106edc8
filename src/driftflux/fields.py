"""Field containers, the admissible set and the discrete norms.

Cell fields are plain (M,) arrays; face velocity fields are (F, 2) arrays
covering internal and boundary faces (boundary rows hold the prescribed
Dirichlet data).
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation

# The step guards accept roundoff above the y ceiling; the step report
# (bounds_ok) checks y <= 1 with no slack.
Y_CEILING_SLACK = 1e-11
# relative slack under a positive reporting floor on y
Y_FLOOR_RTOL = 1e-12


@dataclass
class State:
    """One time level of the coupled unknowns.

    ``rho_prev`` is the density one level back and ``fluxes`` the primal mass
    fluxes F_{sigma,K} of the latest discrete mass balance; together they
    satisfy |K|/dt (rho - rho_prev) + sum F = 0, the compatibility the
    momentum step needs.
    """

    t: float
    u: np.ndarray          # (F, 2)
    p: np.ndarray          # (M,)
    rho: np.ndarray        # (M,)
    z: np.ndarray          # (M,)
    y: np.ndarray          # (M,)
    rho_prev: np.ndarray   # (M,)
    fluxes: np.ndarray     # (F,) F_{sigma,K}, K orientation

    def copy(self):
        return State(self.t, self.u.copy(), self.p.copy(), self.rho.copy(),
                     self.z.copy(), self.y.copy(), self.rho_prev.copy(),
                     self.fluxes.copy())


def admissibility_violation(rho, z, p=None, y=None, y_ceiling=True, y_floor=0.0,
                            ceiling_slack=Y_CEILING_SLACK):
    """The first bound of the admissible set that the cell fields break, or None.

    rho, z and p (when given) must be positive; y (z / rho when not given)
    must exceed y_floor (1 - Y_FLOOR_RTOL) and, with ``y_ceiling``, stay at or
    below 1 + ``ceiling_slack``.
    """
    if np.any(rho <= 0) or np.any(z <= 0) or (p is not None and np.any(p <= 0)):
        return "rho, p, z must stay positive"
    y = z / rho if y is None else y
    if np.any(y <= y_floor * (1.0 - Y_FLOOR_RTOL)):
        return f"y must stay above {y_floor:g}"
    if y_ceiling and np.any(y > 1.0 + ceiling_slack):
        return "y must stay at or below 1"
    return None


def face_density(rho, geom):
    """Half-diamond weighted face density on internal edges.

    rho_sigma = (|D_K| rho_K + |D_L| rho_L) / |D_sigma|, positive whenever the
    cell densities are.
    """
    rho = np.asarray(rho)
    if np.any(rho <= 0):
        raise InvariantViolation("face_density: nonpositive cell density")
    m = geom.mesh
    K = m.edge_K
    L = m.edge_L
    return (geom.half * rho[K] + geom.half * rho[L]) / geom.diamond


def face_density_all(rho, geom):
    """Face density on every face; boundary faces take the adjacent cell value."""
    m = geom.mesh
    out = np.empty(m.n_faces)
    out[: m.n_internal] = face_density(rho, geom)
    out[m.n_internal:] = np.asarray(rho)[m.face_K[m.n_internal:]]
    return out


def weighted_kinetic_norm(u, rho_face, geom):
    """||u||^2_rho = sum over internal edges of |D_sigma| rho_sigma |u_sigma|^2."""
    if np.any(np.asarray(rho_face) <= 0):
        raise InvariantViolation("weighted_kinetic_norm: nonpositive face density")
    n = geom.mesh.n_internal
    uu = np.asarray(u)[:n]
    return float(np.sum(geom.diamond * np.asarray(rho_face)[:n] * np.sum(uu * uu, axis=1)))


def pressure_seminorm(q, rho_face, geom):
    """|q|^2_{1,rho} = sum (1/rho_sigma) (|sigma|^2/|D_sigma|) (q_K - q_L)^2."""
    if np.any(np.asarray(rho_face) <= 0):
        raise InvariantViolation("pressure_seminorm: nonpositive face density")
    m = geom.mesh
    n = m.n_internal
    dq = np.asarray(q)[m.edge_K] - np.asarray(q)[m.edge_L]
    w = m.edge_measure**2 / geom.diamond / np.asarray(rho_face)[:n]
    return float(np.sum(w * dq * dq))


def discrete_l2_error_cell(values, exact, mesh):
    """Cell-weighted discrete L2 distance to ``exact`` sampled at cell centers."""
    ex = exact(mesh.cell_centers) if callable(exact) else np.asarray(exact)
    diff = np.asarray(values) - ex
    return float(np.sqrt(np.sum(mesh.cell_measure * diff * diff)))


def discrete_l2_error_velocity(u, exact, geom):
    """Diamond-weighted L2 distance of a face velocity field to ``exact``.

    ``exact`` maps an (n,2) array of face midpoints to an (n,2) array; only
    internal faces enter the sum.
    """
    m = geom.mesh
    n = m.n_internal
    ex = exact(m.edge_midpoint) if callable(exact) else np.asarray(exact)[:n]
    diff = np.asarray(u)[:n] - ex
    return float(np.sqrt(np.sum(geom.diamond * np.sum(diff * diff, axis=1))))
