"""Field containers, the one admissible set and the discrete norms.

Cell fields are plain (M,) arrays; face velocity fields are (F, 2) arrays
covering internal and boundary faces (boundary rows hold the prescribed
Dirichlet data).  :func:`admissibility_violation` is the one positivity
check; the face densities and norms take fields that passed it.
"""

from dataclasses import dataclass

import numpy as np

# relative slack under a positive reporting floor on y
Y_FLOOR_RTOL = 1e-12


@dataclass
class State:
    """One time level of the coupled unknowns.

    ``rho_prev`` is the density one level back and ``fluxes`` the primal mass
    fluxes F_{sigma,K} of the latest discrete mass balance; together they
    satisfy |K|/dt (rho - rho_prev) + sum F = 0, the compatibility the
    momentum step needs.  ``rho_face`` and ``rho_face_prev`` are the
    internal-face :func:`face_density` of ``rho`` and ``rho_prev``, formed
    once per level and read by every stage that weighs by them.
    """

    t: float
    u: np.ndarray          # (F, 2)
    p: np.ndarray          # (M,)
    rho: np.ndarray        # (M,)
    z: np.ndarray          # (M,)
    y: np.ndarray          # (M,)
    rho_prev: np.ndarray   # (M,)
    fluxes: np.ndarray     # (F,) F_{sigma,K}, K orientation
    rho_face: np.ndarray       # (F_int,)
    rho_face_prev: np.ndarray  # (F_int,)


def admissibility_violation(rho, z, p=None, y=None, y_ceiling=True, y_floor=0.0):
    """The first bound of the one admissible set that the cell fields break,
    or None: rho, z and p (when given), all arrays, must be positive, and p
    finite; y (z / rho when not given) must exceed y_floor (1 - Y_FLOOR_RTOL)
    and, with ``y_ceiling``, stay at or below 1.  Every guard of a step, whose
    verdict the step report records, the check of a run's initial data,
    :func:`~driftflux.eos.gas_density_from_rho_z` on C and the y-correction's
    Newton iterates test exactly this.
    """
    if (rho <= 0).any() or (z <= 0).any() or (
            p is not None and ((p <= 0) | (p == np.inf)).any()):
        return "rho, p, z must stay positive, p finite"
    y = z / rho if y is None else y
    if (y <= y_floor * (1.0 - Y_FLOOR_RTOL)).any():
        return f"y must stay above {y_floor:g}"
    if y_ceiling and (y > 1.0).any():
        return "y must stay at or below 1"
    return None


def face_density(rho, geom):
    """Half-diamond weighted face density on internal edges.

    rho_sigma = (|D_K| rho_K + |D_L| rho_L) / |D_sigma|, positive whenever the
    cell densities are.
    """
    m, rho = geom.mesh, np.asarray(rho)
    return (geom.half * rho[m.edge_K] + geom.half * rho[m.edge_L]) / geom.diamond


def face_density_all(rho, rho_face, mesh):
    """Face density on every face: ``rho_face``, the :func:`face_density` of
    ``rho``, on the internal ones; boundary faces take the adjacent cell value."""
    out = np.empty(mesh.n_faces)
    out[: mesh.n_internal] = rho_face
    out[mesh.n_internal:] = np.asarray(rho)[mesh.face_K[mesh.n_internal:]]
    return out


def weighted_kinetic_norm(u, rho_face, geom):
    """||u||^2_rho = sum over internal edges of |D_sigma| rho_sigma |u_sigma|^2."""
    n = geom.mesh.n_internal
    uu = np.asarray(u)[:n]
    return float(np.sum(geom.diamond * np.asarray(rho_face)[:n] * np.sum(uu * uu, axis=1)))


def pressure_seminorm(q, rho_face, geom):
    """|q|^2_{1,rho} = sum (1/rho_sigma) (|sigma|^2/|D_sigma|) (q_K - q_L)^2."""
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
