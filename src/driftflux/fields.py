"""Field containers, the one admissible set and the discrete norms.

Cell fields are plain (M,) arrays; face velocity fields are (F, 2) arrays
covering internal and boundary faces (boundary rows hold the prescribed
Dirichlet data, except the tangential component of a slip face, an unknown);
face densities are (F,) arrays on every face.  :func:`admissibility_violation`
is the one positivity check; the face densities and norms take fields that
passed it.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import SLIP

# relative slack under a positive reporting floor on y
Y_FLOOR_RTOL = 1e-12


@dataclass
class State:
    """One time level of the coupled unknowns.

    ``rho_prev`` is the density one level back and ``fluxes`` the primal mass
    fluxes F_{sigma,K} of the latest discrete mass balance; together they
    satisfy |K|/dt (rho - rho_prev) + sum F = 0, the compatibility the
    momentum step needs.  ``rho_face`` and ``rho_face_prev`` are the
    every-face :func:`face_density` of ``rho`` and ``rho_prev``, formed once
    per level and read by every stage that weighs by them.
    """

    t: float
    u: np.ndarray          # (F, 2)
    p: np.ndarray          # (M,)
    rho: np.ndarray        # (M,)
    z: np.ndarray          # (M,)
    y: np.ndarray          # (M,)
    rho_prev: np.ndarray   # (M,)
    fluxes: np.ndarray     # (F,) F_{sigma,K}, K orientation
    rho_face: np.ndarray       # (F,)
    rho_face_prev: np.ndarray  # (F,)


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
    """Face density on every face: the half-diamond weighted average
    rho_sigma = (|D_K| rho_K + |D_L| rho_L) / |D_sigma| on internal edges,
    and the adjacent cell's density on boundary faces; positive whenever the
    cell densities are.
    """
    m, rho = geom.mesh, np.asarray(rho)
    return np.concatenate([(geom.half * rho[m.edge_K] + geom.half * rho[m.edge_L]) / geom.diamond,
                           rho[m.face_K[m.n_internal:]]])


def velocity_unknowns(rho_face, geom):
    """(faces, mass) blocks of the velocity unknowns, with the inertia's face
    mass face_lump rho_sigma of the momentum step: the internal faces, then
    the slip faces, whose tangential dof is free, when the mesh has any.  A
    sum over them is taken block by block, so that on a mesh with no slip
    side it is the internal sum."""
    rho_face = np.asarray(rho_face)
    n = geom.mesh.n_internal
    blocks = [(slice(n), geom.diamond * rho_face[:n])]
    slip = geom.mesh.cached("slip_faces",
                            lambda m: m.n_internal + np.flatnonzero(m.boundary_tags == SLIP))
    if slip.size:
        blocks.append((slip, geom.face_lump[slip] * rho_face[slip]))
    return blocks


def weighted_kinetic_norm(u, rho_face, geom):
    """||u||^2_rho = sum over the :func:`velocity_unknowns` of
    face_lump rho_sigma |u_sigma|^2."""
    u = np.asarray(u)
    return sum(float(np.sum(mass * np.sum(u[f] * u[f], axis=1)))
               for f, mass in velocity_unknowns(rho_face, geom))


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
