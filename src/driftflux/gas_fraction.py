"""Implicit finite-volume correction of the gas mass fraction.

Drift and diffusion are discretized with a monotone two-point flux for
phi(y) = max[y(1-y), 0], upwinded with respect to the drift mass flux, and
balanced with the mesh's implicit upwind transport operator (the face
incidence ``Mesh2D.incidence`` on the residual side,
:func:`driftflux.mesh.edge_pairs` on the Jacobian side), the same one the
pressure correction uses.  The nonlinear cellwise system is solved by damped
Newton with clamped one-sided derivatives at the flux kinks.
"""

from dataclasses import dataclass

import numpy as np

from . import eos as _eos
from .errors import InvariantViolation
from .fields import admissibility_violation
from .linalg import NewtonConfig, newton_solve
from .mesh import coo_sum, edge_pairs, upwind


def _phi(s):
    # written as s - s*s so that g(a, a) = g1(a) + g2(a) matches bitwise
    return s - s * s


class FluxSplitting:
    """g(a1, a2) = g1(a1) + g2(a2), g1 = a on [0,1] else 0, g2 = -a^2 on [0,1] else 0.

    Discontinuous at a = 1 (accepted; bounds still hold), so the sampled
    monotonicity property excludes that point.
    """

    name = "flux_splitting"

    @staticmethod
    def value(a1, a2):
        a1 = np.asarray(a1, dtype=float)
        a2 = np.asarray(a2, dtype=float)
        g1 = np.where((a1 >= 0) & (a1 <= 1), a1, 0.0)
        g2 = np.where((a2 >= 0) & (a2 <= 1), -a2 * a2, 0.0)
        return g1 + g2

    @staticmethod
    def partials(a1, a2):
        a1 = np.asarray(a1, dtype=float)
        a2 = np.asarray(a2, dtype=float)
        d1 = np.where((a1 >= 0) & (a1 <= 1), 1.0, 0.0)
        d2 = np.where((a2 >= 0) & (a2 <= 1), -2.0 * a2, 0.0)
        return d1, d2


class Godunov:
    """Exact Godunov flux for phi(y) = y(1-y), arguments clamped to [0,1]."""

    name = "godunov"

    @staticmethod
    def value(a1, a2):
        a1 = np.clip(np.asarray(a1, dtype=float), 0.0, 1.0)
        a2 = np.clip(np.asarray(a2, dtype=float), 0.0, 1.0)
        # a2 <= a1: max of phi over [a2, a1]; else min over [a1, a2]
        maxv = np.where(a1 < 0.5, _phi(a1), np.where(a2 > 0.5, _phi(a2), 0.25))
        minv = np.minimum(_phi(a1), _phi(a2))
        return np.where(a2 <= a1, maxv, minv)

    @staticmethod
    def partials(a1, a2):
        a1c = np.clip(np.asarray(a1, dtype=float), 0.0, 1.0)
        a2c = np.clip(np.asarray(a2, dtype=float), 0.0, 1.0)
        inside1 = (np.asarray(a1) >= 0) & (np.asarray(a1) <= 1)
        inside2 = (np.asarray(a2) >= 0) & (np.asarray(a2) <= 1)
        dphi1 = 1.0 - 2.0 * a1c
        dphi2 = 1.0 - 2.0 * a2c
        up = a2c <= a1c
        d1_max = np.where(a1c < 0.5, dphi1, 0.0)
        d2_max = np.where((a1c >= 0.5) & (a2c > 0.5), dphi2, 0.0)
        first_smaller = _phi(a1c) <= _phi(a2c)
        d1_min = np.where(first_smaller, dphi1, 0.0)
        d2_min = np.where(first_smaller, 0.0, dphi2)
        d1 = np.where(up, d1_max, d1_min) * inside1
        d2 = np.where(up, d2_max, d2_min) * inside2
        return d1, d2


FLUX_FUNCTIONS = {"flux_splitting": FluxSplitting(), "godunov": Godunov()}


@dataclass
class DriftModel:
    kind: str = "none"                      # none | constant | darcy
    u_r: tuple = (0.0, 0.0)                 # m/s, constant closure
    lam: float = 1.0                        # Darcy coefficient, > 0
    diffusion: float = 0.0                  # D >= 0

    def __post_init__(self):
        if self.kind == "darcy" and self.lam <= 0:
            raise ValueError("darcy drift requires lambda > 0")
        if self.diffusion < 0:
            raise ValueError("diffusion must be nonnegative")


def drift_fluxes(mesh, eos, model, rho, p, z, v_mean):
    """Drift mass flux G_{sigma,K} on internal edges.

    The face density is upwinded with respect to the mean velocity (sign of
    ``v_mean``); the Darcy variant uses the mean-value edge pressure so the
    drift term is entropy-dissipative.
    """
    K, L = mesh.edge_K, mesh.edge_L
    rho = np.asarray(rho, dtype=float)
    rho_up = rho[upwind(mesh, v_mean)[0]]
    if model.kind == "none":
        return np.zeros(mesh.n_internal)
    if model.kind == "constant":
        ur_n = mesh.edge_normal @ np.asarray(model.u_r, dtype=float)
        return rho_up * mesh.edge_measure * ur_n
    if model.kind == "darcy":
        p = np.asarray(p, dtype=float)
        alpha = eos.a2 * np.asarray(z, dtype=float) / p  # z / rho_g(p)
        alpha_e = np.clip(0.5 * (alpha[K] + alpha[L]), 0.0, 1.0)
        p_edge = _eos.drift_edge_pressure(p[K], p[L], eos)
        coef = alpha_e * (1.0 - alpha_e) / model.lam
        return (mesh.edge_measure * rho_up * coef
                * (_eos.gas_density(p_edge, eos) - eos.rho_l) * (p[L] - p[K]))
    raise ValueError(f"unknown drift model {model.kind!r}")


def correct_mass_fraction(mesh, eos, rho, z, G, flux_fn, diffusion, dt, cfg=None,
                          source=None, t=None, boundary_flux=None):
    """Solve the implicit y-correction; returns y in (0, 1].

    ``G`` holds the drift mass fluxes per internal edge; ``source`` is an
    optional manufactured right-hand side evaluated at cell centers.  Drift
    and diffusion fluxes through the boundary vanish unless ``boundary_flux``
    prescribes them (outward, per boundary face; manufactured case only).
    """
    rho = np.asarray(rho, dtype=float)
    z = np.asarray(z, dtype=float)
    y_ceiling = source is None
    why = admissibility_violation(rho, z, y_ceiling=y_ceiling)
    if why:
        raise InvariantViolation(f"y correction input: {why}")
    y0 = z / rho
    src = None
    if source is not None:
        src = mesh.cell_measure * np.asarray(source(mesh.cell_centers, t), dtype=float)
    bflux = np.zeros(mesh.n_boundary)
    if boundary_flux is not None:
        b = slice(mesh.n_internal, mesh.n_faces)
        bflux = np.asarray(boundary_flux(mesh.face_midpoint[b], t, mesh.face_normal[b]),
                           dtype=float) * mesh.face_measure[b]

    G = np.asarray(G, dtype=float)
    no_flux = (G.size == 0 or not np.any(G)) and diffusion == 0.0
    if no_flux and src is None and boundary_flux is None:
        return np.minimum(y0, 1.0)

    K, L = mesh.edge_K, mesh.edge_L
    up, down = upwind(mesh, G)
    dcoef = diffusion * mesh.edge_measure / mesh.d_sigma
    vol_dt = mesh.cell_measure / dt
    M = mesh.n_cells
    idx = np.arange(M)

    def residual(y):
        r = vol_dt * (rho * y - z)
        if src is not None:
            r = r - src
        tflux = G * flux_fn.value(y[up], y[down]) + dcoef * (y[K] - y[L])
        return r + mesh.incidence @ np.concatenate([tflux, bflux])

    def jacobian(y):
        d_up, d_down = flux_fn.partials(y[up], y[down])
        return coo_sum(M, [edge_pairs(mesh, [up, down, K, L],
                                      [G * d_up, G * d_down, dcoef, -dcoef]),
                           (idx, idx, vol_dt * rho)]).tocsc()

    ncfg = cfg or NewtonConfig()
    scale = max(1.0, float(np.max(vol_dt * rho)))
    ncfg = NewtonConfig(abs_tol=ncfg.abs_tol * scale, rel_tol=ncfg.rel_tol,
                        max_iter=ncfg.max_iter, max_halvings=ncfg.max_halvings)
    cap = 1.0 if source is None else max(1.0, float(np.max(y0)))
    res = newton_solve(residual, jacobian, np.clip(y0, 1e-300, cap), ncfg)
    y = res.x
    why = admissibility_violation(rho, z, y=y, y_ceiling=y_ceiling)
    if why:
        raise InvariantViolation(f"y correction left (0, 1]: {why}")
    return y
