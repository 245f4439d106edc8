"""Conservation, bounds, entropy and dissipativity monitors.

Every functional here is pure; the inequalities are evaluated exactly as
the scheme's analysis states them, with tolerances scaled by
max(1, |lhs|, |rhs|).
"""

from dataclasses import dataclass

import numpy as np

from . import eos as _eos
from .errors import InvariantViolation
from .fields import (admissibility_violation, face_density, pressure_seminorm,
                     weighted_kinetic_norm)
from .mesh import upwind


@dataclass
class StepReport:
    step: int
    time: float
    mass: float
    gas_mass: float
    mom_x: float
    mom_y: float
    kinetic: float
    free_energy: float
    viscous_dissipation: float
    pressure_seminorm_term: float
    pressure_seminorm_old: float
    entropy_lhs: float
    entropy_rhs: float
    entropy_margin: float
    bounds_ok: bool
    y_min: float
    y_max: float
    p_min: float
    p_max: float
    newton_iters: int
    outer_iters: int


CSV_COLUMNS = ["step", "time", "mass", "gas_mass", "mom_x", "mom_y", "kinetic",
               "free_energy", "entropy_margin", "y_min", "y_max", "p_min",
               "p_max", "newton_iters", "outer_iters"]


def conservation_report(state, mesh, geom, rho_face):
    """(total mass, total gas mass, momentum vector); ``rho_face`` is the face
    density of ``state.rho_prev``, the momentum's weight."""
    mass = float(mesh.cell_measure * np.sum(state.rho))
    gas_mass = float(mesh.cell_measure * np.sum(state.z))
    n = mesh.n_internal
    mom = np.sum((geom.diamond * rho_face)[:, None] * np.asarray(state.u)[:n], axis=0)
    return mass, gas_mass, mom


def free_energy_integral(rho, z, mesh, eos):
    return float(mesh.cell_measure * np.sum(_eos.free_energy(rho, z, eos)))


def bounds_ok(state, y_floor=0.0, y_ceiling=True):
    """Whether ``state`` lies in the one admissible set, the driver's guard."""
    return admissibility_violation(state.rho, state.z, state.p, state.y, y_ceiling,
                                   y_floor) is None


def _state_fields(state, rho_face, mesh, geom, eos, dt, bounds_ok):
    """Report fields of ``state`` alone; ``rho_face`` is the face density of
    ``state.rho_prev``, the weight of the kinetic and pressure terms, and
    ``bounds_ok`` the verdict of the driver's guard on ``state``."""
    mass, gas_mass, mom = conservation_report(state, mesh, geom, rho_face)
    return dict(
        time=state.t, mass=mass, gas_mass=gas_mass,
        mom_x=float(mom[0]), mom_y=float(mom[1]),
        kinetic=0.5 * weighted_kinetic_norm(state.u, rho_face, geom),
        free_energy=free_energy_integral(state.rho, state.rho * state.y, mesh, eos),
        pressure_seminorm_term=0.5 * dt**2 * pressure_seminorm(state.p, rho_face, geom),
        bounds_ok=bounds_ok,
        y_min=float(np.min(state.y)), y_max=float(np.max(state.y)),
        p_min=float(np.min(state.p)), p_max=float(np.max(state.p)),
    )


def build_step_report(step, previous, state_new, rho_face_old, u_tilde, dt, p_used,
                      assembler, eos, newton_iters, bounds_ok):
    """Evaluate every term of the per-step entropy estimate and the totals.

    The old energies are the ``kinetic`` and ``free_energy`` of ``previous``,
    the report of the state the step started from, whose density is
    ``state_new.rho_prev`` with the face density ``rho_face_old``.
    ``p_used`` is the pressure the step actually used for the increment (the
    renormalized one when that option is on).  The viscous term is the
    :class:`driftflux.momentum.MomentumAssembler`'s form at the old density's
    viscosity.  ``bounds_ok`` is the verdict of the driver's guard.
    """
    mesh, geom = assembler.mesh, assembler.geom
    fields = _state_fields(state_new, rho_face_old, mesh, geom, eos, dt, bounds_ok)
    fe_z = free_energy_integral(state_new.rho, state_new.z, mesh, eos)
    mu_cells = assembler.viscosity.cell_viscosity(state_new.rho_prev)
    visc = dt * assembler.viscous_form(u_tilde, u_tilde, mu_cells)
    p_term_old = 0.5 * dt**2 * pressure_seminorm(p_used, rho_face_old, geom)
    lhs = fields["kinetic"] + fe_z + visc + fields["pressure_seminorm_term"]
    rhs = previous.kinetic + previous.free_energy + p_term_old
    return StepReport(
        step=step, viscous_dissipation=visc, pressure_seminorm_old=p_term_old,
        entropy_lhs=lhs, entropy_rhs=rhs, entropy_margin=rhs - lhs,
        newton_iters=newton_iters, outer_iters=1, **fields,  # one pressure solve a step
    )


def initial_step_report(mesh, geom, eos, state, dt, bounds_ok):
    fields = _state_fields(state, face_density(state.rho_prev, geom), mesh, geom, eos,
                           dt, bounds_ok)
    return StepReport(
        step=0, viscous_dissipation=0.0,
        pressure_seminorm_old=fields["pressure_seminorm_term"],
        entropy_lhs=0.0, entropy_rhs=0.0, entropy_margin=0.0,
        newton_iters=0, outer_iters=0, **fields,
    )


def entropy_scale(report):
    return max(1.0, abs(report.entropy_lhs), abs(report.entropy_rhs))


def global_entropy_bound(reports):
    """Margins of the telescoped bound with renormalization on.

    E_n + dt * sum_k a_d(u~^k, u~^k) <= E_0, with
    E_n = kinetic + free energy + pressure seminorm term of report n.
    """
    e0 = reports[0].kinetic + reports[0].free_energy + reports[0].pressure_seminorm_term
    margins = []
    acc = 0.0
    for rep in reports[1:]:
        acc += rep.viscous_dissipation
        e_n = rep.kinetic + rep.free_energy + rep.pressure_seminorm_term
        margins.append(e0 - (e_n + acc))
    return np.array(margins)


def pressure_work_inequality_check(mesh, eos, rho, rho_star, z, z_star, v_edges, dt):
    """Signed margin (lhs - rhs) of the pressure-work estimate.

    Verifies first that the two implicit upwind balances hold for the inputs.
    """
    rho = np.asarray(rho, dtype=float)
    z = np.asarray(z, dtype=float)
    v = np.asarray(v_edges, dtype=float)
    up, _ = upwind(mesh, v)
    vol_dt = mesh.cell_measure / dt
    # the divergences of both balances' fluxes and of v from one product
    div = mesh.incidence[:, : mesh.n_internal] @ np.column_stack([v * rho[up], v * z[up], v])
    scale = vol_dt * max(1.0, float(np.max(np.abs(rho))), float(np.max(np.abs(z))))
    r1 = vol_dt * (rho - np.asarray(rho_star, dtype=float)) + div[:, 0]
    r2 = vol_dt * (z - np.asarray(z_star, dtype=float)) + div[:, 1]
    if np.max(np.abs(r1)) > 1e-8 * scale or np.max(np.abs(r2)) > 1e-8 * scale:
        raise InvariantViolation("pressure-work check: inputs violate the upwind balances")

    p = _eos.p_from_rho_z(rho, z, eos)
    lhs = float(np.sum(-p * div[:, 2]))
    rhs = float(np.sum(mesh.cell_measure * (
        _eos.free_energy(rho, z, eos)
        - _eos.free_energy(rho_star, z_star, eos))) / dt)
    return lhs - rhs


def segment_point_check(eos, point_a, point_b):
    """(zeta, T, identity residual) for the tangent-intersection lemma.

    g(zeta) = f((1-zeta) A + zeta B) is convex; zeta solves
    [g'(1)-g'(0)] zeta = g(0) - (g(1) - g'(1)), any zeta works when g is
    affine (0.5 returned), and T = zeta [g'(1) - g'(0)] >= 0.
    """
    a = np.asarray(point_a, dtype=float)
    b = np.asarray(point_b, dtype=float)
    d = b - a
    ga = float(_eos.free_energy(a[0], a[1], eos))
    gb = float(_eos.free_energy(b[0], b[1], eos))
    grad_a = np.array([float(v) for v in _eos.free_energy_grad(a[0], a[1], eos)])
    grad_b = np.array([float(v) for v in _eos.free_energy_grad(b[0], b[1], eos)])
    gpa = float(grad_a @ d)
    gpb = float(grad_b @ d)
    denom = gpb - gpa
    scale = max(1.0, abs(ga), abs(gb), abs(gpa), abs(gpb))
    if abs(denom) <= 1e-12 * scale:
        zeta, T = 0.5, 0.0
    else:
        zeta = (ga - gb + gpb) / denom
        T = zeta * denom
    xbar = (1.0 - zeta) * a + zeta * b
    residual = (ga + grad_a @ (xbar - a)) - (gb + grad_b @ (xbar - b))
    return zeta, T, float(residual)


def drift_dissipation_check(mesh, eos, rho, z, y_new, p, G, flux_fn, dt):
    """(free-energy decrease margin, edgewise dissipation sum T2).

    The margin is -sum |K| [f(rho, rho y) - f(rho, z)] / dt; T2 assembles
    G * g_up * [h_p(p_K) - h_p(p_L)] per edge, which the mean-value edge
    pressure makes nonnegative for a nonnegative flux function.
    """
    rho = np.asarray(rho, dtype=float)
    margin = -float(np.sum(mesh.cell_measure * (
        _eos.free_energy(rho, rho * np.asarray(y_new), eos)
        - _eos.free_energy(rho, z, eos))) / dt)
    K, L = mesh.edge_K, mesh.edge_L
    y = np.asarray(y_new, dtype=float)
    G = np.asarray(G, dtype=float)
    up, down = upwind(mesh, G)
    g_up = flux_fn.value(y[up], y[down])
    hp = _eos.h_p(np.asarray(p, dtype=float), eos)
    t2 = float(np.sum(G * g_up * (hp[K] - hp[L])))
    return margin, t2
