"""State laws for a constant-density liquid with an isothermal ideal gas.

All relations keep the gas constant a^2 explicit (rho_g(p) = p / a^2).  The
mixture free energy f(rho, z) = a^2 z log(rho_g^{rho,z}) is defined on the
open convex set  C = {rho > 0, z > 0, z - rho + rho_l > 0}.
Only :func:`gas_density_from_rho_z` checks its arguments, with
:func:`~driftflux.fields.admissibility_violation`.  The laws of p check
nothing: a run's pressures have passed a guard or are positive by
construction, and the pressure step's Newton start check stops a
nonpositive renormalized one.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvariantViolation
from .fields import admissibility_violation


@dataclass(frozen=True)
class EosParams:
    rho_l: float  # liquid density, kg/m^3
    a2: float     # squared isothermal gas sound speed, m^2/s^2

    def __post_init__(self):
        if self.rho_l <= 0 or self.a2 <= 0:
            raise ConfigurationError(
                f"EOS parameters must be positive, got rho_l={self.rho_l}, a2={self.a2}"
            )


def gas_density(p, eos):
    """rho_g(p) = p / a^2."""
    return np.asarray(p) / eos.a2


def rho_from_pz(p, z, eos):
    """Mixture density rho = z (1 - rho_l a^2 / p) + rho_l."""
    return np.asarray(z) * (1.0 - eos.rho_l * eos.a2 / np.asarray(p, dtype=float)) + eos.rho_l


def drho_dp_pz(p, z, eos):
    """d rho / d p at fixed z."""
    return np.asarray(z) * eos.rho_l * eos.a2 / np.asarray(p) ** 2


def drho_dz_pz(p, z, eos):
    """d rho / d z at fixed p."""
    return 1.0 - eos.rho_l * eos.a2 / np.asarray(p) * np.ones_like(np.asarray(z, dtype=float))


def rho_from_py(p, y, eos):
    """Mixture density rho = rho_g(p) rho_l / (rho_l y + (1 - y) rho_g(p))."""
    rg = gas_density(p, eos)
    return rg * eos.rho_l / (eos.rho_l * np.asarray(y) + (1.0 - np.asarray(y)) * rg)


def drho_dp_py(p, y, eos):
    """d rho / d p at fixed mass fraction y."""
    p = np.asarray(p, dtype=float)
    y = np.asarray(y)
    denom = eos.rho_l * y + (1.0 - y) * p / eos.a2
    return eos.rho_l**2 * y / eos.a2 / denom**2


def gas_density_from_rho_z(rho, z, eos):
    """rho_g^{rho,z}(rho, z) = z rho_l / (z + rho_l - rho) on C, where (rho, z,
    p = a^2 rho_g) lies in the admissible set of
    :func:`~driftflux.fields.admissibility_violation` without the y ceiling."""
    rho, z = np.asarray(rho), np.asarray(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        rg = z * eos.rho_l / (z + eos.rho_l - rho)
    why = admissibility_violation(rho, z, eos.a2 * rg, y_ceiling=False)
    if why:
        raise InvariantViolation(f"outside the admissible convex set C: {why}")
    return rg


def p_from_rho_z(rho, z, eos):
    """Pressure p = a^2 z rho_l / (z + rho_l - rho); inverse of rho_from_pz."""
    return eos.a2 * gas_density_from_rho_z(rho, z, eos)


def free_energy(rho, z, eos):
    """Volumetric free energy f = a^2 z log(rho_g^{rho,z})."""
    return eos.a2 * np.asarray(z) * np.log(gas_density_from_rho_z(rho, z, eos))


def free_energy_grad(rho, z, eos):
    """(df/drho, df/dz); df/dz equals h_p at the local pressure."""
    rg = gas_density_from_rho_z(rho, z, eos)
    dfdrho = eos.a2 * rg / eos.rho_l
    dfdz = eos.a2 * (np.log(rg) + rg * (eos.rho_l - np.asarray(rho)) / (eos.rho_l * np.asarray(z)))
    return dfdrho, dfdz


def h_p(p, eos):
    """h_p(p) = a^2 [ log(p/a^2) + (rho_l - p/a^2) / rho_l ]."""
    rg = np.asarray(p, dtype=float) / eos.a2
    return eos.a2 * (np.log(rg) + (eos.rho_l - rg) / eos.rho_l)


def drift_edge_pressure(p1, p2, eos):
    """Mean-value pressure p_sigma in [min(p1,p2), max(p1,p2)].

    Chosen so that h_p'(p_sigma) equals the secant slope of h_p between p1
    and p2; since h_p'(p) = a^2/p - 1/rho_l is invertible, the closed form is
    p_sigma = a^2 / (s + 1/rho_l).
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    equal = p1 == p2
    dp = np.where(equal, 1.0, p1 - p2)
    s = (h_p(np.where(equal, 1.0, p1), eos) - h_p(np.where(equal, 1.0, p2), eos)) / dp
    ps = eos.a2 / (s + 1.0 / eos.rho_l)
    lo = np.minimum(p1, p2)
    hi = np.maximum(p1, p2)
    ps = np.clip(ps, lo, hi)  # Lagrange guarantees membership; clip roundoff
    return np.where(equal, p1, ps)
