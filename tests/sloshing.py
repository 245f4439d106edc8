"""Criterion 11's harness: the sloshing dispersion relation and the interface
frequency of a guarded run."""

import numpy as np

from driftflux.cases import build_case
from driftflux.config import make_config
from driftflux.driver import steps


def wave_number(case, n):
    """k_n = n pi / L of a :class:`driftflux.cases.SloshingCase`."""
    return np.pi * np.asarray(n, dtype=float) / case.L


def omega(case, n):
    """The dispersion relation of ``case``: the angular frequency of mode n."""
    k = wave_number(case, n)
    rho_g = 1.2
    num = case.g * k * (case.rho_l - rho_g)
    den = rho_g / np.tanh(k * case.h_g) + case.rho_l / np.tanh(k * case.h_l)
    return np.sqrt(num / den)


def liquid_column_height(problem, state, column):
    """Liquid height above column ``column`` from the cell liquid fractions."""
    mesh = problem.mesh
    cells = column + mesh.nx * np.arange(mesh.ny)
    alpha_l = (state.rho[cells] - state.z[cells]) / problem.eos.rho_l
    return float(np.sum(alpha_l) * mesh.dy)


def fit_oscillation_frequency(ts, xi, w_lo, w_hi, n_scan=601):
    """Best single-mode fit xi ~ A + B cos(w t) + C sin(w t) over a w scan."""
    ts = np.asarray(ts)
    xi = np.asarray(xi)
    best = None
    for w in np.linspace(w_lo, w_hi, n_scan):
        X = np.column_stack([np.ones_like(ts), np.cos(w * ts), np.sin(w * ts)])
        coef, *_ = np.linalg.lstsq(X, xi, rcond=None)
        rr = float(np.sum((xi - X @ coef) ** 2))
        if best is None or rr < best[1]:
            best = (w, rr, coef)
    return best[0], best[2]


def sloshing_frequency(nx=70, ny=90, dt=0.01, t_end=1.8, column=0):
    """Run the sloshing case and fit the interface oscillation frequency.

    Returns (fitted omega, analytic omega_1, relative error, sample count).
    """
    problem = build_case(make_config("sloshing", nx=nx, ny=ny, dt=dt, t_end=t_end))
    w1 = omega(problem.exact, 1)
    ts, hs = zip(*[(state.t, liquid_column_height(problem, state, column))
                   for state, _ in steps(problem, dt, t_end)])
    xi = np.asarray(hs) - hs[0]
    w_fit, _ = fit_oscillation_frequency(ts, xi, 0.5 * w1, 1.5 * w1)
    return w_fit, w1, abs(w_fit - w1) / w1, len(ts)
