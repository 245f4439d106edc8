import dataclasses

import numpy as np
import pytest
import scipy.optimize

from driftflux.driver import simulate
from driftflux.eos import EosParams
from driftflux.errors import DriftFluxError
from driftflux.gas_fraction import (FLUX_FUNCTIONS, DriftModel, _phi,
                                    correct_mass_fraction, drift_fluxes)
from driftflux.linalg import NewtonSequence
from driftflux.mesh import build_uniform_mesh
from driftflux.verification import random_wall_problem

E51 = EosParams(5.0, 1.0)
FS = FLUX_FUNCTIONS["flux_splitting"]
GOD = FLUX_FUNCTIONS["godunov"]


def test_flux_splitting_examples():
    assert float(FS.value(0.5, 0.5)) == pytest.approx(0.25)
    assert float(FS.value(1.0, 0.0)) == pytest.approx(1.0)
    assert float(FS.value(0.0, 1.0)) == pytest.approx(-1.0)


def test_godunov_examples():
    assert float(GOD.value(0.5, 0.5)) == pytest.approx(0.25)
    assert float(GOD.value(0.8, 0.2)) == pytest.approx(0.25)
    assert float(GOD.value(0.2, 0.8)) == pytest.approx(0.16)


@pytest.mark.parametrize("fn", [FS, GOD], ids=["flux_splitting", "godunov"])
def test_flux_parts_are_monotone_across_zero_and_one(fn):
    """g1 is nondecreasing and g2 nonincreasing on a grid that crosses a = 0
    and a = 1, where the arguments leave [0, 1]."""
    a = np.linspace(-0.5, 1.5, 201)
    assert np.any(a < 0) and np.any(a > 1) and 0.0 in a and 1.0 in a
    for b in (0.0, 0.3, 0.7, 1.0):
        assert np.all(np.diff(fn.value(a, b)) >= 0.0)
        assert np.all(np.diff(fn.value(b, a)) <= 0.0)


def test_consistency_exact_on_grid():
    a = np.linspace(0.0, 1.0, 11)
    for fn in (FS, GOD):
        assert np.all(fn.value(a, a) == _phi(a))


def test_partials_match_finite_differences_away_from_kinks():
    rng = np.random.default_rng(3)
    a1 = rng.uniform(0.02, 0.97, 400)
    a2 = rng.uniform(0.02, 0.97, 400)
    h = 1e-7
    for fn in (FS, GOD):
        d1, d2 = fn.partials(a1, a2)
        fd1 = (fn.value(a1 + h, a2) - fn.value(a1 - h, a2)) / (2 * h)
        fd2 = (fn.value(a1, a2 + h) - fn.value(a1, a2 - h)) / (2 * h)
        # Godunov has kinks where the running extremum switches branch
        ok1 = np.abs(d1 - fd1) < 1e-6
        ok2 = np.abs(d2 - fd2) < 1e-6
        assert np.mean(ok1) > 0.97 and np.mean(ok2) > 0.97


def test_drift_mass_flux_constant_examples():
    m = build_uniform_mesh(2, 1, 1.0, 0.05)
    rho = np.array([2.0, 3.0])
    p = np.array([1.0, 1.0])
    z = 0.3 * rho
    # u_r orthogonal to the edge normal
    model = DriftModel("constant", u_r=(0.0, 1.0))
    assert drift_fluxes(m, E51, model, rho, p, z, np.array([1.0]))[0] == 0.0
    # |s| = 0.05, u_r.n = 0.2, rho_up = 2
    model = DriftModel("constant", u_r=(0.2, 0.0))
    G = drift_fluxes(m, E51, model, rho, p, z, np.array([1.0]))[0]
    assert G == pytest.approx(0.02)


def test_drift_mass_flux_darcy_zero_jump():
    m = build_uniform_mesh(2, 1, 1.0, 1.0)
    rho = np.array([2.0, 3.0])
    p = np.array([1.3, 1.3])
    z = 0.3 * rho
    model = DriftModel("darcy", lam=0.7)
    assert drift_fluxes(m, E51, model, rho, p, z, np.array([1.0]))[0] == 0.0


def test_drift_darcy_direction():
    """Lighter gas drifts from high to low pressure."""
    m = build_uniform_mesh(2, 1, 1.0, 1.0)
    p = np.array([2.0, 1.0])  # p_K > p_L, gas lighter than liquid
    rho = np.array([2.0, 2.0])
    z = np.array([0.5, 0.5])
    G = drift_fluxes(m, E51, DriftModel("darcy", lam=1.0), rho, p, z, np.array([1.0]))
    # rho_g(p_sigma) < rho_l and p_L - p_K < 0 -> G > 0: gas leaves the
    # high-pressure cell K toward L
    assert G[0] > 0


def test_correct_trivial_no_drift():
    m = build_uniform_mesh(3, 3, 1.0, 1.0)
    rho = np.linspace(1.0, 2.0, m.n_cells)
    z = 0.3 * rho
    y = correct_mass_fraction(m, rho, z, np.zeros(m.n_internal), FS, 0.0, 0.1)
    assert np.allclose(y, 0.3, rtol=1e-14)


def test_correct_single_cell():
    m = build_uniform_mesh(1, 1, 1.0, 1.0)
    y = correct_mass_fraction(m, np.array([2.0]), np.array([0.9]),
                              np.zeros(0), GOD, 0.3, 0.1)
    assert y[0] == pytest.approx(0.45)


def test_correct_two_cell_against_fsolve():
    m = build_uniform_mesh(2, 1, 1.0, 1.0)
    rho = np.array([1.0, 1.0])
    z = np.array([0.3, 0.6])
    G = np.array([0.8])
    dt = 0.1
    vol_dt = m.cell_measure / dt
    y = correct_mass_fraction(m, rho, z, G, FS, 0.0, dt, NewtonSequence())

    def residual(yv):
        g = float(FS.value(yv[0], yv[1]))
        return [vol_dt * (yv[0] - 0.3) + G[0] * g,
                vol_dt * (yv[1] - 0.6) - G[0] * g]

    oracle = scipy.optimize.fsolve(residual, np.array([0.3, 0.6]), xtol=1e-13)
    assert np.max(np.abs(y - oracle)) < 1e-10
    assert np.all(y > 0) and np.all(y <= 1.0)


def test_correct_takes_no_inadmissible_or_worse_extrapolated_start():
    """The two-cell system above, with histories whose extrapolation leaves
    (0, 1] or has the larger residual: the result is bit-identical to a call
    without a sequence, as is one with a sequence that has no history."""
    m = build_uniform_mesh(2, 1, 1.0, 1.0)
    args = (m, np.ones(2), np.array([0.3, 0.6]), np.array([0.8]), FS, 0.0, 0.1)
    plain = correct_mass_fraction(*args)
    assert np.array_equal(correct_mass_fraction(*args, newton=NewtonSequence()), plain)
    # extrapolated starts (0.3, 1.6), (-0.1, 0.6) and (0.9, 0.05)
    for d in ([0.0, 0.5], [-0.2, 0.0], [0.3, -0.275]):
        newton = NewtonSequence()
        newton.record(np.zeros(2), np.zeros(2))
        newton.record(np.zeros(2), np.array(d))
        assert np.array_equal(correct_mass_fraction(*args, newton=newton), plain)


def test_correct_preserves_gas_mass():
    rng = np.random.default_rng(5)
    m = build_uniform_mesh(4, 4, 1.0, 1.0)
    p = rng.uniform(0.5, 2.0, m.n_cells)
    yv = rng.uniform(0.1, 0.9, m.n_cells)
    from driftflux import eos
    rho = eos.rho_from_py(p, yv, E51)
    z = rho * yv
    G = drift_fluxes(m, E51, DriftModel("darcy", lam=1.0), rho, p, z,
                     rng.uniform(-1, 1, m.n_internal))
    y_new = correct_mass_fraction(m, rho, z, G, GOD, 0.2, 0.05)
    V = m.cell_measure
    assert np.sum(V * rho * y_new) == pytest.approx(np.sum(V * z), rel=1e-12)
    assert np.all(y_new > 0) and np.all(y_new <= 1.0 + 1e-12)


def test_correct_bounds_randomized():
    rng = np.random.default_rng(7)
    for k in range(25):
        m = build_uniform_mesh(rng.integers(1, 5), rng.integers(1, 5), 1.0, 1.0)
        yv = rng.uniform(0.02, 0.99, m.n_cells)
        p = rng.uniform(0.3, 3.0, m.n_cells)
        from driftflux import eos
        rho = eos.rho_from_py(p, yv, E51)
        z = rho * yv
        model = DriftModel("constant", u_r=tuple(rng.uniform(-1, 1, 2)),
                           diffusion=float(rng.uniform(0, 0.3)))
        G = drift_fluxes(m, E51, model, rho, p, z, rng.uniform(-1, 1, m.n_internal))
        flux = FS if k % 2 == 0 else GOD
        y_new = correct_mass_fraction(m, rho, z, G, flux, model.diffusion, 0.05)
        assert np.all(y_new > 0) and np.all(y_new <= 1.0 + 1e-11)


def test_correct_rejects_bad_input():
    """With drift, Newton's start check rejects a negative density and a y
    above 1."""
    m = build_uniform_mesh(2, 1, 1.0, 1.0)
    with pytest.raises(DriftFluxError):
        correct_mass_fraction(m, np.array([1.0, -1.0]), np.array([0.3, 0.3]),
                              np.array([0.1]), FS, 0.0, 0.1)
    with pytest.raises(DriftFluxError):
        correct_mass_fraction(m, np.array([1.0, 1.0]), np.array([0.3, 1.5]),
                              np.array([0.1]), FS, 0.0, 0.1)


def test_drift_model_validation():
    with pytest.raises(ValueError):
        DriftModel("darcy", lam=0.0)
    with pytest.raises(ValueError):
        DriftModel("constant", diffusion=-0.1)
    m = build_uniform_mesh(2, 1, 1.0, 1.0)
    one = np.ones(2)
    with pytest.raises(ValueError, match="unknown drift model 'weird'"):
        drift_fluxes(m, E51, DriftModel("weird"), one, one, 0.3 * one, np.array([1.0]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_darcy_closed_box_under_godunov_runs_in_bounds(seed):
    """Strong Darcy drift (lambda = 0.1) under the Godunov flux on the entropy
    suite's 4x4 closed box: with Newton's iterates kept at y in (0, 1], where
    the flux partials do not vanish, every y-correction converges and all 20
    steps stay in bounds."""
    problem = dataclasses.replace(random_wall_problem(np.random.default_rng(seed)),
                                  drift=DriftModel("darcy", lam=0.1), flux_fn=GOD)
    reports = simulate(problem, 0.05, 1.0).reports
    assert len(reports) == 21 and all(r.bounds_ok for r in reports)
