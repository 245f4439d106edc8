import numpy as np
import pytest
from hypothesis import given, strategies as st

from driftflux import eos
from driftflux.eos import EosParams
from driftflux.errors import InvariantViolation

E51 = EosParams(rho_l=5.0, a2=1.0)
PHYS = EosParams(rho_l=1000.0, a2=1e5 / 1.2)


def h_p_prime(p, e):
    """h_p'(p) = (rho_l - rho_g(p)) / (rho_l rho_g(p)) = a^2/p - 1/rho_l."""
    return e.a2 / np.asarray(p, dtype=float) - 1.0 / e.rho_l


def random_admissible(rng, n, e=E51):
    p = rng.uniform(0.3, 3.0, n) * e.a2 * e.rho_l / 5.0
    y = rng.uniform(0.05, 0.95, n)
    rho = eos.rho_from_py(p, y, e)
    return rho, rho * y, p


def test_rho_from_pz_examples():
    # gas density equal to the liquid density
    assert eos.rho_from_pz(E51.a2 * E51.rho_l, 0.7, E51) == pytest.approx(5.0)
    # pure liquid
    assert eos.rho_from_pz(0.123, 0.0, E51) == pytest.approx(5.0)
    # consistency with the manufactured fields
    assert eos.rho_from_pz(0.5, 4.0 / 9.0, E51) == pytest.approx(1.0)


def test_rho_from_py_examples():
    assert eos.rho_from_py(0.7, 0.0, E51) == pytest.approx(5.0)
    assert eos.rho_from_py(0.7, 1.0, E51) == pytest.approx(0.7)
    assert eos.rho_from_py(0.5, 4.0 / 9.0, E51) == pytest.approx(1.0)
    # physical parameters: rho_g = 1.2 at p = 1e5
    assert eos.rho_from_py(1e5, 1.0, PHYS) == pytest.approx(1.2)


def test_p_from_rho_z_examples():
    assert eos.p_from_rho_z(5.0, 0.3, E51) == pytest.approx(5.0)
    assert eos.p_from_rho_z(1.0, 4.0 / 9.0, E51) == pytest.approx(0.5)


def test_nonpositive_pressure_rejected():
    with pytest.raises(InvariantViolation):
        eos.rho_from_pz(0.0, 0.1, E51)
    with pytest.raises(InvariantViolation):
        eos.rho_from_py(-1.0, 0.1, E51)
    with pytest.raises(InvariantViolation):
        eos.p_from_rho_z(5.0, -0.1, E51)  # outside C


@given(st.floats(0.05, 0.95), st.floats(0.1, 10.0))
def test_round_trip_pz(y, p):
    rho = eos.rho_from_py(p, y, E51)
    z = rho * y
    assert eos.p_from_rho_z(rho, z, E51) == pytest.approx(p, rel=1e-12)
    assert eos.rho_from_pz(p, z, E51) == pytest.approx(rho, rel=1e-12)


def test_three_eos_forms_agree():
    rng = np.random.default_rng(7)
    for e in (E51, PHYS):
        rho, z, p = random_admissible(rng, 200, e)
        y = z / rho
        assert np.allclose(eos.rho_from_pz(p, z, e), rho, rtol=1e-12)
        assert np.allclose(eos.rho_from_py(p, y, e), rho, rtol=1e-12)
        assert np.allclose(eos.p_from_rho_z(rho, z, e), p, rtol=1e-12)


def test_free_energy_examples():
    assert eos.free_energy(1.0, 1.0, E51) == pytest.approx(0.0)  # rho_g = 1
    val = eos.free_energy(1.0, 4.0 / 9.0, E51)
    assert val == pytest.approx(4.0 / 9.0 * np.log(0.5), rel=1e-12)
    assert val == pytest.approx(-0.30807, abs=5e-6)


def _fd4(f, x, h):
    """Fourth-order central difference."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def test_free_energy_legendre_identity():
    # rho df/drho + z df/dz - f = p, derivatives by central differences
    rng = np.random.default_rng(11)
    rho, z, p = random_admissible(rng, 1000)
    h = 1e-4
    dfr = _fd4(lambda r: eos.free_energy(r, z, E51), rho, h)
    dfz = _fd4(lambda zz: eos.free_energy(rho, zz, E51), z, h)
    lhs = rho * dfr + z * dfz - eos.free_energy(rho, z, E51)
    assert np.max(np.abs(lhs - p)) < 1e-10 * max(1.0, float(np.max(p)))


def test_free_energy_grad_matches_fd():
    rng = np.random.default_rng(12)
    rho, z, _ = random_admissible(rng, 500)
    h = 1e-6
    dfr, dfz = eos.free_energy_grad(rho, z, E51)
    fd_r = (eos.free_energy(rho + h, z, E51) - eos.free_energy(rho - h, z, E51)) / (2 * h)
    fd_z = (eos.free_energy(rho, z + h, E51) - eos.free_energy(rho, z - h, E51)) / (2 * h)
    assert np.allclose(dfr, fd_r, rtol=1e-6, atol=1e-8)
    assert np.allclose(dfz, fd_z, rtol=1e-6, atol=1e-8)


def test_free_energy_convexity_midpoint():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        a = np.array(random_admissible(rng, 1))[:2, 0]
        b = np.array(random_admissible(rng, 1))[:2, 0]
        mid = 0.5 * (a + b)
        f_mid = eos.free_energy(mid[0], mid[1], E51)
        avg = 0.5 * (eos.free_energy(a[0], a[1], E51) + eos.free_energy(b[0], b[1], E51))
        scale = max(1.0, abs(avg))
        assert f_mid <= avg + 1e-12 * scale


def test_h_p_examples():
    assert h_p_prime(E51.a2 * E51.rho_l, E51) == pytest.approx(0.0)
    assert eos.h_p(5.0, E51) == pytest.approx(np.log(5.0), rel=1e-12)
    assert eos.h_p(5.0, E51) == pytest.approx(1.60944, abs=5e-6)


def test_h_p_prime_matches_fd_and_decreasing():
    ps = np.logspace(-2, 2, 60)
    h = 1e-6 * ps
    fd = (eos.h_p(ps + h, E51) - eos.h_p(ps - h, E51)) / (2 * h)
    assert np.allclose(h_p_prime(ps, E51), fd, atol=1e-6)
    assert np.all(np.diff(h_p_prime(ps, E51)) < 0)


def test_h_p_equals_dz_free_energy():
    rng = np.random.default_rng(17)
    rho, z, p = random_admissible(rng, 300)
    dfz = _fd4(lambda zz: eos.free_energy(rho, zz, E51), z, 1e-4)
    assert np.max(np.abs(eos.h_p(p, E51) - dfz)) < 1e-10 * max(1.0, float(np.max(np.abs(dfz))))


def test_drift_edge_pressure_degenerate():
    assert eos.drift_edge_pressure(0.7, 0.7, E51) == pytest.approx(0.7)


def test_drift_edge_pressure_example():
    p_s = float(eos.drift_edge_pressure(1.0, 5.0, E51))
    s = (eos.h_p(1.0, E51) - eos.h_p(5.0, E51)) / (1.0 - 5.0)
    assert s == pytest.approx(0.202360, abs=1e-6)
    assert p_s == pytest.approx(2.4853, abs=1e-4)
    assert 1.0 <= p_s <= 5.0
    # the mean-value condition holds exactly
    assert h_p_prime(p_s, E51) == pytest.approx(s, abs=1e-10)


def test_drift_edge_pressure_sign_property():
    rng = np.random.default_rng(19)
    p1 = rng.uniform(0.05, 20.0, 1000)
    p2 = rng.uniform(0.05, 20.0, 1000)
    ps = eos.drift_edge_pressure(p1, p2, E51)
    assert np.all(ps >= np.minimum(p1, p2) - 1e-14)
    assert np.all(ps <= np.maximum(p1, p2) + 1e-14)
    prod = h_p_prime(ps, E51) * (p1 - p2) * (eos.h_p(p1, E51) - eos.h_p(p2, E51))
    assert np.all(prod >= -1e-14)
