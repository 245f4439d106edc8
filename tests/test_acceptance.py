"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1 and 2 run the manufactured convergence studies at calibrated
resolutions; 3 to 10 exercise the stability, conservation and flux
properties on the stated instance counts; 11 (sloshing frequency) is the
long one and carries the ``slow`` marker.
"""

import pytest

from driftflux.driver import convergence_study
from driftflux.verification import (suite_bounds, suite_conservation,
                                    suite_drift_dissipation, suite_entropy,
                                    suite_flux_functions, suite_interface,
                                    suite_pressure_work)
from sloshing import sloshing_frequency


def _ratio(study, variable, coarse, fine):
    """The error ratio of the ``coarse`` mesh to the ``fine`` one at the study's first dt."""
    dt = study.dts[0]
    return study._error(variable, coarse, dt) / study._error(variable, fine, dt)


def _line(num, label, ok, detail=""):
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}: {label} {detail}")
    assert ok, f"criterion {num} failed: {label} {detail}"


def test_criterion_1_spatial_convergence():
    """Manufactured spatial orders in [0.7, 1.3] and 20^2/40^2 ratios in [1.5, 2.8]."""
    study = convergence_study([10, 20, 40], [0.00078125], t_end=0.5)
    details = []
    ok = True
    for var in ("u", "p", "y"):
        order = study.observed_order(var, "space")
        r_10_20 = _ratio(study, var, 10, 20)
        r_20_40 = _ratio(study, var, 20, 40)
        details.append(f"{var}: order={order:.3f} ratios=({r_10_20:.2f},{r_20_40:.2f})")
        ok = ok and 0.7 <= order <= 1.3 and 1.5 <= r_20_40 <= 2.8
    _line(1, "spatial convergence", ok, "; ".join(details))


def test_criterion_2_temporal_convergence():
    """Pre-plateau dt halvings on the 40^2 mesh: ratios in [1.5, 2.8], order in [0.7, 1.3]."""
    dts = [0.1, 0.05, 0.025, 0.0125]
    study = convergence_study([40], dts, t_end=0.1)
    details = []
    ok = True
    for var in ("u", "p", "y"):
        errs = [study.errors[(40, dt)][{"u": 0, "p": 1, "y": 2}[var]] for dt in dts]
        ratios = [errs[i] / errs[i + 1] for i in range(len(dts) - 1)]
        order = study.observed_order(var, "time")
        details.append(f"{var}: order={order:.3f} ratios=(" +
                       ",".join(f"{r:.2f}" for r in ratios) + ")")
        ok = ok and 0.7 <= order <= 1.3
        ok = ok and all(1.5 <= r <= 2.8 for r in ratios)
    _line(2, "temporal convergence", ok, "; ".join(details))


def test_criterion_3_physical_bounds():
    """rho, p, z > 0 and y in (y_floor(1-1e-12), 1] over full runs."""
    result = suite_bounds(manufactured_steps=50, sloshing_steps=60)
    _line(3, "physical bounds", result.passed, "; ".join(result.lines))


def test_criterion_4_conservation():
    result = suite_conservation(n_steps=120)
    _line(4, "conservation over 120 steps", result.passed, "; ".join(result.lines))


def test_criterion_5_interface_preservation():
    result = suite_interface(n_steps=50)
    _line(5, "interface preservation", result.passed, "; ".join(result.lines))


def test_criterion_6_entropy_inequality():
    result = suite_entropy(n_seeds=20, n_steps=20)
    _line(6, "per-step entropy inequality", result.passed, "; ".join(result.lines))


def test_criterion_7_pressure_work():
    result = suite_pressure_work(n_instances=1000, n_pairs=0)
    _line(7, "pressure-work inequality (1000 instances)", result.passed,
          "; ".join(result.lines))


def test_criterion_8_segment_point():
    result = suite_pressure_work(n_instances=0, n_pairs=1000)
    _line(8, "segment-point lemma (1000 pairs)", result.passed, "; ".join(result.lines))


def test_criterion_9_drift_dissipativity():
    result = suite_drift_dissipation(n_states=200)
    _line(9, "Darcy drift dissipativity", result.passed, "; ".join(result.lines))


def test_criterion_10_flux_functions():
    result = suite_flux_functions(n_random=200)
    _line(10, "monotone flux properties", result.passed, "; ".join(result.lines))


@pytest.mark.slow
def test_criterion_11_sloshing_frequency():
    """Interface oscillation period within 15% of 2 pi / omega_1 (long)."""
    w_fit, w1, rel, n = sloshing_frequency(nx=70, ny=90, dt=0.01, t_end=1.8)
    _line(11, "sloshing frequency", rel <= 0.15,
          f"fitted omega={w_fit:.4f}, analytic omega_1={w1:.4f}, rel err={rel:.3f}, "
          f"{n} samples over >= 1.5 periods")
