import os

import numpy as np
import pytest

from driftflux.config import load_config, make_config
from driftflux.driver import (exact_injection_errors, manufactured_errors,
                              run_simulation, simulate)
from driftflux.errors import ConfigurationError


def test_quiescent_uniform_static():
    config = make_config("uniform", nx=4, ny=4, dt=0.05, t_end=0.5)
    res = run_simulation(config)
    assert len(res.reports) == 11
    first, last = res.reports[1], res.reports[-1]
    assert np.max(np.abs(res.state.u)) == 0.0
    assert last.mass == pytest.approx(first.mass, rel=1e-14)
    assert last.p_min == pytest.approx(first.p_min, rel=1e-12)
    assert all(r.bounds_ok for r in res.reports)


def test_exact_injection_gives_zero_errors():
    assert exact_injection_errors(8) == (0.0, 0.0, 0.0)


def test_manufactured_smoke_run():
    config = make_config("manufactured", nx=8, ny=8, dt=0.02, t_end=0.1)
    res = run_simulation(config)
    errs = manufactured_errors(res)
    assert all(np.isfinite(e) for e in errs)
    assert all(e < 0.2 for e in errs)
    assert all(r.bounds_ok for r in res.reports)


def test_renormalized_run_matches_physics():
    from driftflux.verification import random_wall_problem

    problem = random_wall_problem(np.random.default_rng(71), 4, 4)
    res = simulate(problem, dt=0.05, t_end=0.25, renormalize=True)
    assert all(r.entropy_margin >= -1e-10 for r in res.reports[1:])


def test_csv_outputs_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        config = make_config("interface", nx=10, ny=2, dt=0.01, t_end=0.05,
                             out_dir=str(out), dump_interval=2)
        run_simulation(config)
    csv1 = (out1 / "diagnostics.csv").read_bytes()
    csv2 = (out2 / "diagnostics.csv").read_bytes()
    assert csv1 == csv2
    vtk1 = (out1 / "fields_000004.vtk").read_bytes()
    assert vtk1 == (out2 / "fields_000004.vtk").read_bytes()


def test_csv_column_order(tmp_path):
    config = make_config("uniform", nx=2, ny=2, dt=0.05, t_end=0.1,
                         out_dir=str(tmp_path))
    run_simulation(config)
    header = (tmp_path / "diagnostics.csv").read_text().splitlines()[0]
    assert header == ("step,time,mass,gas_mass,mom_x,mom_y,kinetic,free_energy,"
                      "entropy_margin,y_min,y_max,p_min,p_max,newton_iters,outer_iters")


def test_vtk_structure(tmp_path):
    config = make_config("uniform", nx=3, ny=2, dt=0.05, t_end=0.05,
                         out_dir=str(tmp_path), dump_interval=1)
    run_simulation(config)
    text = (tmp_path / "fields_000001.vtk").read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert "DATASET RECTILINEAR_GRID" in text
    assert "DIMENSIONS 4 3 1" in text
    assert "CELL_DATA 6" in text
    for name in ("p", "rho", "z", "y", "alpha_g"):
        assert f"SCALARS {name} double 1" in text
    assert "VECTORS velocity double" in text


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("""
[case]
name = interface
y_left = 0.2

[mesh]
nx = 12
ny = 3

[time]
dt = 0.01
t_end = 0.05

[solver]
renormalize = false
newton_rel_tol = 1e-11

[drift]
u_r = 0.0, 0.5
""")
    config = load_config(path)
    assert config.case == "interface"
    assert config.nx == 12 and config.ny == 3
    assert config.dt == 0.01
    assert config.newton_rel_tol == 1e-11
    assert config.u_r == (0.0, 0.5)
    assert config.options["y_left"] == "0.2"
    res = run_simulation(config)
    assert res.reports[-1].time == pytest.approx(0.05)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        make_config("uniform", dt=-0.1)
    with pytest.raises(ConfigurationError):
        make_config("uniform", dt=0.1, t_end=0.05)
    with pytest.raises(ConfigurationError):
        make_config("uniform", flux="weird")
    with pytest.raises(ConfigurationError):
        load_config("/nonexistent/file.cfg")


def test_abort_writes_csv_note(tmp_path):
    # poison the gas-fraction source after the first step: the Newton solve
    # sees a non-finite residual and the driver must abort with diagnostics
    from driftflux.errors import SimulationError
    from driftflux.verification import random_wall_problem

    problem = random_wall_problem(np.random.default_rng(3), 3, 3)

    def poisoned(x, t):
        return np.full(len(x), np.nan if t > 0.06 else 0.0)

    problem.y_source = poisoned
    problem.y_ceiling_guard = False
    with pytest.raises(SimulationError) as err:
        simulate(problem, dt=0.05, t_end=0.5, out_dir=str(tmp_path))
    assert err.value.reports
    text = (tmp_path / "diagnostics.csv").read_text()
    assert "# abort:" in text


def test_bubble_column_smoke():
    config = make_config("bubble_column", nx=10, ny=20, dt=0.02, t_end=0.1)
    res = run_simulation(config)
    assert all(r.bounds_ok for r in res.reports)
    # gas enters: total mass grows monotonically
    masses = [r.mass for r in res.reports]
    assert all(b >= a for a, b in zip(masses, masses[1:]))


def test_sloshing_smoke():
    config = make_config("sloshing", nx=10, ny=14, dt=0.02, t_end=0.1)
    res = run_simulation(config)
    assert all(r.bounds_ok for r in res.reports)
    assert np.all(np.isfinite(res.state.u))
    # the mass-coupled normal velocities stay bounded even when the
    # pressure-blind tangential dofs carry coarse-mesh transients
    m = res.problem.mesh
    vn = np.sum(res.state.u[: m.n_internal] * m.edge_normal, axis=1)
    assert np.max(np.abs(vn)) < 0.5


def test_state_flux_compatibility_invariant():
    """|K|/dt (rho - rho_prev) + sum_faces F = 0 holds for every stored state."""
    from driftflux.verification import random_wall_problem
    from driftflux.driver import advance, initial_state
    from driftflux.momentum import MomentumAssembler
    from driftflux.pressure_correction import PressureCorrector
    from driftflux.linalg import NewtonConfig

    problem = random_wall_problem(np.random.default_rng(77), 4, 4)
    m = problem.mesh
    dt = 0.05
    asm = MomentumAssembler(m, problem.geom, problem.viscosity)
    corr = PressureCorrector(m, problem.geom, problem.eos, problem.bc)
    state = initial_state(problem, dt)
    for n in range(1, 4):
        resid = m.cell_measure / dt * (state.rho - state.rho_prev)
        np.add.at(resid, m.edge_K, state.fluxes[: m.n_internal])
        np.add.at(resid, m.edge_L, -state.fluxes[: m.n_internal])
        np.add.at(resid, m.face_K[m.n_internal:], state.fluxes[m.n_internal:])
        scale = max(1.0, float(np.max(np.abs(state.rho))) * m.cell_measure / dt)
        assert np.max(np.abs(resid)) < 1e-9 * scale
        state, _, _, _ = advance(problem, state, dt, n * dt, asm, corr, NewtonConfig())


def test_validate_state_detects_violations():
    from driftflux.fields import admissibility_violation
    from driftflux.eos import EosParams
    from driftflux import eos as E

    e = EosParams(5.0, 1.0)
    p = np.array([0.6, 0.8])
    y = np.array([0.3, 0.5])
    rho = E.rho_from_py(p, y, e)
    assert admissibility_violation(rho, rho * y, p, y) is None
    assert admissibility_violation(rho, rho * y, p, np.array([0.3, 1.5])) is not None
