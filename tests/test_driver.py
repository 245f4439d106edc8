import dataclasses
import glob
import os
import re

import numpy as np
import pytest

from driftflux import diagnostics, driver, fields, momentum
from driftflux import pressure_correction as pc
from driftflux.config import load_config, make_config
from driftflux.driver import (SimulationResult, build_case, manufactured_errors,
                              run_simulation, simulate, steps)
from driftflux.errors import ConfigurationError, InvariantViolation, SimulationError
from driftflux.fields import State
from driftflux.verification import random_wall_problem


def exact_injection_errors(n, t=0.5):
    """Harness self-test: sample the analytic fields, expect zero errors."""
    problem = build_case(make_config("manufactured", nx=n, ny=n))
    sol = problem.exact
    mesh = problem.mesh
    rho, _, y, z, p = sol.eval(t, mesh.cell_centers)
    rho_face = fields.face_density(rho, problem.geom)
    state = State(t=t, u=sol.velocity(mesh.face_midpoint, t), p=p, rho=rho, z=z,
                  y=y, rho_prev=rho, fluxes=np.zeros(mesh.n_faces),
                  rho_face=rho_face, rho_face_prev=rho_face)
    return manufactured_errors(SimulationResult(problem=problem, state=state, reports=[]))


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
    data = (tmp_path / "fields_000001.vtk").read_bytes()
    assert data.startswith(b"# vtk DataFile")
    assert b"\nBINARY\nDATASET RECTILINEAR_GRID\nDIMENSIONS 4 3 1\n" in data
    assert b"\nCELL_DATA 6\n" in data
    for name in ("p", "rho", "z", "y", "alpha_g"):
        assert f"\nSCALARS {name} double 1\nLOOKUP_TABLE default\n".encode() in data
    assert b"\nVECTORS velocity double\n" in data


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("""
[case]
name = interface

[mesh]
nx = 12
ny = 3

[time]
dt = 0.01
t_end = 0.05

[solver]
renormalize = false
flux = godunov

[output]
dump_interval = 2
""")
    config = load_config(path)
    assert config.case == "interface"
    assert config.nx == 12 and config.ny == 3
    assert config.dt == 0.01
    assert config.flux == "godunov"
    assert config.renormalize is False
    assert config.dump_interval == 2
    res = run_simulation(config)
    assert res.reports[-1].time == pytest.approx(0.05)


@pytest.mark.parametrize("section, line, message", [
    ("solver", "newton_rel_tol = 1e-11", "unknown config key solver.newton_rel_tol"),
    ("mesh", "nx = 4.7", "mesh.nx: cannot read '4.7' as int"),
    ("time", "dt = fast", "time.dt: cannot read 'fast' as float"),
    ("solver", "renormalize = maybe", "solver.renormalize: cannot read 'maybe' as bool"),
    ("output", "dump_interval = -1", "dump_interval must be >= 0"),
    ("time", "dt = nan", "need finite dt > 0"),
    ("time", "dt = inf", "need finite dt > 0"),
    ("time", "t_end = inf", "need finite dt > 0"),
    ("time", "t_end = nan", "need finite dt > 0"),
])
def test_config_file_rejects_bad_values(tmp_path, section, line, message):
    """The Newton targets are fixed, an integer key takes no fraction, a
    negative dump interval (which would dump every step) is refused, and so is
    a non-finite dt or t_end (the step count would be nan or infinite)."""
    path = tmp_path / "run.cfg"
    path.write_text(f"[case]\nname = uniform\n\n[{section}]\n{line}\n")
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        load_config(path)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        make_config("uniform", dt=-0.1)
    with pytest.raises(ConfigurationError):
        make_config("uniform", dt=0.1, t_end=0.05)
    with pytest.raises(ConfigurationError):
        make_config("uniform", flux="weird")
    with pytest.raises(ConfigurationError):
        load_config("/nonexistent/file.cfg")


@pytest.mark.parametrize("section, key, value", [
    ("physics", "drift", "darcy"), ("physics", "viscosity", "density_scaled"),
    ("physics", "lam", "0.5"), ("solver", "outer_max_iter", "3"),
    ("case", "y_left", "0.3"), ("case", "y_lfet", "0.3"), ("drift", "u_r", "0.0, 0.5"),
    ("physics", "rho_l", "900.0")])
def test_config_rejects_keys_outside_the_config_fields(tmp_path, section, key, value):
    for case in ("interface", "sloshing"):
        with pytest.raises(ConfigurationError, match=f"unknown config key {key}$"):
            make_config(case, nx=4, ny=4, **{key: value})
    path = tmp_path / "run.cfg"
    header = "" if section == "case" else f"\n[{section}]\n"
    path.write_text(f"[case]\nname = uniform\n{header}{key} = {value}\n")
    with pytest.raises(ConfigurationError, match=f"unknown config key {section}.{key}"):
        load_config(path)


def test_abort_writes_csv_note(tmp_path):
    # poison the gas-fraction source after the first step: the Newton solve
    # sees a non-finite residual and the driver must abort with diagnostics
    from driftflux.verification import random_wall_problem

    problem = random_wall_problem(np.random.default_rng(3), 3, 3)

    def poisoned(x, t):
        return np.full(len(x), np.nan if t > 0.06 else 0.0)

    problem.y_source = poisoned
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


def test_sloshing_keeps_the_y_floor_at_four_times_the_time_step():
    """Sloshing 35x45 at dt 0.04, four times the shipped step: every report
    keeps y_min within the floor's relative slack, 1e-9 (1 - 1e-12)."""
    res = run_simulation(make_config("sloshing", nx=35, ny=45, dt=0.04, t_end=0.4))
    assert len(res.reports) == 11
    assert all(r.bounds_ok for r in res.reports)


def test_sloshing_stops_when_a_step_breaks_the_y_floor():
    """Sloshing 35x45 at dt 0.16 ends its first step below the y floor
    (y_min = 1e-9 (1 - 3.7e-10)); the step guard stops the run there instead
    of reporting the state."""
    with pytest.raises(SimulationError, match="aborted at step 1: y must stay above 1e-09"):
        run_simulation(make_config("sloshing", nx=35, ny=45, dt=0.16, t_end=0.32))


def test_sloshing_10x10_stops_with_a_named_error():
    """Sloshing 10x10 at dt 0.01 ends its second step below the y floor,
    which 14x18 and larger meshes keep.  At this stress input the run stops
    with a named error at that step, and the reports it carries are finite
    and in bounds: no NaN, no silent bound break, no hang."""
    with pytest.raises(SimulationError,
                       match="aborted at step 2: y must stay above 1e-09") as info:
        run_simulation(make_config("sloshing", nx=10, ny=10, dt=0.01, t_end=0.5))
    reports = info.value.reports
    assert info.value.step == 2 and [r.step for r in reports] == [0, 1]
    assert all(r.bounds_ok for r in reports)
    assert np.all(np.isfinite([dataclasses.astuple(r) for r in reports]))


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


@pytest.mark.parametrize("path,flux", [
    # the default flux keeps the bare config name as its id
    pytest.param(path, flux, id=os.path.basename(path)[:-4] + suffix)
    for path in sorted(glob.glob(os.path.join(CONFIGS, "*.cfg")))
    for flux, suffix in (("flux_splitting", ""), ("godunov", "-godunov"))])
def test_shipped_config_runs_at_its_shipped_size(path, flux):
    config = load_config(path)
    assert config.flux == "flux_splitting"
    res = run_simulation(dataclasses.replace(config, t_end=2 * config.dt, flux=flux,
                                             out_dir=""))
    assert len(res.reports) == 3
    assert all(r.bounds_ok for r in res.reports)


def test_state_flux_compatibility_invariant():
    """|K|/dt (rho - rho_prev) + sum_faces F = 0 holds for every stepped state."""
    from driftflux.verification import random_wall_problem

    problem = random_wall_problem(np.random.default_rng(77), 4, 4)
    m = problem.mesh
    dt = 0.05
    for state, _ in steps(problem, dt, 4 * dt):
        resid = m.cell_measure / dt * (state.rho - state.rho_prev)
        np.add.at(resid, m.edge_K, state.fluxes[: m.n_internal])
        np.add.at(resid, m.edge_L, -state.fluxes[: m.n_internal])
        np.add.at(resid, m.face_K[m.n_internal:], state.fluxes[m.n_internal:])
        scale = max(1.0, float(np.max(np.abs(state.rho))) * m.cell_measure / dt)
        assert np.max(np.abs(resid)) < 1e-9 * scale


def test_each_vtk_dump_is_written_once(tmp_path, monkeypatch):
    written = []
    write_vtk = driver.write_vtk

    def counting_write_vtk(mesh, state, eos, path):
        written.append(os.path.basename(path))
        write_vtk(mesh, state, eos, path)

    monkeypatch.setattr(driver, "write_vtk", counting_write_vtk)
    for t_end, dumps in ((0.2, ["fields_000000.vtk", "fields_000002.vtk", "fields_000004.vtk"]),
                         (0.15, ["fields_000000.vtk", "fields_000002.vtk", "fields_000003.vtk"])):
        written.clear()
        run_simulation(make_config("uniform", nx=3, ny=2, dt=0.05, t_end=t_end,
                                   out_dir=str(tmp_path), dump_interval=2))
        assert written == dumps


def test_sloshing_frequency_run_is_guarded(monkeypatch):
    """The frequency fit consumes the guarded time loop: a stepped state that
    leaves the admissible set stops it with a named error."""
    from sloshing import sloshing_frequency

    args = dict(nx=14, ny=18, dt=0.02, t_end=0.4)
    assert sloshing_frequency(**args) == (6.567601259800116, 5.534495443651783,
                                          0.18666666666666684, 21)
    advance = driver.advance

    def poisoned_advance(problem, state, dt, t_next, *args, **kwargs):
        state_new, *rest = advance(problem, state, dt, t_next, *args, **kwargs)
        if t_next > 1.5 * dt:
            state_new = dataclasses.replace(state_new, z=-state_new.z)
        return (state_new, *rest)

    monkeypatch.setattr(driver, "advance", poisoned_advance)
    with pytest.raises(InvariantViolation, match="rho, p, z must stay positive"):
        sloshing_frequency(**args)


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


@pytest.mark.parametrize("renormalize", [False, True])
def test_a_step_forms_each_face_density_once_and_reports_the_guard_verdict(
        monkeypatch, renormalize):
    """Each level's face density is formed once and carried on its ``State``:
    level 0 forms those of rho^0 and rho_prev, each step only that of its new
    density, which the renormalization, the predictor, the corrector and the
    reports of this step and the next read.  The report's ``bounds_ok`` is
    the guard's verdict: no report calls ``admissibility_violation``."""
    calls = []
    face_density = fields.face_density

    def counting(rho, geom):
        calls.append(1)
        return face_density(rho, geom)

    for module in (driver, diagnostics, fields, pc, momentum):
        monkeypatch.setattr(module, "face_density", counting, raising=False)

    def no_second_check(*args, **kwargs):
        raise AssertionError("the report re-checked the admissible set")

    monkeypatch.setattr(diagnostics, "admissibility_violation", no_second_check,
                        raising=False)
    problem = random_wall_problem(np.random.default_rng(7))
    res = simulate(problem, dt=0.05, t_end=0.15, renormalize=renormalize)
    assert len(res.reports) == 4 and all(r.bounds_ok for r in res.reports)
    assert len(calls) == 2 + 1 * 3
