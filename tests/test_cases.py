import os
import subprocess
import sys

import numpy as np
import pytest

from driftflux import eos as E
from driftflux.cases import (GRAVITY, ManufacturedSolution, SloshingCase,
                             _hydrostatic_pressure, build_case)
from driftflux.config import make_config
from driftflux.errors import ConfigurationError
from sloshing import omega, wave_number


N_TERMS = 200  # odd modes 1, 3, ..., 2 N_TERMS + 1 of the interface series


def sloshing_interface(x, t, case, alt_series_convention=False):
    """Analytic small-amplitude interface elevation xi(x, t) of the sloshing
    case, the series truncated after mode 2 N_TERMS + 1.

    ``alt_series_convention`` is the variant with doubled wave numbers and
    time-argument cosines, which does not start flat.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    odd = 2 * np.arange(N_TERMS + 1) + 1
    modes = 2 * odd if alt_series_convention else odd  # k_{2n} = 2 pi n / L
    k = wave_number(case, modes)
    w = omega(case, modes)
    phase = k[:, None] * (t if alt_series_convention else x[None, :])
    series = (4.0 / (case.L * k**2))[:, None] * np.cos(w[:, None] * t) * np.cos(phase)
    series = np.broadcast_to(series, (odd.size, x.size))
    return case.a0 / case.g * (x - case.L / 2 + np.sum(series, axis=0))


@pytest.fixture(scope="module")
def sol():
    return ManufacturedSolution()


def test_manufactured_t0(sol):
    x = np.array([[0.37, -0.21], [0.8, 0.4]])
    rho, rho_u, y, z, p = sol.eval(0.0, x)
    assert np.allclose(rho, 1.0)
    assert np.allclose(p, 0.5)
    assert np.allclose(y, 4.0 / 9.0)
    assert np.allclose(z, 4.0 / 9.0)
    expect = -0.25 * np.column_stack([np.sin(np.pi * x[:, 0]), np.cos(np.pi * x[:, 1])])
    assert np.allclose(rho_u, expect)


def test_manufactured_t_half_center(sol):
    rho, rho_u, y, z, p = sol.eval(0.5, np.array([[0.0, 0.0]]))
    assert rho[0] == pytest.approx(1.25)
    assert np.allclose(rho_u, 0.0, atol=1e-15)


def test_manufactured_pressure_identically_constant(sol):
    """The manufactured y is chosen so the exact pressure is 0.5 everywhere."""
    rng = np.random.default_rng(61)
    x = np.column_stack([rng.uniform(0, 1, 200), rng.uniform(-0.5, 0.5, 200)])
    for t in (0.0, 0.17, 0.5, 0.93):
        assert np.allclose(sol.eval(t, x)[4], 0.5, rtol=1e-12)


def test_manufactured_mass_balance(sol):
    rng = np.random.default_rng(63)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        t = rng.uniform(0.05, 0.95)
        x1, x2 = rng.uniform(0.05, 0.95), rng.uniform(-0.45, 0.45)

        def rho(tt, a, b):
            return sol.eval(tt, np.array([[a, b]]))[0][0]

        def ru(tt, a, b, i):
            return sol.eval(tt, np.array([[a, b]]))[1][0][i]

        resid = ((rho(t + h, x1, x2) - rho(t - h, x1, x2)) / (2 * h)
                 + (ru(t, x1 + h, x2, 0) - ru(t, x1 - h, x2, 0)) / (2 * h)
                 + (ru(t, x1, x2 + h, 1) - ru(t, x1, x2 - h, 1)) / (2 * h))
        worst = max(worst, abs(resid))
    assert worst < 1e-8


def test_manufactured_momentum_forcing_fd(sol):
    """S_mom matches finite differences of the analytic fields."""
    rng = np.random.default_rng(65)
    mu = sol.mu
    h = 1e-4

    def fields_at(t, a, b):
        rho, rho_u, y, z, p = sol.eval(t, np.array([[a, b]]))
        return rho[0], rho_u[0], p[0]

    def u_at(t, a, b):
        return sol.velocity(np.array([[a, b]]), t)[0]

    worst = 0.0
    pts = [(0.25, 0.5, 0.0)] + [
        (rng.uniform(0.05, 0.95), rng.uniform(0.1, 0.9), rng.uniform(-0.4, 0.4))
        for _ in range(100)]
    for t, a, b in pts:
        s = sol.momentum_source(np.array([[a, b]]), t)[0]
        for i in range(2):
            d_rho_u = (fields_at(t + h, a, b)[1][i] - fields_at(t - h, a, b)[1][i]) / (2 * h)

            def flux1(aa, bb):
                rho, rho_u, _ = fields_at(t, aa, bb)
                return rho_u[0] * rho_u[i] / rho

            def flux2(aa, bb):
                rho, rho_u, _ = fields_at(t, aa, bb)
                return rho_u[1] * rho_u[i] / rho

            conv = ((flux1(a + h, b) - flux1(a - h, b)) / (2 * h)
                    + (flux2(a, b + h) - flux2(a, b - h)) / (2 * h))
            dp = ((fields_at(t, a + h, b)[2] - fields_at(t, a - h, b)[2]) / (2 * h) if i == 0
                  else (fields_at(t, a, b + h)[2] - fields_at(t, a, b - h)[2]) / (2 * h))
            lap = ((u_at(t, a + h, b)[i] - 2 * u_at(t, a, b)[i] + u_at(t, a - h, b)[i]) / h**2
                   + (u_at(t, a, b + h)[i] - 2 * u_at(t, a, b)[i] + u_at(t, a, b - h)[i]) / h**2)

            def div_u(aa, bb):
                du = ((u_at(t, aa + h, bb)[0] - u_at(t, aa - h, bb)[0]) / (2 * h)
                      + (u_at(t, aa, bb + h)[1] - u_at(t, aa, bb - h)[1]) / (2 * h))
                return du

            grad_div = ((div_u(a + h, b) - div_u(a - h, b)) / (2 * h) if i == 0
                        else (div_u(a, b + h) - div_u(a, b - h)) / (2 * h))
            resid = d_rho_u + conv + dp - mu * (lap + grad_div / 3.0) - s[i]
            worst = max(worst, abs(resid))
    assert worst < 1e-6


def test_manufactured_y_forcing_fd(sol):
    rng = np.random.default_rng(67)
    h = 1e-4
    D = sol.diffusion
    worst = 0.0
    for _ in range(100):
        t = rng.uniform(0.05, 0.95)
        a, b = rng.uniform(0.1, 0.9), rng.uniform(-0.4, 0.4)

        def zf(tt, aa, bb):
            return sol.eval(tt, np.array([[aa, bb]]))[3][0]

        def yf(aa, bb):
            return sol.eval(t, np.array([[aa, bb]]))[2][0]

        def zu(aa, bb, i):
            vals = sol.eval(t, np.array([[aa, bb]]))
            return vals[3][0] * vals[1][0][i] / vals[0][0]

        def drift(aa, bb):
            vals = sol.eval(t, np.array([[aa, bb]]))
            return vals[0][0] * vals[2][0] * (1 - vals[2][0])

        dz = (zf(t + h, a, b) - zf(t - h, a, b)) / (2 * h)
        conv = ((zu(a + h, b, 0) - zu(a - h, b, 0)) / (2 * h)
                + (zu(a, b + h, 1) - zu(a, b - h, 1)) / (2 * h))
        dr = (drift(a, b + h) - drift(a, b - h)) / (2 * h)  # u_r = (0, 1)
        lap = ((yf(a + h, b) - 2 * yf(a, b) + yf(a - h, b)) / h**2
               + (yf(a, b + h) - 2 * yf(a, b) + yf(a, b - h)) / h**2)
        s = sol.y_source(np.array([[a, b]]), t)[0]
        worst = max(worst, abs(dz + conv + dr - D * lap - s))
    assert worst < 1e-6


def test_manufactured_boundary_flux_fd(sol):
    rng = np.random.default_rng(69)
    h = 1e-5
    for _ in range(20):
        t = rng.uniform(0.05, 0.95)
        a, b = rng.uniform(0.1, 0.9), rng.uniform(-0.4, 0.4)
        n = np.array([[0.0, 1.0]])

        def yf(bb):
            return sol.eval(t, np.array([[a, bb]]))[2][0]

        vals = sol.eval(t, np.array([[a, b]]))
        drift = vals[0][0] * vals[2][0] * (1 - vals[2][0])  # rho phi(y) u_r.n
        dy = (yf(b + h) - yf(b - h)) / (2 * h)
        expect = drift - sol.diffusion * dy
        got = sol.y_boundary_flux(np.array([[a, b]]), t, n)[0]
        assert got == pytest.approx(expect, abs=1e-7)


def _symbolic_solution(rho_l, a2, mu, diffusion, u_r):
    """The manufactured fields and forcing derived with sympy, lambdified to numpy."""
    sp = pytest.importorskip("sympy")
    t, x1, x2 = sp.symbols("t x1 x2", real=True)
    rho = 1 + sp.Rational(1, 4) * sp.sin(sp.pi * t) * (sp.cos(sp.pi * x1) - sp.sin(sp.pi * x2))
    rho_u1 = -sp.Rational(1, 4) * sp.cos(sp.pi * t) * sp.sin(sp.pi * x1)
    rho_u2 = -sp.Rational(1, 4) * sp.cos(sp.pi * t) * sp.cos(sp.pi * x2)
    y = (sp.Rational(5, 2) - rho / 2) / (sp.Rational(9, 2) * rho)
    z = rho * y
    p = a2 * z * rho_l / (z + rho_l - rho)
    u1 = rho_u1 / rho
    u2 = rho_u2 / rho
    div_u = sp.diff(u1, x1) + sp.diff(u2, x2)

    def mom_source(i, ui, rho_ui):
        conv = sp.diff(rho * u1 * ui, x1) + sp.diff(rho * u2 * ui, x2)
        lap = sp.diff(ui, x1, 2) + sp.diff(ui, x2, 2)
        xi = (x1, x2)[i]
        return (sp.diff(rho_ui, t) + conv + sp.diff(p, xi)
                - mu * (lap + sp.Rational(1, 3) * sp.diff(div_u, xi)))

    drift = sp.diff(rho * y * (1 - y) * u_r[0], x1) + sp.diff(rho * y * (1 - y) * u_r[1], x2)
    lap_y = sp.diff(y, x1, 2) + sp.diff(y, x2, 2)
    s_y = (sp.diff(z, t) + sp.diff(z * u1, x1) + sp.diff(z * u2, x2)
           + drift - diffusion * lap_y)
    names = {"rho": rho, "rho_u1": rho_u1, "rho_u2": rho_u2, "u1": u1, "u2": u2,
             "y": y, "z": z, "p": p, "s1": mom_source(0, u1, rho_u1),
             "s2": mom_source(1, u2, rho_u2), "s_y": s_y,
             "drift1": rho * y * (1 - y) * u_r[0], "drift2": rho * y * (1 - y) * u_r[1],
             "dy1": sp.diff(y, x1), "dy2": sp.diff(y, x2)}
    return {k: sp.lambdify((t, x1, x2), v, "numpy") for k, v in names.items()}


_PARAMS = [{}, dict(rho_l=7.0, a2=2.0, mu=0.05, diffusion=0.3, u_r=(0.4, -0.7))]


def _symbolic_deviation(sol, fn, t, x, normal):
    """Relative max-norm deviation of every closed-form output from the symbolic one."""
    n = len(x)

    def sym(*names):
        cols = [np.broadcast_to(fn[k](t, x[:, 0], x[:, 1]), (n,)) for k in names]
        return cols[0] if len(cols) == 1 else np.column_stack(cols)

    rho, rho_u, y, z, p = sol.eval(t, x)
    flux = np.sum((sym("drift1", "drift2") - sol.diffusion * sym("dy1", "dy2")) * normal,
                  axis=1)
    pairs = {
        "rho": (rho, sym("rho")), "rho_u": (rho_u, sym("rho_u1", "rho_u2")),
        "y": (y, sym("y")), "z": (z, sym("z")), "p": (p, sym("p")),
        "velocity": (sol.velocity(x, t), sym("u1", "u2")),
        "pressure": (sol.pressure(x, t), sym("p")),
        "mass_fraction": (sol.mass_fraction(x, t), sym("y")),
        "state": (np.column_stack(sol.state(x, t)), sym("rho", "z")),
        "momentum_source": (sol.momentum_source(x, t), sym("s1", "s2")),
        "y_source": (sol.y_source(x, t), sym("s_y")),
        "y_boundary_flux": (sol.y_boundary_flux(x, t, normal), flux),
    }
    deviation = {}
    for name, (got, want) in pairs.items():
        assert got.shape == want.shape, name
        deviation[name] = np.max(np.abs(got - want)) / np.max(np.abs(want))
    return deviation


@pytest.mark.parametrize("params", _PARAMS)
def test_manufactured_closed_form_matches_symbolic(params):
    """Every output of the closed form equals the symbolic derivation to roundoff."""
    sol = ManufacturedSolution(**params)
    fn = _symbolic_solution(sol.eos.rho_l, sol.eos.a2, sol.mu, sol.diffusion, sol.u_r)
    rng = np.random.default_rng(71)
    n = 500
    worst = {}
    for t in rng.uniform(0.0, 1.0, 10):
        x = np.column_stack([rng.uniform(0.0, 1.0, n), rng.uniform(-0.5, 0.5, n)])
        angle = rng.uniform(0.0, 2.0 * np.pi, n)
        normal = np.column_stack([np.cos(angle), np.sin(angle)])
        for name, rel in _symbolic_deviation(sol, fn, t, x, normal).items():
            worst[name] = max(worst.get(name, 0.0), rel)
    assert max(worst.values()) <= 1e-12, worst


@pytest.mark.parametrize("params", _PARAMS)
def test_manufactured_closed_form_matches_symbolic_where_a_time_factor_vanishes(params):
    """At t = 0 and 1 sin(pi t) vanishes, at t = 0.5 cos(pi t); t = 0 is the set-up
    evaluation.  Checked on the points the run evaluates: face midpoints (the
    momentum forcing, the boundary velocity and the boundary flux with the
    faces' normals) and cell centers (the y forcing and the initial state)."""
    sol = ManufacturedSolution(**params)
    fn = _symbolic_solution(sol.eos.rho_l, sol.eos.a2, sol.mu, sol.diffusion, sol.u_r)
    mesh = build_case(make_config("manufactured", nx=40, ny=40)).mesh
    cell_normal = np.tile([0.6, -0.8], (mesh.n_cells, 1))
    for t in (0.0, 0.5, 1.0):
        for x, normal in ((mesh.face_midpoint, mesh.face_normal),
                          (mesh.cell_centers, cell_normal)):
            deviation = _symbolic_deviation(sol, fn, t, x, normal)
            assert max(deviation.values()) <= 1e-12, (t, len(x), deviation)


def test_run_path_does_not_import_sympy():
    """sympy is a test-only dependency: a manufactured run never imports it."""
    code = ("import sys\n"
            "from driftflux.config import make_config\n"
            "from driftflux.driver import run_simulation\n"
            "run_simulation(make_config('manufactured', nx=4, ny=4, dt=0.01, t_end=0.02))\n"
            "sys.exit(3 if 'sympy' in sys.modules else 0)\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.path.normpath(src)))
    assert proc.returncode == 0, proc.stderr or "sympy was imported"


def test_manufactured_phys_bounds_grid(sol):
    xs = np.linspace(0.0, 1.0, 50)
    ys = np.linspace(-0.5, 0.5, 50)
    X, Y = np.meshgrid(xs, ys)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    for t in np.linspace(0.0, 1.0, 20):
        rho, _, y, z, p = sol.eval(t, pts)
        assert np.all(rho > 0) and np.all(p > 0) and np.all(z > 0)
        assert np.all(y > 0) and np.all(y <= 1.0 + 1e-12)


def test_sloshing_series_flat_at_t0():
    case = SloshingCase()
    xs = np.linspace(0.0, case.L, 301)
    xi = sloshing_interface(xs, 0.0, case)
    # sawtooth Fourier remainder after mode 2N+1
    bound = case.a0 / case.g * case.L * 6e-4
    assert np.max(np.abs(xi)) < bound
    remainder = (4 / np.pi**2) / (2 * (2 * N_TERMS + 3)) * case.a0 / case.g * case.L
    assert np.max(np.abs(xi)) < 1.5 * remainder


def test_sloshing_series_zero_mean_and_antisymmetry():
    case = SloshingCase()
    xs = np.linspace(0.0, case.L, 2001)
    for t in (0.0, 0.3, 1.1):
        xi = sloshing_interface(xs, t, case)
        assert np.trapezoid(xi, xs) == pytest.approx(0.0, abs=1e-9)
        xi_rev = sloshing_interface(case.L - xs, t, case)
        assert np.allclose(xi_rev, -xi, atol=1e-12)


def test_sloshing_dispersion_monotone():
    case = SloshingCase()
    n = np.arange(1, 402)
    w = omega(case, n)
    assert np.all(np.diff(w) > 0)
    assert omega(case, 1) == pytest.approx(5.5345, abs=1e-3)


def test_sloshing_alternate_convention_differs():
    case = SloshingCase()
    xs = np.linspace(0.0, 1.0, 101)
    xi_p = sloshing_interface(xs, 0.0, case, alt_series_convention=True)
    # the alternative convention does not give a flat initial interface
    assert np.max(np.abs(xi_p)) > 100 * np.max(np.abs(sloshing_interface(xs, 0.0, case)))


def test_build_manufactured_initial_sampling():
    config = make_config("manufactured", nx=6, ny=6)
    problem = build_case(config)
    sol = problem.exact
    rho, _, y, _, p = sol.eval(0.0, problem.mesh.cell_centers)
    assert np.allclose(problem.rho_init, rho)
    assert np.allclose(problem.p_init, p)
    assert np.allclose(problem.y_init, y)
    assert np.allclose(problem.u_init, sol.velocity(problem.mesh.face_midpoint, 0.0))


def test_build_interface_invariants():
    config = make_config("interface")
    problem = build_case(config)
    assert np.all(problem.rho_init > 0)
    assert np.allclose(problem.p_init, problem.p_init[0])
    assert np.allclose(problem.u_init, problem.u_init[0])
    assert set(np.unique(problem.y_init)).issubset({0.1, 0.8})
    rho_back = E.rho_from_py(problem.p_init, problem.y_init, problem.eos)
    assert np.allclose(rho_back, problem.rho_init)
    tags = problem.mesh.boundary_tags
    side = problem.mesh.boundary_side
    assert np.all(tags[side == "left"] == "inlet")
    assert np.all(tags[side == "right"] == "outlet")
    assert np.all(tags[(side == "top") | (side == "bottom")] == "slip")


def test_build_sloshing_initial_state():
    config = make_config("sloshing", nx=14, ny=18)
    problem = build_case(config)
    m = problem.mesh
    gas = m.cell_centers[:, 1] > 1.0
    assert np.all(problem.y_init[gas] == 1.0)
    assert problem.y_floor == 1e-9
    assert np.all(problem.y_init[~gas] == problem.y_floor)
    # pressure increases downward, roughly hydrostatically in the liquid
    col = m.nx * np.arange(m.ny)      # leftmost column, bottom to top
    p_col = problem.p_init[col]
    assert np.all(np.diff(p_col) < 0)
    drop = p_col[0] - p_col[-1]
    # discrete balance carries half the physical water-column weight
    approx = 0.5 * 1000.0 * 9.81 * 1.0
    assert drop == pytest.approx(approx, rel=0.15)


def _hydrostatic_by_columns(mesh, eos, y_cells, g, p_top):
    """Oracle: the column-by-column, cell-by-cell scalar integration."""
    nx, ny = mesh.nx, mesh.ny
    p = np.empty(mesh.n_cells)
    for i in range(nx):
        cells = i + nx * np.arange(ny)
        p_above = p_top
        rho_above = E.rho_from_py(p_top, y_cells[cells[-1]], eos)
        p[cells[-1]] = p_top
        for j in range(ny - 2, -1, -1):
            k = cells[j]
            pk = p_above
            for _ in range(3):
                rho_k = E.rho_from_py(pk, y_cells[k], eos)
                pk = p_above + 0.5 * g * mesh.dy * 0.5 * (rho_k + rho_above)
            p[k] = pk
            p_above = pk
            rho_above = E.rho_from_py(pk, y_cells[k], eos)
    return p


@pytest.mark.parametrize("case, nx, ny", [("sloshing", 70, 90), ("bubble_column", 19, 75)])
def test_hydrostatic_pressure_matches_column_oracle(case, nx, ny):
    problem = build_case(make_config(case, nx=nx, ny=ny))
    if case == "sloshing":
        g, p_top = problem.exact.g, 1e5
    else:
        g, p_top = GRAVITY, problem.exact.p_ambient
    args = (problem.mesh, problem.eos, problem.y_init, g, p_top)
    assert np.array_equal(_hydrostatic_pressure(*args), _hydrostatic_by_columns(*args))


def test_build_bubble_column_tags():
    config = make_config("bubble_column", nx=19, ny=30)
    problem = build_case(config)
    tags = problem.mesh.boundary_tags
    side = problem.mesh.boundary_side
    assert np.any(tags == "inlet")
    assert np.all(tags[side == "top"] == "outlet")
    inlet_x = problem.mesh.face_midpoint[problem.mesh.n_internal:][tags == "inlet"][:, 0]
    assert np.all(np.abs(inlet_x - 0.15) <= 0.021)
    # inlet velocity from the flow rate: q / (S alpha)
    assert problem.exact.inlet_velocity == pytest.approx(8e-3 / 60 / (0.04 * 0.08))


def test_unknown_case_raises():
    with pytest.raises(ConfigurationError):
        build_case(make_config("no_such_case"))
