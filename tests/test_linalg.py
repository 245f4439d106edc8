import dataclasses
import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from driftflux import driver, gas_fraction, linalg, verification
from driftflux.cases import build_case
from driftflux.config import make_config
from driftflux.driver import manufactured_errors, run_simulation, simulate
from driftflux.errors import NewtonError, SolverError
from driftflux.linalg import NewtonConfig, NewtonSequence, newton_solve, solve
from driftflux.verification import random_wall_problem

# sparse systems of this size skip the dense branch and stay below the 256
# unknowns from which Jacobi is tried
N_SPARSE = linalg.DENSE_MAX + 32


@pytest.fixture
def splu_calls(monkeypatch):
    """Every spla.splu call made by solve: (matrix size, static-pivot call?)."""
    calls = []
    splu = spla.splu

    def counting(A, **kwargs):
        calls.append((A.shape[0], "permc_spec" in kwargs))
        return splu(A, **kwargs)

    monkeypatch.setattr(linalg.spla, "splu", counting)
    return calls


def _tridiagonal(n, diag, off):
    return sp.diags([np.full(n, diag), np.full(n - 1, off), np.full(n - 1, off)],
                    [0, 1, -1], format="csc")


def test_solve_identity():
    b = np.array([1.0, -2.0, 3.0])
    assert np.allclose(solve(sp.eye(3).tocsr(), b), b)


def test_solve_diagonal():
    A = sp.diags([2.0, 4.0]).tocsr()
    x = solve(A, np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0])


def test_solve_spd_matches_dense_oracle():
    rng = np.random.default_rng(21)
    B = rng.normal(size=(50, 50))
    A = B @ B.T + 50 * np.eye(50)
    b = rng.normal(size=50)
    x_dense = np.linalg.solve(A, b)
    x = solve(sp.csr_matrix(A), b)
    assert np.max(np.abs(x - x_dense)) < 1e-10 * np.max(np.abs(x_dense))


def test_solve_two_right_hand_sides_share_one_factorization(splu_calls):
    n = N_SPARSE
    rng = np.random.default_rng(5)
    A = sp.random(n, n, density=0.02, random_state=5, format="csc") + 4 * sp.eye(n)
    B = rng.normal(size=(n, 2))
    X = solve(A, B)
    assert X.shape == (n, 2)
    assert np.allclose(X, np.linalg.solve(A.toarray(), B), rtol=1e-12, atol=1e-12)
    assert splu_calls == [(n, True)]


def _column_miss(A, x, rhs, norm_A):
    """The bound vectorized over the columns of an (n, k) rhs: the oracle of
    the per-column check."""
    res = np.max(np.abs(A @ x - rhs), axis=0)
    norm_b = np.max(np.abs(rhs), axis=0)
    bound = 1e-12 * (norm_A * np.max(np.abs(x), axis=0) + norm_b)
    miss = (res > np.maximum(bound, 1e-300)) & (res > 1e-8 * np.maximum(1.0, norm_b))
    if not np.any(miss):
        return None
    j = np.argmax(np.where(miss, res, -np.inf))
    return float(np.ravel(res)[j]), float(np.ravel(bound)[j])


@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e6])
@pytest.mark.parametrize("error", [0.0, 1e-16, 1e-6, 1e-3])
def test_residual_check_of_a_vector_matches_the_column_form(dense, scale, error):
    """Same (residual, bound) or None, bit for bit.  At scale 1e-12 the
    perturbed solutions miss the relative bound but pass the 1e-8 floor."""
    rng = np.random.default_rng(7)
    A = sp.random(40, 40, density=0.1, random_state=rng, format="csc") + 3 * sp.eye(40)
    norm_A = float(np.max(np.sum(np.abs(A.toarray()), axis=1)))
    b = scale * rng.normal(size=40)
    x = spla.spsolve(A, b)
    x = x + error * np.max(np.abs(x)) * rng.normal(size=40)
    A = A.toarray() if dense else A
    expected = _column_miss(A, x[:, None], b[:, None], norm_A)
    assert (expected is None) == (error < 1e-12 or scale < 1e-8)
    assert linalg._residual_miss(A, x, b, norm_A) == expected
    assert linalg._residual_miss(A, x[:, None], b[:, None], norm_A) == expected


@pytest.mark.parametrize("dense", [False, True])
def test_residual_check_of_several_columns_matches_the_column_form(dense):
    """The worst missing column, or None, bit for bit: one column per
    (scale, error) pair of the vector test, largest first so that the worst
    miss is not the last one, then only the passing columns."""
    rng = np.random.default_rng(11)
    A = sp.random(40, 40, density=0.1, random_state=rng, format="csc") + 3 * sp.eye(40)
    norm_A = float(np.max(np.sum(np.abs(A.toarray()), axis=1)))
    cases = [(scale, error) for scale in (1e6, 1.0, 1e-12) for error in (1e-3, 1e-6, 1e-16, 0.0)]
    B = np.column_stack([scale * rng.normal(size=40) for scale, _ in cases])
    X = spla.spsolve(A, B)
    X = X + np.array([e for _, e in cases]) * np.max(np.abs(X), axis=0) * rng.normal(size=X.shape)
    A = A.toarray() if dense else A
    expected = _column_miss(A, X, B, norm_A)
    assert expected is not None
    assert linalg._residual_miss(A, X, B, norm_A) == expected
    passing = [j for j, (scale, error) in enumerate(cases) if error < 1e-12 or scale < 1e-8]
    assert _column_miss(A, X[:, passing], B[:, passing], norm_A) is None
    assert linalg._residual_miss(A, X[:, passing], B[:, passing], norm_A) is None


def test_residual_check_is_column_by_column():
    # column 0 is exact, column 1 misses by 1e-6; matrix norms over both
    # columns (max row sum 1e6 + 1) would stretch the bound past that miss
    A = sp.eye(2, format="csc")
    rhs = np.array([[1e6, 1.0], [1e6, 1.0]])
    x = rhs + np.array([[0.0, 1e-6], [0.0, 0.0]])
    res, bound = linalg._residual_miss(A, x, rhs, 1.0)
    assert res == pytest.approx(1e-6)
    assert bound == pytest.approx(1e-12 * (1.0 + 1e-6) + 1e-12)
    assert linalg._residual_miss(A, rhs, rhs, 1.0) is None


TINY_PIVOT = np.array([[1e-20, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 2.0]])


def test_solve_falls_back_when_static_pivots_miss_the_bound(splu_calls):
    # the tiny diagonal pivot makes the static-pivot factor grow by 1e20; a
    # well-conditioned block lifts the system above the dense limit
    n = N_SPARSE
    A = sp.block_diag([TINY_PIVOT, _tridiagonal(n - 3, 4.0, -1.0)], format="csr")
    b = np.random.default_rng(3).normal(size=n)
    x_dense = np.linalg.solve(A.toarray(), b)
    x = solve(A, b)
    assert np.max(np.abs(x - x_dense)) < 1e-12 * np.max(np.abs(x_dense))
    assert splu_calls == [(n, True), (n, False)]


def _laplacian(n):
    """The 1D Neumann Laplacian: singular, constants span its null space."""
    main = np.full(n, 2.0)
    main[[0, -1]] = 1.0
    return sp.diags([main, -np.ones(n - 1), -np.ones(n - 1)], [0, 1, -1])


def _kkt(n):
    """Shaped like renormalize_pressure: a singular Laplacian bordered by the
    volume weights, with an exact zero in the last diagonal entry."""
    w = np.full(n, 0.25)
    kkt = sp.bmat([[_laplacian(n), w[:, None]], [w[None, :], None]], format="csc")
    return kkt, np.random.default_rng(8).normal(size=n + 1)


def test_solve_zero_diagonal_kkt_system_matches_dense_oracle():
    kkt, b = _kkt(12)
    x_dense = np.linalg.solve(kkt.toarray(), b)
    x = solve(kkt, b)
    assert np.max(np.abs(x - x_dense)) < 1e-10 * np.max(np.abs(x_dense))


def test_zero_diagonal_kkt_system_above_the_dense_limit_takes_static_pivots(splu_calls):
    kkt, b = _kkt(N_SPARSE)
    x_dense = np.linalg.solve(kkt.toarray(), b)
    x = solve(kkt, b)
    assert splu_calls == [(N_SPARSE + 1, True)]
    assert np.max(np.abs(x - x_dense)) < 1e-10 * np.max(np.abs(x_dense))


def test_sloshing_systems_never_take_the_fallback(splu_calls):
    config = make_config("sloshing", nx=14, ny=18, dt=0.01, t_end=0.02)
    result = run_simulation(config)
    assert len(result.reports) == 3
    mesh = result.problem.mesh
    sizes = {n for n, _ in splu_calls}
    assert 2 * mesh.n_faces in sizes          # momentum
    assert 2 * mesh.n_cells in sizes          # pressure Jacobian
    assert all(static for _, static in splu_calls)


def test_solve_singular_raises(splu_calls):
    # an exactly singular 2x2 block lifted above the dense limit: both
    # factorizations break down
    n = N_SPARSE
    A = sp.block_diag([[[1.0, 1.0], [1.0, 1.0]], _tridiagonal(n - 2, 4.0, -1.0)], format="csr")
    b = np.zeros(n)
    b[0] = 1.0
    with pytest.raises(SolverError, match="sparse factorization failed"):
        solve(A, b)
    assert splu_calls == [(n, True), (n, False)]


# --- the dense branch -------------------------------------------------------

def test_small_systems_never_reach_splu(splu_calls, caplog):
    caplog.set_level("DEBUG", logger="driftflux.linalg")
    kkt, b = _kkt(12)
    solve(kkt, b)
    n = linalg.DENSE_MAX
    A = sp.random(n, n, density=0.02, random_state=4, format="csc") + 4 * sp.eye(n)
    X = solve(A, np.random.default_rng(4).normal(size=(n, 2)))
    assert X.shape == (n, 2)
    # every system of a renormalized 4x4 box: pressure Jacobians, momentum,
    # density prediction and the renormalization KKT system
    problem = random_wall_problem(np.random.default_rng(0))
    result = simulate(problem, dt=0.05, t_end=0.15, renormalize=True)
    assert len(result.reports) == 4
    assert splu_calls == []
    sizes = {n for n, _, _ in _solves(caplog)}
    mesh = problem.mesh
    assert {mesh.n_cells, 2 * mesh.n_cells, 2 * mesh.n_faces, mesh.n_cells + 1} <= sizes
    assert set(_paths(caplog)) == {"dense LU"}


def test_dense_branch_solves_the_tiny_pivot_system(splu_calls):
    A = sp.csr_matrix(TINY_PIVOT)
    b = np.random.default_rng(3).normal(size=3)
    x_dense = np.linalg.solve(TINY_PIVOT, b)
    x = solve(A, b)
    assert np.max(np.abs(x - x_dense)) < 1e-12 * np.max(np.abs(x_dense))
    assert splu_calls == []


def test_small_singular_system_raises():
    b = np.random.default_rng(9).normal(size=12)
    with pytest.raises(SolverError):
        solve(_laplacian(12).tocsc(), b - b.mean())


def test_dense_solve_leaves_held_untouched(caplog):
    caplog.set_level("DEBUG", logger="driftflux.linalg")
    rng = np.random.default_rng(12)
    A, b = _held_sized(rng, n=linalg.DENSE_MAX)
    held = NewtonSequence()
    solve(A, b, held=held)
    assert held.lu is None
    assert _paths(caplog) == ["dense LU"]


def test_newton_linear_problem_one_iteration():
    res = newton_solve(lambda x: x - 3.0, lambda x: np.array([[1.0]]), np.array([0.0]))
    assert res.x[0] == pytest.approx(3.0)
    assert res.iterations <= 1


def test_newton_sqrt():
    res = newton_solve(lambda x: x * x - 4.0, lambda x: np.array([[2.0 * x[0]]]),
                       np.array([3.0]))
    assert res.x[0] == pytest.approx(2.0, abs=1e-10)


def test_newton_respects_admissibility():
    # solve x^2 = 4 constrained to x > 0 from a start that overshoots
    seen = []

    def residual(x):
        seen.append(x.copy())
        return x * x - 4.0

    res = newton_solve(residual, lambda x: np.array([[2.0 * x[0]]]),
                       np.array([0.1]), admissible_fn=lambda x: bool(np.all(x > 0)))
    assert res.x[0] == pytest.approx(2.0, abs=1e-9)
    assert all(np.all(x > 0) for x in seen)


def test_newton_nonconvergence_raises():
    cfg = NewtonConfig(max_iter=4)
    with pytest.raises(NewtonError):
        # gradient never reaches the root within 4 iterations from far away
        newton_solve(lambda x: np.array([np.arctan(x[0])]),
                     lambda x: np.array([[1.0 / (1.0 + x[0] ** 2)]]),
                     np.array([1e8]), NewtonSequence(cfg))


def _counted(residual_fn):
    """residual_fn and the list that records each point it is evaluated at."""
    seen = []

    def counting(x):
        seen.append(x.copy())
        return residual_fn(x)

    return counting, seen


def test_newton_merit_clause_accepts_a_step_that_grows_the_max_norm():
    # the full first step takes ||r||_inf from 1 to 1.01 but ||r||_2^2 from
    # 1.98 to 1.02; halving it instead costs 2 more iterations
    residual, seen = _counted(lambda x: np.array([x[0], x[1] + 1.01 * x[0]]))
    res = newton_solve(residual, lambda x: np.eye(2), np.array([1.0, -0.02]))
    assert res.iterations == 2
    assert len(seen) == 3
    assert seen[1] == pytest.approx([0.0, -1.01])
    assert res.residual_norm == 0.0


def test_newton_ascent_direction_exhausts_the_damping():
    # a Jacobian of the wrong sign: every halving of the step climbs
    residual, seen = _counted(lambda x: (x - 1.0) ** 2 + 1.0)
    with pytest.raises(NewtonError, match="damping exhausted") as info:
        newton_solve(residual, lambda x: np.array([[-2.0 * (x[0] - 1.0)]]), np.array([2.0]))
    assert info.value.iterations == 0
    assert len(seen) == linalg.MAX_HALVINGS + 2
    assert all(x[0] > 2.0 for x in seen[1:])


def test_newton_inadmissible_start_raises():
    with pytest.raises(NewtonError):
        newton_solve(lambda x: x, lambda x: np.eye(1), np.array([-1.0]),
                     admissible_fn=lambda x: bool(np.all(x > 0)))


def test_newton_config_validation():
    with pytest.raises(ValueError):
        NewtonConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        NewtonConfig(max_iter=0)


def _guessing(x0, guess):
    """A sequence whose extrapolated start from ``x0`` is ``guess``: its last
    two displacements are x0 - guess and 0, so x0 + 2 * 0 - (x0 - guess)."""
    newton = NewtonSequence()
    newton.record(guess, x0)
    newton.record(x0, x0)
    return newton


def _anywhere(x):
    return True


def test_newton_takes_a_guess_only_when_its_residual_is_smaller():
    """An extrapolated start whose residual is below the plain start's
    replaces it, and the target is relative to its residual; a worse one
    costs one residual evaluation and leaves the solve bit-identical to one
    without it."""
    def jacobian(x):
        return np.array([[2.0 * x[0]]])

    residual, seen = _counted(lambda x: x * x - 4.0)
    x0 = np.array([3.0])
    plain = newton_solve(residual, jacobian, x0)
    n_plain = len(seen)
    seen.clear()
    worse = newton_solve(residual, jacobian, x0, _guessing(x0, 5.0), start_fn=_anywhere)
    assert len(seen) == n_plain + 1 and seen[1] == 5.0
    assert np.array_equal(worse.x, plain.x)
    assert (worse.iterations, worse.residual_norm) == (plain.iterations, plain.residual_norm)
    seen.clear()
    newton = _guessing(x0, 2.001)
    guess = newton.guess(x0, _anywhere)[0]
    better = newton_solve(residual, jacobian, x0, newton, start_fn=_anywhere)
    assert seen[1] == guess == pytest.approx(2.001, abs=1e-15)
    assert all(x[0] != 3.0 for x in seen[2:])
    assert better.iterations < plain.iterations
    cfg = NewtonConfig()
    assert better.residual_norm <= cfg.abs_tol + cfg.rel_tol * (guess**2 - 4.0)


def test_newton_takes_no_guess_without_a_start_predicate_or_past_it():
    """The extrapolated start is offered only behind the caller's
    ``start_fn``: without one, or when it refuses, the solve evaluates only
    the plain start's residual first."""
    residual, seen = _counted(lambda x: x * x - 4.0)
    x0 = np.array([3.0])
    for start_fn in (None, lambda x: bool((x < 2.0).all())):
        seen.clear()
        newton_solve(residual, lambda x: np.array([[2.0 * x[0]]]), x0,
                     _guessing(x0, 2.001), start_fn=start_fn)
        assert seen[1][0] != pytest.approx(2.001)


def test_newton_scales_only_the_absolute_target():
    """``abs_scale`` multiplies abs_tol alone: with rel_tol tiny, a scale of
    1e12 stops at the start, whose residual 5 is below 1e-11 * 1e12."""
    def jacobian(x):
        return np.array([[2.0 * x[0]]])

    newton = NewtonSequence(NewtonConfig(abs_tol=1e-11, rel_tol=1e-300))
    res = newton_solve(lambda x: x * x - 4.0, jacobian, np.array([3.0]), newton,
                       abs_scale=1e12)
    assert res.iterations == 0
    res = newton_solve(lambda x: x * x - 4.0, jacobian, np.array([3.0]), newton,
                       abs_scale=1e10)
    assert res.iterations > 0 and res.residual_norm <= 0.1


def test_newton_history_extrapolates_its_last_two_displacements():
    newton = NewtonSequence()
    x0 = np.array([1.0, 2.0])
    assert newton.guess(x0, _anywhere) is None
    newton.record(np.zeros(2), np.array([0.5, 1.0]))
    assert newton.guess(x0, _anywhere) is None
    newton.record(np.ones(2), np.array([2.0, 3.0]))
    # x0 + 2 (1, 2) - (0.5, 1)
    assert np.array_equal(newton.guess(x0, _anywhere), [2.5, 5.0])
    assert newton.guess(x0, lambda x: bool((x < 5.0).all())) is None
    newton.record(np.zeros(2), np.array([1.0, 3.0]))  # the oldest record drops
    # x0 + 2 (1, 3) - (1, 2)
    assert np.array_equal(newton.guess(x0, _anywhere), [2.0, 6.0])


def test_a_converged_solve_is_recorded_and_a_failed_one_is_not():
    """A solve that converges records its displacement from its plain start;
    one that raises NewtonError leaves the history as it was, so the next
    solve's start is not extrapolated from a failed solve."""
    newton = NewtonSequence(NewtonConfig(max_iter=3))
    newton_solve(lambda x: x - 1.0, lambda x: np.eye(1), np.array([0.0]), newton)
    newton_solve(lambda x: x - 3.0, lambda x: np.eye(1), np.array([0.5]), newton)
    # displacements 1 and 2.5 from the plain starts
    assert np.array_equal(newton.guess(np.zeros(1), _anywhere), [4.0])
    with pytest.raises(NewtonError, match="did not converge"):
        newton_solve(lambda x: np.array([np.arctan(x[0])]),
                     lambda x: np.array([[1.0 / (1.0 + x[0] ** 2)]]), np.array([1e8]), newton)
    with pytest.raises(NewtonError, match="damping exhausted"):
        newton_solve(lambda x: (x - 1.0) ** 2 + 1.0, lambda x: np.array([[-2.0 * (x[0] - 1.0)]]),
                     np.array([2.0]), newton)
    assert np.array_equal(newton.guess(np.zeros(1), _anywhere), [4.0])


W2_DT = 0.00078125


def test_a_smooth_run_takes_one_newton_iteration_per_solve_from_step_4(monkeypatch):
    """16x16 manufactured at W2's dt: once two steps are recorded, each
    pressure and y solve starts from its extrapolation and meets the
    unchanged target in one iteration."""
    y_iterations = []
    newton_solve_ = gas_fraction.newton_solve

    def recording(*args, **kwargs):
        res = newton_solve_(*args, **kwargs)
        y_iterations.append(res.iterations)
        return res

    monkeypatch.setattr(gas_fraction, "newton_solve", recording)
    result = run_simulation(make_config("manufactured", nx=16, ny=16, dt=W2_DT,
                                        t_end=8 * W2_DT))
    pressure_iterations = [r.newton_iters for r in result.reports[1:]]
    assert pressure_iterations[3:] == [1] * 5 and y_iterations[3:] == [1] * 5
    assert all(r.bounds_ok for r in result.reports)


def test_solves_without_history_start_where_they_did(monkeypatch):
    """A run's first two steps, whose solves have no history, are
    bit-identical to those of a run whose histories never offer a guess;
    the later steps differ at roundoff."""
    config = make_config("manufactured", nx=16, ny=16, dt=W2_DT, t_end=4 * W2_DT)

    def states():
        return [state for state, _ in driver.steps(build_case(config), config.dt,
                                                    config.t_end)]

    extrapolated = states()
    monkeypatch.setattr(NewtonSequence, "guess", lambda self, x0, admissible: None)
    plain = states()
    for a, b in zip(extrapolated[:3], plain[:3]):  # level 0, steps 1 and 2
        for name in ("p", "z", "rho", "u", "y"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
    for name in ("p", "z", "u", "y"):
        a, b = getattr(extrapolated[-1], name), getattr(plain[-1], name)
        assert not np.array_equal(a, b)
        assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()


# --- the iterative paths of solve -------------------------------------------

def _solves(caplog):
    """(n, path, sweeps) of every solve's debug line, such as (60, 'refined',
    3) or (1600, 'static LU after 2 Jacobi sweeps', 0)."""
    out = []
    for r in caplog.records:
        if r.name == "driftflux.linalg":
            n, path = r.getMessage()[len("solve n="):].split(";")[0].split(": ")
            path, _, sweeps = path.partition(", ")
            out.append((int(n), path, int(sweeps.split()[0]) if sweeps else 0))
    return out


def _paths(caplog):
    return [path for _, path, _ in _solves(caplog)]


def _held_sized(rng, n=N_SPARSE):
    """A system whose LU has enough fill (nearly dense) to be held."""
    A = sp.random(n, n, density=0.3, random_state=rng, format="csc") + 4 * sp.eye(n)
    return A.tocsc(), rng.normal(size=n)


def _relerr(x, A, b):
    x_dense = np.linalg.solve(A.toarray(), b)
    return np.max(np.abs(x - x_dense)) / np.max(np.abs(x_dense))


def test_held_lu_refines_a_nearby_system(splu_calls, caplog):
    caplog.set_level("DEBUG", logger="driftflux.linalg")
    rng = np.random.default_rng(12)
    A, b = _held_sized(rng)
    held = NewtonSequence()
    solve(A, b, held=held)
    lu = held.lu
    assert lu is not None
    A2 = A.copy()
    A2.data *= 1.0 + 1e-3 * rng.uniform(-1.0, 1.0, A2.nnz)
    x = solve(A2, b, held=held)
    assert splu_calls == [(N_SPARSE, True)]
    assert held.lu.nnz >= 3 * linalg.REFINE_CAP * N_SPARSE
    assert held.lu is lu
    assert _paths(caplog) == ["static LU", "refined"]
    assert _relerr(x, A2, b) < 1e-12


def test_refinement_that_misses_refactorizes(splu_calls, caplog):
    caplog.set_level("DEBUG", logger="driftflux.linalg")
    rng = np.random.default_rng(13)
    A, b = _held_sized(rng)
    held = NewtonSequence()
    solve(A, b, held=held)
    lu = held.lu
    # the same pattern with unrelated values: the held LU is no preconditioner
    A2 = A.copy()
    A2.data = rng.uniform(-1.0, 1.0, A2.nnz)
    A2 = (A2 + 4 * sp.eye(N_SPARSE)).tocsc()
    x = solve(A2, b, held=held)
    assert splu_calls == [(N_SPARSE, True), (N_SPARSE, True)]
    assert held.lu is not lu
    first, second = _paths(caplog)
    assert second.startswith("static LU after") and second.endswith("refined sweeps")
    assert _relerr(x, A2, b) < 1e-12


def test_factor_with_little_fill_is_not_held(splu_calls, caplog):
    caplog.set_level("DEBUG", logger="driftflux.linalg")
    held = NewtonSequence()
    A = _tridiagonal(N_SPARSE, 4.0, -1.0)
    b = np.ones(N_SPARSE)
    x = solve(A, b, held=held)
    assert held.lu is None
    assert splu_calls == [(N_SPARSE, True)]
    assert _paths(caplog) == ["static LU"]
    assert _relerr(x, A, b) < 1e-12


def test_jacobi_solves_a_diagonally_dominant_system(splu_calls, caplog):
    caplog.set_level("DEBUG", logger="driftflux.linalg")
    A = _tridiagonal(1600, 20.0, -1.0)
    b = np.random.default_rng(14).normal(size=1600)
    x = solve(A, b)
    assert splu_calls == []
    [(_, path, sweeps)] = _solves(caplog)
    # stopped where a sweep no longer halves the residual, before the cap
    assert path == "Jacobi" and sweeps < linalg._jacobi_cap(1600)
    assert np.max(np.abs(x - spla.spsolve(A, b))) < 1e-13 * np.max(np.abs(x))


def test_sweep_returns_the_residual_of_its_iterate_and_accepts_on_it(monkeypatch):
    """The residual _sweep returns is rhs - A x of the iterate it returns, bit
    for bit, and a Jacobi solve accepts on it: one product with A per sweep,
    the start's included, and none more."""
    A = _tridiagonal(1600, 20.0, -1.0)
    b = np.random.default_rng(14).normal(size=1600)
    d = A.diagonal()
    x, r, sweeps = linalg._sweep(A, b, b / d, lambda r: r / d, 50, 22.0)
    assert sweeps > 0 and np.array_equal(r, b - A @ x)
    products = []

    class Counting(sp.csc_matrix):
        def __matmul__(self, other):
            products.append(1)
            return super().__matmul__(other)

    monkeypatch.setattr(linalg, "_static_pivot_lu", None)  # no factorization
    x2, accepted, path, _ = linalg._sparse_solve(Counting(A), b, 22.0, None)
    assert accepted and path == f"Jacobi, {sweeps} sweeps"
    assert np.array_equal(x2, x) and len(products) == sweeps + 1


def test_norm_inf_equals_the_row_sums_of_bincount(monkeypatch):
    """||A||_inf from one product of |A| with ones equals the bincount row
    sums it replaced, bit for bit, on every sparse system of a 12x12 run
    (momentum, pressure and y Jacobians) and on an empty matrix."""
    seen = []
    norm_inf = linalg._norm_inf

    def recording(A):
        seen.append((A, norm_inf(A)))
        return seen[-1][1]

    monkeypatch.setattr(linalg, "_norm_inf", recording)
    run_simulation(make_config("manufactured", nx=12, ny=12, dt=0.01, t_end=0.03))
    assert {A.shape[0] for A, _ in seen} == {144, 288, 2 * 2 * 12 * 13}
    seen.append((sp.csc_matrix((5, 5)), norm_inf(sp.csc_matrix((5, 5)))))
    for A, norm in seen:
        rows = np.bincount(A.indices, weights=np.abs(A.data), minlength=A.shape[0])
        assert norm == float(np.max(rows, initial=0.0))


def test_jacobi_that_does_not_contract_hands_over_to_the_lu(splu_calls, caplog):
    caplog.set_level("DEBUG", logger="driftflux.linalg")
    A = _tridiagonal(1600, 2.05, -1.0)
    b = np.random.default_rng(15).normal(size=1600)
    x = solve(A, b)
    assert splu_calls == [(1600, True)]
    assert _paths(caplog) == ["static LU after 1 Jacobi sweeps"]
    assert np.max(np.abs(A @ x - b)) < 1e-12 * np.max(np.abs(b))


def test_jacobi_too_slow_for_its_cap_is_abandoned_after_one_sweep(splu_calls, caplog):
    """Contraction 0.4 halves the residual every sweep but needs about 30
    sweeps to the bound, more than the cap of 20 at 1600 unknowns."""
    caplog.set_level("DEBUG", logger="driftflux.linalg")
    A = _tridiagonal(1600, 5.0, -1.0)
    b = np.random.default_rng(16).normal(size=1600)
    solve(A, b)
    assert splu_calls == [(1600, True)]
    assert _paths(caplog) == ["static LU after 1 Jacobi sweeps"]


def test_jacobi_that_stagnates_above_the_bound_goes_to_the_lu(splu_calls, caplog):
    """Fast rows make the first sweep halve the residual; a slow 2x2 block
    (Jacobi contraction 0.9) then stalls it far above the bound."""
    caplog.set_level("DEBUG", logger="driftflux.linalg")
    n = 1600
    A = _tridiagonal(n, 1.0, 0.005).tolil()
    A[n - 3, n - 2] = A[n - 2, n - 3] = 0.0
    A[n - 2, n - 1] = A[n - 1, n - 2] = -0.9
    A = A.tocsc()
    b = np.ones(n)
    b[-2:] = 1e-3
    x = solve(A, b)
    assert splu_calls == [(n, True)]
    assert _paths(caplog) == ["static LU after 2 Jacobi sweeps"]
    assert _relerr(x, A, b) < 1e-12


def test_zero_diagonal_skips_jacobi(splu_calls, caplog):
    caplog.set_level("DEBUG", logger="driftflux.linalg")
    A = _tridiagonal(400, 20.0, -1.0).tolil()
    A[7, 7] = 0.0
    A = A.tocsc()
    b = np.ones(400)
    x = solve(A, b)
    assert splu_calls == [(400, True)]
    assert _paths(caplog) == ["static LU"]
    assert _relerr(x, A, b) < 1e-12


def test_jacobi_iterate_meets_the_bound_without_the_floor(splu_calls, caplog):
    """With max|b| near 1e-10 the start rhs / d already passes the floor
    1e-8 max(|b|, 1) of a factorization's check, but Jacobi does not contract
    on this system: its iterate must go to the LU."""
    caplog.set_level("DEBUG", logger="driftflux.linalg")
    A = _tridiagonal(1600, 2.05, -1.0)
    b = 1e-10 * np.random.default_rng(17).normal(size=1600)
    start, norm_A = b / A.diagonal(), 4.05  # max column sum of |A|
    assert linalg._residual_miss(A, start, b, norm_A) is None
    assert linalg._residual_miss(A, start, b, norm_A, floor=0.0) is not None
    x = solve(A, b)
    assert splu_calls == [(1600, True)]
    assert _paths(caplog) == ["static LU after 1 Jacobi sweeps"]
    assert _relerr(x, A, b) < 1e-12


def test_held_sequence_tries_jacobi_until_it_holds_an_lu(splu_calls, caplog):
    """The first systems of a sequence, solved by Jacobi, leave no LU held, so
    the next one tries Jacobi again; the first that Jacobi cannot solve is
    factorized, and its LU held and refined from then on."""
    caplog.set_level("DEBUG", logger="driftflux.linalg")
    n = 400
    rng = np.random.default_rng(18)
    held = NewtonSequence()
    for diag in (100.0, 120.0):
        A = _tridiagonal(n, diag, -1.0)
        b = rng.normal(size=n)
        x = solve(A, b, held=held)
        assert held.lu is None and splu_calls == []
        assert _relerr(x, A, b) < 1e-12
    # a nearly dense LU, worth holding; Jacobi diverges on the positive
    # off-diagonal row sums (about 60 against the diagonal's 40)
    A = (sp.random(n, n, density=0.3, random_state=rng, format="csc") + 40 * sp.eye(n)).tocsc()
    x = solve(A, b, held=held)
    assert held.lu is not None and splu_calls == [(n, True)]
    assert _relerr(x, A, b) < 1e-12
    A.data *= 1.0 + 1e-3 * rng.uniform(-1.0, 1.0, A.nnz)
    x = solve(A, b, held=held)
    assert splu_calls == [(n, True)]
    assert _paths(caplog) == ["Jacobi", "Jacobi", "static LU after 1 Jacobi sweeps", "refined"]
    assert _relerr(x, A, b) < 1e-12


def test_held_sequence_retries_jacobi_while_no_lu_is_held(caplog):
    """The y-Jacobians of configs/manufactured.cfg (20x20, 400 unknowns): Jacobi
    fails on each of them after one sweep, and their LU is too thin to hold,
    so the run's y sequence remembers no failure and every y-Jacobian
    tries Jacobi before it is factorized."""
    caplog.set_level("DEBUG", logger="driftflux.linalg")
    result = run_simulation(make_config("manufactured", nx=20, ny=20, dt=0.01, t_end=0.04))
    steps = len(result.reports) - 1
    paths = [path for n, path, _ in _solves(caplog) if n == result.problem.mesh.n_cells]
    # the set-up's one-off density prediction, then at least one system per
    # y-correction
    assert paths == ["static LU after 1 Jacobi sweeps"] * len(paths)
    assert len(paths) >= 1 + steps


def test_bubble_column_y_jacobians_return_to_jacobi(caplog):
    """configs/bubble_column.cfg (19x75): Jacobi fails on the y-Jacobians of the
    first steps, whose LU is too thin to hold, and solves those of the later
    steps; no y-Jacobian is factorized without trying it first."""
    caplog.set_level("DEBUG", logger="driftflux.linalg")
    result = run_simulation(make_config("bubble_column", t_end=12 * 0.01))
    paths = [path for n, path, _ in _solves(caplog) if n == result.problem.mesh.n_cells]
    assert all(path.startswith("Jacobi") or path.startswith("static LU after ")
               for path in paths)
    assert paths[-5:] == ["Jacobi"] * 5 and "static LU after 2 Jacobi sweeps" in paths


def test_y_jacobian_is_factorized_once_per_run(monkeypatch):
    """A 40x40 W2 run holds one y LU for all its y-corrections: the first
    y-Jacobian's factor is refined on every later one.  Its errors match,
    at roundoff, a run whose y-corrections each start without an LU."""
    dt = 0.00078125
    config = make_config("manufactured", nx=40, ny=40, dt=dt, t_end=4 * dt)
    sizes = []
    static_pivot_lu = linalg._static_pivot_lu

    def counting(A):
        sizes.append(A.shape[0])
        return static_pivot_lu(A)

    monkeypatch.setattr(linalg, "_static_pivot_lu", counting)
    result = run_simulation(config)
    assert sizes.count(result.problem.mesh.n_cells) == 1
    correct = driver.correct_mass_fraction

    def without_lu(*args, newton=None, **kwargs):
        newton.lu = None  # each y-correction starts without an LU
        return correct(*args, newton=newton, **kwargs)

    monkeypatch.setattr(driver, "correct_mass_fraction", without_lu)
    fresh = manufactured_errors(run_simulation(config))
    assert sizes.count(result.problem.mesh.n_cells) > 2
    assert np.allclose(manufactured_errors(result), fresh, rtol=1e-12, atol=0.0)


def test_debug_line_reports_the_lu_fill(caplog):
    caplog.set_level("DEBUG", logger="driftflux.linalg")
    A, b = _held_sized(np.random.default_rng(12))
    held = NewtonSequence()
    solve(A, b, held=held)
    solve(A, b, held=held)
    static, refined = [r.getMessage() for r in caplog.records if r.name == "driftflux.linalg"]
    assert static.startswith(f"solve n={N_SPARSE}: static LU; nnz {A.nnz}, L+U {held.lu.nnz}, ")
    assert refined.startswith(f"solve n={N_SPARSE}: refined, ") and "L+U" not in refined


# --- CPR on block sequences ------------------------------------------------

M_CPR = linalg.CPR_MIN // 2 + 16  # the block size of a system that takes CPR


def _block_system(D, w=2.0, c=0.1):
    """(J, P, b) of the 2M system [[A, D w], [c I, D]] with A tridiagonal: the
    structure B = D diag(w) of the pressure Jacobian, whose CPR pressure
    matrix P = A - w c I is its exact Schur complement."""
    M = D.shape[0]
    A = _tridiagonal(M, 4.0, -1.0)
    J = sp.bmat([[A, w * D], [c * sp.eye(M), D]], format="csc")
    return J, (A - w * c * sp.eye(M)).tocsc(), np.random.default_rng(22).normal(size=2 * M)


def _meets_the_bound(A, x, b):
    """max|A x - b| <= 1e-12 (||A|| ||x|| + ||b||), the strict bound in max norms."""
    norm_A = np.abs(A).sum(axis=1).max()
    return np.abs(A @ x - b).max() <= linalg._bound(norm_A, x, np.abs(b).max())


def test_debug_line_reports_cpr_iterations_and_the_fresh_p_fill(splu_calls, caplog):
    """A block sequence without a P factor tries Jacobi, which diverges on
    the coupling, then factorizes P (M unknowns) and logs its fill; with the
    factor held, GMRES needs no factorization and the line no fill."""
    caplog.set_level("DEBUG", logger="driftflux.linalg")
    J, P, b = _block_system(_tridiagonal(M_CPR, 8.0, -1.0))
    p_lu = linalg._static_pivot_lu(P)
    splu_calls.clear()
    held = NewtonSequence(block=M_CPR)
    x = solve(J, b, held=held)
    assert held.lu is None and splu_calls == [(M_CPR, True)]  # too thin to hold
    assert _meets_the_bound(J, x, b)
    held.lu = p_lu
    x = solve(J, b, held=held)
    assert splu_calls == [(M_CPR, True)]
    assert _meets_the_bound(J, x, b)
    fresh, held_p = [r.getMessage() for r in caplog.records if r.name == "driftflux.linalg"]
    assert re.fullmatch(rf"solve n={2 * M_CPR}: CPR, \d GMRES iterations after 1 Jacobi "
                        rf"sweeps; nnz {J.nnz}, L\+U {p_lu.nnz}, .*", fresh)
    assert re.fullmatch(rf"solve n={2 * M_CPR}: CPR, \d GMRES iterations; nnz {J.nnz}, "
                        rf"[^,]* s, .*", held_p)


def test_cpr_that_misses_with_a_fresh_p_falls_back_to_the_lu_of_j(splu_calls, caplog):
    """D made of 2x2 blocks [[1, a], [-a, 1]], a in [1.5, 3]: well conditioned,
    but far from diagonal, so CPR's Jacobi sweeps on D diverge.  GMRES misses
    with the held P, then with P refactorized from J, and the static-pivot LU
    of J meets the bound."""
    caplog.set_level("DEBUG", logger="driftflux.linalg")
    a = np.where(np.arange(M_CPR - 1) % 2 == 0,
                 np.random.default_rng(23).uniform(1.5, 3.0, M_CPR - 1), 0.0)
    J, P, b = _block_system(sp.diags([np.ones(M_CPR), a, -a], [0, 1, -1]))
    held = NewtonSequence(block=M_CPR)
    held.lu = linalg._static_pivot_lu(P)
    splu_calls.clear()
    x = solve(J, b, held=held)
    cap = linalg.REFINE_CAP
    assert _paths(caplog) == [f"static LU after {2 * cap} GMRES iterations"]
    assert splu_calls == [(M_CPR, True), (2 * M_CPR, True)]
    assert _meets_the_bound(J, x, b)


def test_a_step_whose_cpr_misses_holds_and_refines_the_lu_of_j(splu_calls, caplog):
    """Manufactured 40x40 at dt 0.1, one step of criterion 2's study: at this
    Courant number the transport block D is far from diagonal, and CPR with
    a fresh P misses on the step's first Jacobian.  J's LU is then held, and
    the step's later Jacobians are refined with it, as below CPR_MIN."""
    caplog.set_level("DEBUG", logger="driftflux.linalg")
    result = run_simulation(make_config("manufactured", nx=40, ny=40, dt=0.1, t_end=0.1))
    M = result.problem.mesh.n_cells
    first, *later = [path for n, path, _ in _solves(caplog) if n == 2 * M]
    cap = linalg.REFINE_CAP
    assert re.fullmatch(rf"static LU after \d+ Jacobi sweeps and {cap} GMRES iterations", first)
    assert later and all(path == "refined" or re.fullmatch(r"static LU after \d+ refined sweeps",
                                                            path) for path in later)
    factorized = sum(path.startswith("static LU") for path in [first] + later)
    assert [n for n, _ in splu_calls].count(2 * M) == factorized
    assert all(static for _, static in splu_calls)


@pytest.mark.parametrize("where", ["rhs", "matrix"])
def test_cpr_on_a_non_finite_system_raises_the_named_error(where):
    """A NaN right-hand side or an infinite Jacobian entry reaches GMRES's
    least squares, where numpy would raise LinAlgError; the solve falls
    through to the factorizations and raises SolverError instead."""
    J, P, b = _block_system(_tridiagonal(M_CPR, 8.0, -1.0))
    held = NewtonSequence(block=M_CPR)
    held.lu = linalg._static_pivot_lu(P)
    if where == "rhs":
        b[3] = np.nan
    else:
        J.data[J.indptr[3]] = np.inf
    with pytest.raises(SolverError):
        solve(J, b, held=held)


def test_sloshing_above_cpr_min_factorizes_p_and_never_j(splu_calls, caplog):
    """Sloshing 35x45 (3,150 unknowns): each step's first pressure Jacobian
    tries Jacobi, then factorizes P (M unknowns) with static pivots, and the
    step's later Jacobians take GMRES with that P; J is never factorized and
    nothing falls back."""
    caplog.set_level("DEBUG", logger="driftflux.linalg")
    result = run_simulation(make_config("sloshing", nx=35, ny=45, dt=0.01, t_end=0.03))
    reports = result.reports
    M = result.problem.mesh.n_cells
    assert 2 * M >= linalg.CPR_MIN
    assert sum(r.newton_iters for r in reports) == 9
    pressure = [path for n, path, _ in _solves(caplog) if n == 2 * M]
    assert len(pressure) == 9 and all(path == "CPR" for path in pressure)
    first = [r.getMessage() for r in caplog.records
             if f"n={2 * M}: CPR" in r.getMessage() and "Jacobi" in r.getMessage()]
    assert len(first) == len(reports) - 1 and all("L+U" in line for line in first)
    assert [n for n, _ in splu_calls if n in (M, 2 * M)] == [M] * (len(reports) - 1)
    assert all(static for _, static in splu_calls)
    assert all(r.bounds_ok for r in reports)


def test_manufactured_pressure_jacobians_take_jacobi(splu_calls, caplog):
    """A small W2: every pressure Jacobian (512 unknowns), the first of each
    step included, is solved by Jacobi sweeps and none is factorized."""
    caplog.set_level("DEBUG", logger="driftflux.linalg")
    dt = 0.00078125
    result = run_simulation(make_config("manufactured", nx=16, ny=16, dt=dt, t_end=4 * dt))
    reports = result.reports
    assert (sum(r.newton_iters for r in reports), sum(r.outer_iters for r in reports)) == (8, 4)
    n = 2 * result.problem.mesh.n_cells
    assert [path for m, path, _ in _solves(caplog) if m == n] == ["Jacobi"] * 8
    assert all(m != n for m, _ in splu_calls)
    assert all(r.bounds_ok for r in reports)


@pytest.mark.parametrize("name, kw, totals", [
    ("sloshing", dict(nx=14, ny=18, dt=0.01, t_end=0.02), (6, 2)),
    ("manufactured", dict(nx=8, ny=8, dt=0.0125, t_end=0.0125 * 6), (15, 6)),
])
def test_newton_and_outer_totals_are_pinned(name, kw, totals, caplog):
    """The totals of a run whose pressure Jacobians are factorized once per
    step and refined: equal to those of a factorization per Newton
    iteration."""
    caplog.set_level("DEBUG", logger="driftflux.linalg")
    result = run_simulation(make_config(name, **kw))
    reports = result.reports
    assert (sum(r.newton_iters for r in reports), sum(r.outer_iters for r in reports)) == totals
    if name == "sloshing":
        # one factorization per step, held across its Newton iterations
        # (the step's first Jacobian has no LU and tries Jacobi first)
        pressure = [path for n, path, _ in _solves(caplog) if n == 2 * result.problem.mesh.n_cells]
        factorized = sum(path.startswith("static LU") for path in pressure)
        assert factorized == len(reports) - 1
        assert pressure.count("refined") == totals[0] - factorized


@pytest.mark.parametrize("name", ["interface", "manufactured"])
def test_every_step_tries_jacobi_on_its_first_systems(name, caplog):
    """At the shipped sizes of these cases Jacobi fails on every momentum
    system and on the first pressure Jacobian of each step.  No failure is
    remembered from one step to the next: the momentum system and the first
    pressure Jacobian of every step try Jacobi before they are factorized,
    and the later Jacobians of a step are refined with its LU."""
    caplog.set_level("DEBUG", logger="driftflux.linalg")
    config = make_config(name)  # the case defaults are the shipped configs
    result = run_simulation(dataclasses.replace(config, t_end=4 * config.dt))
    mesh = result.problem.mesh
    momentum, pressure = 2 * mesh.n_faces, 2 * mesh.n_cells
    steps = []  # each step's solve paths by kind, from its momentum system on
    for n, path, _ in _solves(caplog):
        if n == momentum:
            steps.append({momentum: [], pressure: []})
        if steps and n in steps[-1]:
            steps[-1][n].append(path)
    assert len(steps) == len(result.reports) - 1 == 4
    for step in steps:
        assert step[momentum] == ["static LU after 1 Jacobi sweeps"]
        first, *later = step[pressure]
        assert re.fullmatch(r"static LU after \d+ Jacobi sweeps", first)
        assert not any("Jacobi" in path for path in later)


def test_entropy_suite_totals_are_pinned(monkeypatch):
    """Every system of the suite takes the dense LU (LAPACK gesv), whose
    roundoff the totals pin."""
    runs = []
    simulate_ = verification.simulate

    def recording(*args, **kwargs):
        runs.append(simulate_(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(verification, "simulate", recording)
    assert verification.suite_entropy(seed=101, n_seeds=2, n_steps=20).passed
    reports = [r for result in runs for r in result.reports]
    assert len(runs) == 4
    totals = sum(r.newton_iters for r in reports), sum(r.outer_iters for r in reports)
    assert totals == (248, 80)


def test_sloshing_keeps_the_y_floor_under_refinement_to_stagnation():
    """Guards the componentwise y floor (y_floor 1e-9) of the pressure step's
    solves, which on this mesh (3,150 unknowns) take CPR GMRES to 1% of the
    bound.  The residual bound is norm-wise, so it lets the tiny z entries of
    near-pure-liquid cells drift; only solving well below it keeps them.
    Under the held-LU refinement that these systems took before CPR, two
    variants that look like speed-ups each broke this run with y_min just
    below 1e-9: holding the pressure LU across steps, and stopping refinement
    at the first iterate that passes the residual check."""
    result = run_simulation(make_config("sloshing", nx=35, ny=45, dt=0.01, t_end=0.04))
    assert len(result.reports) == 5
    assert all(r.bounds_ok for r in result.reports)
