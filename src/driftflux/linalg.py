"""Sparse linear solves and the damped Newton driver.

:func:`solve` takes the first path whose result passes one a-posteriori
residual bound: (1) a system of at most ``DENSE_MAX`` unknowns is solved by
LAPACK's gesv, the partially pivoted LU, called directly: it is backward
stable (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002) and,
at these sizes, cheaper than the fixed per-call cost of the sparse paths and
of numpy's wrapper; (2) refinement x <- x + LU^-1 (b - A x) with the LU held
from a nearby system (Arioli, Demmel & Duff, SIAM J. Matrix Anal. Appl. 10,
1989), held by a :class:`NewtonSequence`, so the Newton Jacobians of a run's
y-corrections, or of a small pressure step, share one factorization (lagged
Jacobians: Knoll & Keyes, J. Comput. Phys. 193, 2004); (3) when no factor is
in hand, Jacobi sweeps x <- x + D^-1 (b - A x), which the lumped inertia of
the momentum matrix and the vol/dt d(rho)/dp diagonal of the pressure
Jacobian make converge (Varga, *Matrix Iterative Analysis*, 1962); (4) for
the 2M systems of a block sequence, the pressure steps' (p, z) Jacobians,
from ``CPR_MIN`` unknowns, GMRES with the two-stage CPR preconditioner in
place of (2): the sequence holds the LU of the M-unknown pressure matrix
instead of J's, and a miss refactorizes it from the current Jacobian once,
then factorizes J, whose LU, when held, the sequence refines as in (2);
(5) SuperLU with static diagonal pivots on the MMD(A^t + A) ordering, as in
SuperLU_DIST (Li & Demmel, ACM TOMS 29, 2003); (6) SuperLU's threshold
pivoting.  Refinement and Jacobi run until a sweep fails to halve the
residual, and GMRES to 1% of the bound, so an accepted iterate is as
accurate as a fresh factorization's, and an iterate must meet the bound
itself, without the floor relative to ||b|| that a factorization's result
may use.

:func:`newton_solve` has one globalization rule: halve the step until the
iterate is admissible, which is required because the state law is singular
at p = 0, and either the max-norm residual has not grown or the merit
||r||_2^2 lies below the worst of the last six, the nonmonotone test of
Grippo, Lampariello & Lucidi (SIAM J. Numer. Anal. 23, 1986).  A step that
no halving makes acceptable raises.  Each solve belongs to a
:class:`NewtonSequence`, which holds the sequence's targets, its factor and
its last two successful solves; a solve may start from their second-order
extrapolation instead of its plain start, when the caller's start predicate
accepts it and its residual is the smaller; the stopping test is relative
to the chosen start's residual, so it can only tighten.
"""

import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgesv

from .errors import NewtonError, SolverError

log = logging.getLogger(__name__)


@dataclass
class NewtonConfig:
    abs_tol: float = 1e-11
    rel_tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0 or self.max_iter < 1:
            raise ValueError("Newton tolerances must be positive and max_iter >= 1")


@dataclass
class NewtonResult:
    x: np.ndarray
    iterations: int
    residual_norm: float


def _residual_miss(A, x, rhs, norm_A, floor=1e-8, r=None):
    """(residual, bound) of the worst column that misses the a-posteriori
    bound and the ``floor`` relative to max(||b||, 1), or None.  Norms are
    max|.| per column, so an (n, k) rhs is checked column by column; ``r`` is
    the residual of ``x``, of either sign, when the caller has it."""
    r = A @ x - rhs if r is None else r
    worst = None
    for r_j, x_j, b_j in [(r, x, rhs)] if rhs.ndim == 1 else zip(r.T, x.T, rhs.T):
        res = np.abs(r_j).max(initial=0.0)
        norm_b = np.abs(b_j).max(initial=0.0)
        bound = _bound(norm_A, x_j, norm_b)
        if (res > max(bound, 1e-300) and res > floor * max(norm_b, 1.0)
                and (worst is None or res > worst[0])):
            worst = float(res), float(bound)
    return worst


# systems of at most DENSE_MAX unknowns are solved dense: measured on the
# captured Jacobians and momentum systems of 3x3 to 10x10 boxes, dense wins
# about 2x up to 80 unknowns, 1.2-1.5x from 120 to 200 and loses from 224
DENSE_MAX = 128
REFINE_CAP = 8
JACOBI_CAP = 50
CPR_SWEEPS = 4
# a block sequence's Jacobians take CPR from CPR_MIN unknowns.  Its fixed cost
# (the blocks, P and GMRES's small calls) is about that of factorizing a J of
# 2,000 unknowns, which grows as n^1.5: measured per run on sloshing 14x18 to
# 50x64, bubble_column, interface and manufactured 20x20 and 32x32, its
# pressure solves cost 1.1-3x those of J's LU and refinement from 320 to 2,048
# unknowns, 0.95x at 2,016, 0.8x at 2,850, 0.55x at 3,150 and 0.4x at 6,400
CPR_MIN = 2500
MAX_HALVINGS = 30


def _jacobi_cap(n):
    """Jacobi sweeps worth trying on n unknowns, or 0.  A factorization of
    these 2D mesh systems costs O(n^1.5) against O(n) per sweep, measured at
    sqrt(n) to 2 sqrt(n) sweeps from 80 to 25,520 unknowns; half of sqrt(n)
    leaves room for the attempt's fixed costs."""
    cap = min(JACOBI_CAP, int(np.sqrt(n) / 2))
    return cap if cap >= REFINE_CAP else 0


def _static_pivot_lu(A):
    """LU with diagonal pivots on a symmetric fill-reducing ordering, or None
    when the factorization breaks down.

    The threshold is 0 because the pressure Jacobian's z-columns have
    |diagonal| / column max near 1e-3 (about the gas/liquid density ratio);
    any larger threshold swaps those pivots off the diagonal and multiplies
    fill and time several-fold.
    """
    try:
        return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options=dict(SymmetricMode=True))
    except RuntimeError:
        return None


def _bound(norm_A, x, norm_b):
    """The bound 1e-12 (|A| |x| + |b|) of :func:`_residual_miss`, in max norms."""
    return 1e-12 * (norm_A * np.abs(x).max(initial=0.0) + norm_b)


def _sweep(A, rhs, x, correct, cap, norm_A):
    """(x, rhs - A x, sweeps) of x <- x + correct(rhs - A x), stopped at the
    first sweep that fails to halve max|rhs - A x| (keeping the smaller
    residual), at ``cap`` sweeps, or once the last contraction cannot reach
    the bound within ``cap``."""
    r = rhs - A @ x
    norm = np.max(np.abs(r), initial=0.0)
    target = _bound(norm_A, x, np.abs(rhs).max(initial=0.0))
    sweeps = 0
    while sweeps < cap and norm > 0.0:
        x_new = x + correct(r)
        r_new = rhs - A @ x_new
        norm_new = np.max(np.abs(r_new))
        sweeps += 1
        if not norm_new <= 0.5 * norm:
            return (x_new, r_new, sweeps) if norm_new < norm else (x, r, sweeps)
        q = norm_new / norm
        x, r, norm = x_new, r_new, norm_new
        if norm > target and sweeps + np.log(target / norm) / np.log(q) > cap:
            break
    return x, r, sweeps


def _accepted(A, x, rhs, norm_A, floor=1e-8, r=None):
    return np.all(np.isfinite(x)) and _residual_miss(A, x, rhs, norm_A, floor, r) is None


def _norm_inf(A):
    """||A||_inf of a CSC matrix: the max row sum of |A|, one product of the
    absolute values on A's own structure with ones."""
    abs_A = sp.csc_matrix((np.abs(A.data), A.indices, A.indptr), shape=A.shape)
    return float(np.max(abs_A @ np.ones(A.shape[1]), initial=0.0))


def _gmres(A, rhs, precondition, norm_A):
    """(x, iterations) of right-preconditioned GMRES from x = 0 (Saad & Schultz,
    SIAM J. Sci. Stat. Comput. 7, 1986), stopped once the least-squares
    residual is 1% of the bound at its iterate, or after ``REFINE_CAP``
    iterations."""
    norm_b = np.abs(rhs).max(initial=0.0)
    beta = np.linalg.norm(rhs)
    if not 0.0 < beta < np.inf:  # x = 0 solves a zero rhs; a non-finite one stays so
        return 0.0 * rhs, 0
    V, Z = [rhs / beta], []
    H = np.zeros((REFINE_CAP + 1, REFINE_CAP))
    for k in range(REFINE_CAP):
        Z.append(precondition(V[k]))
        v = A @ Z[k]
        for i in range(k + 1):  # modified Gram-Schmidt
            H[i, k] = V[i] @ v
            v -= H[i, k] * V[i]
        H[k + 1, k] = np.linalg.norm(v)
        if not np.isfinite(H[k + 1, k]):  # a non-finite A or P factor
            return np.full_like(rhs, np.nan), k + 1
        e = np.zeros(k + 2)
        e[0] = beta
        y, *_ = np.linalg.lstsq(H[:k + 2, :k + 1], e, rcond=None)
        x = np.array(Z).T @ y
        if not H[k + 1, k] or (np.linalg.norm(H[:k + 2, :k + 1] @ y - e)
                               <= 0.01 * _bound(norm_A, x, norm_b)):
            break
        V.append(v / H[k + 1, k])
    return x, k + 1


def _cpr_solve(A, rhs, norm_A, held):
    """(x, GMRES iterations, fresh P factor or None) of GMRES with the
    two-stage CPR preconditioner on the 2M system A = [[A11, B], [C, D]] of the
    block sequence ``held`` (Wallis, SPE 12265, 1983; Scheichl, Masson &
    Wendebourg, Comput. Geosci. 7, 2003): solve P dp = r1 - w r2 with the LU of
    the pressure matrix P = A11 - diag(w) C, w = diag(B) / diag(D), which
    decouples p exactly where B = D diag(w), then D dz = r2 - C dp by
    ``CPR_SWEEPS`` Jacobi sweeps.  It tries the held P factor, then one made
    from A; x is None when neither result meets the strict bound."""
    M = held.block
    C, D = A[M:, :M], A[M:, M:]
    d = D.diagonal()
    w = A.diagonal(M) / d

    def precondition(r):
        dp = lu.solve(r[:M] - w * r[M:])
        s = r[M:] - C @ dp
        dz = s / d
        for _ in range(CPR_SWEEPS - 1):
            dz += (s - D @ dz) / d
        return np.concatenate([dp, dz])

    iterations = 0
    for lu in [held.lu, None] if held.lu is not None else [None]:
        fresh = lu is None
        if fresh:
            lu = _static_pivot_lu((A[:M, :M] - sp.diags(w) @ C).tocsc())
            if lu is None:
                break
            held.hold(lu)
        x, its = _gmres(A, rhs, precondition, norm_A)
        iterations += its
        if _accepted(A, x, rhs, norm_A, floor=0.0):
            return x, iterations, lu if fresh else None
    return None, iterations, None


def _sparse_solve(A, rhs, norm_A, held):
    """(x, accepted, path, lu) of the first path of the module's policy whose
    result meets the bound, else of the fallback; ``lu`` is the new factor, or
    None when an iteration was accepted."""
    iteration, after = None, ""
    lu = None if held is None else held.lu
    # a block sequence takes CPR unless it holds J's LU, made when CPR missed
    cpr = (held is not None and held.block is not None and A.shape[0] >= CPR_MIN
           and (lu is None or lu.shape[0] == held.block))
    if lu is not None and not cpr:
        iteration = "refined", lu.solve(rhs), lu.solve, REFINE_CAP
    elif lu is None and _jacobi_cap(A.shape[0]):
        d = A.diagonal() if rhs.ndim == 1 else A.diagonal()[:, None]
        if np.all(d != 0):
            iteration = "Jacobi", rhs / d, lambda r: r / d, _jacobi_cap(A.shape[0])
    if iteration:
        name, x, correct, cap = iteration
        x, r, sweeps = _sweep(A, rhs, x, correct, cap, norm_A)
        # an iterate meets the strict bound: with a tiny rhs the floor alone
        # passes a start such as rhs / d that never contracted
        if _accepted(A, x, rhs, norm_A, floor=0.0, r=r):
            return x, True, f"{name}, {sweeps} sweeps", None
        after = f" after {sweeps} {name} sweeps"
    if cpr:
        x, its, lu = _cpr_solve(A, rhs, norm_A, held)
        if x is not None:
            return x, True, f"CPR, {its} GMRES iterations{after}", lu
        after += f"{' and' if after else ' after'} {its} GMRES iterations"
    lu = _static_pivot_lu(A)
    x = None if lu is None else lu.solve(rhs)
    accepted = x is not None and _accepted(A, x, rhs, norm_A)
    if not accepted:
        try:
            lu = spla.splu(A)
        except RuntimeError as exc:  # singular factorization
            raise SolverError(f"sparse factorization failed: {exc}") from exc
        x = lu.solve(rhs)
    if held is not None:
        held.hold(lu)
    return x, accepted, ("static LU" if accepted else "fallback") + after, lu


def solve(matrix, rhs, held=None):
    """Sparse (or dense) solve with an a-posteriori residual check.

    ``rhs`` may be a vector or an (n, k) array of right-hand sides that share
    one factorization.  A dense matrix, or a sparse one of at most
    ``DENSE_MAX`` unknowns, is solved by LAPACK's dgesv and leaves ``held``
    untouched; a :class:`driftflux.mesh.SparsePattern` fill of that size
    arrives dense.  A larger sparse system takes the module's policy: refinement
    with the LU of ``held`` (a :class:`NewtonSequence`, which keeps every new
    factor worth holding), else, with no LU in hand, Jacobi sweeps when the
    diagonal has no zero, then the two factorizations.  When ``held`` is a
    block sequence and the system has at least ``CPR_MIN`` unknowns, CPR
    GMRES with the held or a fresh pressure factor takes the place of
    refinement, after Jacobi while no factor is held, until CPR misses and
    J's LU is held.  A final solution that misses the bound raises
    :class:`SolverError`.
    """
    start = time.perf_counter()
    rhs = np.asarray(rhs, dtype=float)
    accepted, lu = False, None
    if sp.issparse(matrix) and matrix.shape[0] > DENSE_MAX:
        A = matrix.tocsc()
        norm_A = _norm_inf(A)
        x, accepted, path, lu = _sparse_solve(A, rhs, norm_A, held)
    else:
        A = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=float)
        _, _, x, info = dgesv(A, rhs)
        if info != 0:
            raise SolverError(f"dense solve failed: LAPACK gesv info {info}")
        norm_A = np.abs(A).sum(axis=1).max(initial=0.0)
        path = "dense LU"
    if log.isEnabledFor(logging.DEBUG):
        res = np.max(np.abs(A @ x - rhs), initial=0.0)
        nnz = matrix.nnz if sp.issparse(matrix) else np.count_nonzero(A)
        fill = "" if lu is None else f", L+U {lu.nnz}"
        log.debug("solve n=%d: %s; nnz %d%s, %.3g s, residual/bound %.3g", A.shape[0],
                  path, nnz, fill, time.perf_counter() - start,
                  res / max(_bound(norm_A, x, np.abs(rhs).max(initial=0.0)), 1e-300))
    if accepted:
        return x
    if not np.isfinite(x).all():
        raise SolverError("linear solve produced non-finite entries")
    miss = _residual_miss(A, x, rhs, norm_A)
    if miss is not None:
        res, bound = miss
        raise SolverError(f"linear solve residual {res:.3e} exceeds bound {bound:.3e}",
                          residual=res)
    return x


class NewtonSequence:
    """A sequence of Newton solves of nearby systems, such as the pressure
    steps or the y-corrections of a run.

    It holds the sequence's targets ``cfg``, the LU factor that :func:`solve`
    (``held=``) keeps to solve its later Jacobians by refinement (while it
    holds none, each system tries Jacobi before it is factorized), and the
    displacements d = x - x0 of its last two successful solves, each from its
    own plain start x0.  Extrapolated, they give the next solve the start
    x0 + 2 d_n - d_{n-1}, second order in the step of a smooth sequence, as
    for the Newton iterations of implicit integrators (Hairer & Wanner,
    *Solving ODEs II*, 1996, IV.8).  A block sequence, ``block`` = M, solves
    2M Jacobians [[A, B], [C, D]] with B = D diag(w), such as the pressure
    step's in (p, z); from ``CPR_MIN`` unknowns its factor is that of the
    CPR pressure matrix.  Its owner chooses when to drop the factor.
    """

    def __init__(self, cfg=None, block=None):
        self.cfg = cfg or NewtonConfig()
        self.block = block
        self.lu = None
        self._d = []

    def hold(self, lu):
        # a refinement sweep costs about as much as factorizing 3 fill entries
        # per row (measured from 32 to 25,520 unknowns): hold a factor only
        # when REFINE_CAP sweeps cost less than refactorizing
        self.lu = lu if lu.nnz >= 3 * REFINE_CAP * lu.shape[0] else None

    def guess(self, x0, admissible):
        """The extrapolated start from the plain start ``x0``, or None before
        two records or when ``admissible`` rejects it."""
        if len(self._d) < 2:
            return None
        x = x0 + 2.0 * self._d[1] - self._d[0]
        return x if admissible(x) else None

    def record(self, x0, x):
        self._d = self._d[-1:] + [x - x0]


def newton_solve(residual_fn, jacobian_fn, x0, newton=None, admissible_fn=None,
                 start_fn=None, abs_scale=1.0):
    """Damped Newton iteration, one solve of the sequence ``newton`` (a
    :class:`NewtonSequence`; None for a solve of its own).

    Starts from the sequence's extrapolated start when ``start_fn`` accepts it
    and its ||r||_inf is below that of ``x0``, and from ``x0`` otherwise;
    r(x0) below is the chosen start's residual, so the extrapolation costs one
    residual evaluation and can only tighten the target.  Stops when
    ||r||_inf <= abs_tol * ``abs_scale`` + rel_tol * ||r(x0)||_inf, with the
    sequence's tolerances.  The step is halved, at most ``MAX_HALVINGS``
    times, until the iterate satisfies ``admissible_fn`` and either ||r||_inf
    has not grown or ||r||_2^2 lies below the worst of the last six merits
    (Grippo, Lampariello & Lucidi, SIAM J. Numer. Anal. 23, 1986), so a stiff
    step may overshoot briefly while global progress is still enforced.  A
    step that no halving makes acceptable raises :class:`NewtonError`.  The
    Jacobians are solved with the sequence's held factor, and only a solve
    that converges is recorded.
    """
    newton = newton or NewtonSequence()
    cfg = newton.cfg
    x = np.array(x0, dtype=float)
    if admissible_fn is not None and not admissible_fn(x):
        raise NewtonError("initial Newton iterate is inadmissible")
    r = np.asarray(residual_fn(x), dtype=float)
    norm = float(np.abs(r).max())
    guess = None if start_fn is None else newton.guess(x0, start_fn)
    if guess is not None:
        r_guess = np.asarray(residual_fn(guess), dtype=float)
        norm_guess = float(np.abs(r_guess).max())
        if norm_guess < norm:
            x, r, norm = np.asarray(guess, dtype=float), r_guess, norm_guess
    target = cfg.abs_tol * abs_scale + cfg.rel_tol * norm
    merits = [float(r @ r)]
    it = 0
    while not norm <= target:  # a NaN residual never converges
        if it == cfg.max_iter:
            raise NewtonError(f"Newton did not converge in {cfg.max_iter} iterations "
                              f"(residual {norm:.3e}, target {target:.3e})",
                              residual_norm=norm, iterations=it)
        ref = max(merits[-6:])
        delta = solve(jacobian_fn(x), -r, held=newton)
        alpha = 1.0
        for _ in range(MAX_HALVINGS + 1):
            x_new = x + alpha * delta
            if admissible_fn is None or admissible_fn(x_new):
                r_new = np.asarray(residual_fn(x_new), dtype=float)
                norm_new = float(np.abs(r_new).max())
                merit_new = float(r_new @ r_new)
                if merit_new <= ref * (1.0 - 1e-4 * alpha) or norm_new <= norm * (1.0 + 1e-12):
                    break
            alpha *= 0.5
        else:
            raise NewtonError("Newton damping exhausted", residual_norm=norm, iterations=it)
        x, r, norm = x_new, r_new, norm_new
        merits.append(merit_new)
        it += 1
    newton.record(x0, x)
    return NewtonResult(x=x, iterations=it, residual_norm=norm)
