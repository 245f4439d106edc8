"""Sparse linear solves and the damped Newton driver.

Direct factorization (scipy splu) is the workhorse at desk scale.  Every
sparse system takes one policy: SuperLU with static diagonal pivots on the
MMD(A^t + A) ordering, as in SuperLU_DIST (Li & Demmel, ACM TOMS 29, 2003),
which keeps fill low on these diagonally weighted balances.  The result is
checked a posteriori against the residual bound; when the factor breaks down
or misses the bound, the system is refactorized with SuperLU's default
threshold pivoting.  Newton globalization halves the step until the iterate is admissible and the
residual norm does not grow, which is required because the state law is
singular at p = 0.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NewtonError, SolverError


@dataclass
class NewtonConfig:
    abs_tol: float = 1e-11
    rel_tol: float = 1e-10
    max_iter: int = 50
    max_halvings: int = 30
    max_nonmonotone: int = 8

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0 or self.max_iter < 1:
            raise ValueError("Newton tolerances must be positive and max_iter >= 1")


@dataclass
class NewtonResult:
    x: np.ndarray
    iterations: int
    residual_norm: float


def _residual_miss(A, x, rhs, norm_A):
    """(residual, bound) of the worst column that misses the a-posteriori
    bound, or None.  Norms are max|.| per column, so an (n, k) rhs is checked
    column by column."""
    res = np.max(np.abs(A @ x - rhs), axis=0)
    norm_b = np.max(np.abs(rhs), axis=0)
    bound = 1e-12 * (norm_A * np.max(np.abs(x), axis=0) + norm_b)
    miss = (res > np.maximum(bound, 1e-300)) & (res > 1e-8 * np.maximum(1.0, norm_b))
    if not np.any(miss):
        return None
    j = np.argmax(np.where(miss, res, -np.inf))
    return float(np.ravel(res)[j]), float(np.ravel(bound)[j])


def _static_pivot_solve(A, rhs):
    """Solve with diagonal pivots on a symmetric fill-reducing ordering, or
    None when the factorization breaks down.

    The threshold is 0 because the pressure Jacobian's z-columns have
    |diagonal| / column max near 1e-3 (about the gas/liquid density ratio);
    any larger threshold swaps those pivots off the diagonal and multiplies
    fill and time several-fold.
    """
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
        x = lu.solve(rhs)
    except RuntimeError:
        return None
    return x if np.all(np.isfinite(x)) else None


def solve(matrix, rhs, check=True):
    """Direct sparse (or dense) solve with an a-posteriori residual check.

    ``rhs`` may be a vector or an (n, k) array of right-hand sides that share
    one factorization.  A sparse matrix is first factorized with static
    diagonal pivots (pivoting off the diagonal only at an exact zero); when
    that factorization fails, yields a non-finite entry or misses the
    residual bound, it is refactorized with SuperLU's default threshold
    pivoting.  The fallback test runs even with ``check=False``; ``check``
    only decides whether a miss of the final solution raises.
    """
    rhs = np.asarray(rhs, dtype=float)
    if sp.issparse(matrix):
        A = matrix.tocsc()
        norm_A = float(np.max(np.bincount(A.indices, weights=np.abs(A.data),
                                          minlength=A.shape[0]), initial=0.0))
        x = _static_pivot_solve(A, rhs)
        if x is not None and _residual_miss(A, x, rhs, norm_A) is None:
            return x
        try:
            x = spla.splu(A).solve(rhs)
        except RuntimeError as exc:  # singular factorization
            raise SolverError(f"sparse factorization failed: {exc}") from exc
    else:
        A = np.asarray(matrix, dtype=float)
        try:
            x = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"dense solve failed: {exc}") from exc
        norm_A = np.linalg.norm(A, np.inf)
    if not np.all(np.isfinite(x)):
        raise SolverError("linear solve produced non-finite entries")
    if check:
        miss = _residual_miss(A, x, rhs, norm_A)
        if miss is not None:
            res, bound = miss
            raise SolverError(f"linear solve residual {res:.3e} exceeds bound {bound:.3e}",
                              residual=res)
    return x


def _levenberg_step(residual_fn, J, x, r, merit, admissible_fn, target):
    """Regularized Gauss-Newton step for nearly singular Jacobians.

    Solves (J^t J + lam D) d = -J^t r with growing lam; for large lam this is
    a scaled gradient step on |r|_2^2, so an admissible decreasing step exists
    unless the iterate is a stationary point of the merit.
    """
    if not sp.issparse(J):
        J = sp.csr_matrix(J)
    Jt = J.T.tocsr()
    g = Jt @ r
    JtJ = (Jt @ J).tocsr()
    dvals = np.maximum(JtJ.diagonal(), 1e-12 * float(np.max(JtJ.diagonal())) + 1e-300)
    lam = 1e-6
    for _ in range(18):
        try:
            d = solve(JtJ + sp.diags(lam * dvals), -g, check=False)
        except SolverError:
            lam *= 10.0
            continue
        alpha = 1.0
        for _ in range(12):
            x_new = x + alpha * d
            if admissible_fn is None or admissible_fn(x_new):
                r_new = np.asarray(residual_fn(x_new), dtype=float)
                merit_new = float(r_new @ r_new)
                norm_new = float(np.linalg.norm(r_new, np.inf))
                if merit_new <= merit * (1.0 - 1e-6 * alpha) or norm_new <= target:
                    return x_new, r_new, norm_new, merit_new
            alpha *= 0.5
        lam *= 10.0
    return None


def newton_solve(residual_fn, jacobian_fn, x0, cfg=None, admissible_fn=None):
    """Damped Newton iteration.

    Stops when ||r||_inf <= abs_tol + rel_tol * ||r(x0)||_inf.  Every accepted
    iterate satisfies ``admissible_fn``; the step is halved (up to
    ``max_halvings`` times) until it does and the residual norm has not
    increased.
    """
    cfg = cfg or NewtonConfig()
    x = np.array(x0, dtype=float)
    if admissible_fn is not None and not admissible_fn(x):
        raise NewtonError("initial Newton iterate is inadmissible")
    r = np.asarray(residual_fn(x), dtype=float)
    norm = float(np.linalg.norm(r, np.inf))
    merit = float(r @ r)
    target = cfg.abs_tol + cfg.rel_tol * norm
    # Grippo-style nonmonotone line search on |r|_2^2: accept against the
    # worst of the recent merits, so stiff steps may overshoot briefly while
    # global progress is still enforced
    history = [merit]
    nonmono = 0
    for it in range(cfg.max_iter):
        if norm <= target:
            return NewtonResult(x=x, iterations=it, residual_norm=norm)
        ref = max(history[-6:])
        delta = solve(jacobian_fn(x), -r)
        alpha = 1.0
        accepted = False
        fallback = None
        for _ in range(cfg.max_halvings + 1):
            x_new = x + alpha * delta
            if admissible_fn is None or admissible_fn(x_new):
                r_new = np.asarray(residual_fn(x_new), dtype=float)
                norm_new = float(np.linalg.norm(r_new, np.inf))
                merit_new = float(r_new @ r_new)
                if (merit_new <= ref * (1.0 - 1e-4 * alpha)
                        or norm_new <= norm * (1.0 + 1e-12)
                        or norm_new <= target):
                    accepted = True
                    break
                if fallback is None and np.isfinite(merit_new):
                    fallback = (x_new, r_new, norm_new, merit_new)
            alpha *= 0.5
        if not accepted:
            lm = _levenberg_step(residual_fn, jacobian_fn(x), x, r, merit,
                                 admissible_fn, target)
            if lm is not None:
                x_new, r_new, norm_new, merit_new = lm
                accepted = True
        if not accepted:
            # with piecewise flux kinks the residual can jump across a
            # discontinuity however small the step; accept the admissible
            # full step a bounded number of times and trust local Newton
            if fallback is not None and nonmono < cfg.max_nonmonotone:
                nonmono += 1
                x_new, r_new, norm_new, merit_new = fallback
            else:
                raise NewtonError("Newton damping exhausted", residual_norm=norm,
                                  iterations=it)
        x, r, norm, merit = x_new, r_new, norm_new, merit_new
        history.append(merit)
    if norm <= target:
        return NewtonResult(x=x, iterations=cfg.max_iter, residual_norm=norm)
    raise NewtonError(f"Newton did not converge in {cfg.max_iter} iterations "
                      f"(residual {norm:.3e}, target {target:.3e})",
                      residual_norm=norm, iterations=cfg.max_iter)
