"""Coupled pressure correction step.

The velocity update is eliminated algebraically into the mass balance,
leaving one 2M nonlinear system in (p, z) per step.  The mass and
gas-mass balances share the mesh's implicit upwind transport operator (the
face incidence ``Mesh2D.incidence`` on the residual side, edge-pair blocks on
the Jacobian side).  The Jacobian fills one fixed
:class:`driftflux.mesh.SparsePattern` per mesh: every edge stores both of
its z-columns, so a change of upwind pattern changes only values.  The
prescribed inflow state is evaluated once per step.  The residual takes both
balances' divergences from one incidence product, and the Jacobian reuses the
density, edge volume fluxes, upwind cells and inflow state that the residual
evaluated at the same iterate, which is where Newton asks for it.  Each edge
is upwinded by the sign of the iterate's own edge volume flux, so the
residual is continuous (v x_up vanishes on both sides of v = 0) and piecewise
smooth, and the damped Newton of :mod:`driftflux.linalg`, with the analytic
Jacobian of the state law on the iterate's pattern, is a semismooth Newton
(Qi & Sun, Math. Programming 58, 1993).  The velocity is updated once from
the converged pressure, and its volume fluxes equal, up to roundoff, those
that chose the upwind cells of the returned mass fluxes.  The steps of a
corrector are one block :class:`driftflux.linalg.NewtonSequence`: all
Newton iterations of a step share one held factor, dropped when the step's
solve ends (from ``linalg.CPR_MIN`` unknowns the LU of the CPR pressure
matrix A - diag(d(rho)/dz) C, because the mass rows' z-block of the Jacobian
[[A, B], [C, D]] is B = D diag(d(rho)/dz)), and from the third step on
Newton may start from the extrapolation of the last two steps when its
residual is below the plain start's; the step ends with y <= 1 by
construction; the renormalization system fills a bordered pattern of the
elliptic operator.
"""

from dataclasses import dataclass

import numpy as np

from . import eos as _eos
from .errors import InvariantViolation
from .fields import admissibility_violation
from .linalg import NewtonSequence, newton_solve, solve
from .mesh import (SparsePattern, edge_pair_index, edge_pair_values, inlet_split, upwind,
                   upwind_fluxes, volume_fluxes)


@dataclass
class CorrectionResult:
    u: np.ndarray
    p: np.ndarray
    z: np.ndarray
    rho: np.ndarray
    fluxes: np.ndarray
    newton_iters: int


def _bordered_pattern(m):
    """Triplet positions of [[L, b], [b^t, 0]]: the edge pairs of the
    elliptic operator L, then the border column and row."""
    M = m.n_cells
    idx, border = np.arange(M), np.full(M, M)
    return SparsePattern(M + 1, [edge_pair_index(m, [m.edge_K, m.edge_L]),
                                 (idx, border), (border, idx)])


def assemble_pressure_operator(mesh, geom, rho_face, rho_upwind, border=0.0):
    """The elliptic operator (L q)_K = sum (rho_up/rho_sigma)(|s|^2/|D_s|)(q_K - q_L),
    bordered by the mean-value row and column: the (M+1)-square matrix
    [[L, b], [b^t, 0]] with b = ``border`` in every cell."""
    w = np.asarray(rho_upwind) / np.asarray(rho_face) * mesh.edge_measure**2 / geom.diamond
    b = np.full(mesh.n_cells, float(border))
    return mesh.cached("bordered_pressure_operator", _bordered_pattern).matrix(
        [edge_pair_values([w, -w]), b, b])


def renormalize_pressure(mesh, geom, p_n, rho_face_n, rho_face_nm1):
    """Pressure renormalization: solve B M^-1_{rho^n} B^t p~ = B M^-1_{g} B^t p^n
    with g the facewise geometric mean of rho^n and rho^{n-1}; the constant
    mode is fixed by preserving the volume-weighted mean of p^n.
    """
    M = mesh.n_cells
    p_n = np.asarray(p_n, dtype=float)
    g = np.sqrt(np.asarray(rho_face_n) * np.asarray(rho_face_nm1))
    # the zero border leaves row M of the right-hand side free for the mean
    rhs = assemble_pressure_operator(mesh, geom, g, 1.0) @ np.append(p_n, 0.0)
    rhs[M] = np.full(M, mesh.cell_measure) @ p_n
    kkt = assemble_pressure_operator(mesh, geom, rho_face_n, 1.0, border=mesh.cell_measure)
    return solve(kkt, rhs)[:M]


def _jacobian_pattern(m):
    """Triplet positions of the (p, z) Jacobian, in the value order of
    :meth:`PressureCorrector.step`.  Every edge holds both its z-columns
    (the downwind one stores 0), so the pattern does not depend on the
    upwind choice."""
    M = m.n_cells
    K, L = m.edge_K, m.edge_L
    bK = m.face_K[m.n_internal:]
    idx = np.arange(M)
    cols = [K, L, M + K, M + L]
    # the cell blocks (p, p), (p, z), (z, z) and the boundary blocks (p, p),
    # (p, z), (z, z), (p, p), (z, p), as row and column offsets
    return SparsePattern(2 * M, [
        edge_pair_index(m, cols), edge_pair_index(m, cols, M),
        (idx + [[0], [0], [M]], idx + [[0], [M], [M]]),
        (bK + [[0], [0], [M], [0], [M]], bK + [[0], [M], [M], [0], [0]])])


class PressureCorrector:
    """The pressure step of a problem.  Its steps are one block Newton
    sequence, ``newton``, with the targets ``cfg`` and the block size M =
    ``mesh.n_cells``, so that from ``linalg.CPR_MIN`` unknowns its Jacobians
    are solved by CPR GMRES with a factor of the M-unknown pressure matrix.
    Each step drops the sequence's factor when its solve ends, so the next
    step's first Jacobian tries Jacobi before it is factorized: the last
    step's factor fails refinement, or GMRES, on the next step's Jacobians."""

    def __init__(self, mesh, geom, eos, bc, cfg=None):
        self.mesh = mesh
        self.geom = geom
        self.eos = eos
        self.bc = bc
        self.newton = NewtonSequence(cfg, block=mesh.n_cells)
        self._p_floor = 1e-12 * eos.a2 * eos.rho_l

    def step(self, state, u_tilde, dt, t_next, y_ceiling=True):
        """One pressure correction step; returns the end-of-step unknowns.

        ``y_ceiling=False`` drops the z/rho <= 1 validation, needed when a
        manufactured gas-fraction source legitimately pushes y above 1.
        """
        eos = self.eos
        m = self.mesh
        M = m.n_cells
        nint = m.n_internal
        K, L = m.edge_K, m.edge_L
        bK = m.face_K[nint:]

        p_old = np.asarray(state.p, dtype=float)
        rho_n = np.asarray(state.rho, dtype=float)
        rhoy_n = rho_n * np.asarray(state.y, dtype=float)
        vol_dt = m.cell_measure / dt
        c_edge = dt * m.edge_measure**2 / (self.geom.diamond * state.rho_face)
        v_all = volume_fluxes(m, u_tilde)
        v_tilde = v_all[:nint]
        split = vb_out, vb_in = inlet_split(m, v_all[nint:])
        inflow = self.bc.inflow(m, t_next, eos)

        def admissible(x):
            return bool((x[:M] > self._p_floor).all())

        def edge_volume_flux(p):
            return v_tilde + c_edge * ((p[K] - p_old[K]) - (p[L] - p_old[L]))

        evaluated = [None, None]

        def state_at(x):
            """(rho(p, z), edge volume flux v, upwind cell of v, inflow state) at
            the iterate ``x``, kept from the last evaluation when ``x`` is the
            same array object: Newton asks for the Jacobian where it last
            evaluated the residual."""
            if x is not evaluated[0]:
                p, z = x[:M], x[M:]
                v = edge_volume_flux(p)
                evaluated[:] = x, (_eos.rho_from_pz(p, z, eos), v, upwind(m, v)[0], inflow(p))
            return evaluated[1]

        def residual(x):
            z = x[M:]
            rho_c, v, up, (rho_in, z_in, _, _) = state_at(x)
            # both balances' divergences from one incidence product
            div = m.incidence @ np.array([
                upwind_fluxes(m, v, up, split, rho_c, rho_in),
                upwind_fluxes(m, v, up, split, z, z_in)]).T
            return np.concatenate([vol_dt * (rho_c - rho_n) + div[:, 0],
                                   vol_dt * (z - rhoy_n) + div[:, 1]])

        def jacobian(x):
            """The Jacobian of the residual on the iterate's upwind pattern: an
            element of its generalized Jacobian where an edge flux vanishes."""
            p, z = x[:M], x[M:]
            rho_c, v, up, (_, _, drin_dp, dzin_dp) = state_at(x)
            up_is_K = up == K

            def at_up(w):
                """(column K, column L) parts of a value in column ``up``."""
                return np.where(up_is_K, w, 0.0), np.where(up_is_K, 0.0, w)

            drdp = _eos.drho_dp_pz(p, z, eos)
            drdz = _eos.drho_dz_pz(p, z, eos)
            c_rho = c_edge * rho_c[up]
            c_z = c_edge * z[up]
            # the upwind derivatives sit in column K or L of their edge
            wp_K, wp_L = at_up(v * drdp[up])
            wz_K, wz_L = at_up(v * drdz[up])
            v_K, v_L = at_up(v)
            pattern = m.cached("pressure_jacobian", _jacobian_pattern)
            return pattern.matrix([
                # mass balance: d/dp through v and rho_up, d/dz through rho_up
                edge_pair_values([c_rho + wp_K, wp_L - c_rho, wz_K, wz_L]),
                # gas-mass balance: d/dp through v, d/dz through z_up
                edge_pair_values([c_z, -c_z, v_K, v_L]),
                vol_dt * drdp, vol_dt * drdz, np.full(M, vol_dt),
                # boundary fluxes
                vb_out * drdp[bK], vb_out * drdz[bK], vb_out,
                -vb_in * drin_dp, -vb_in * dzin_dp])

        # initial guess (p^n, rho^n y^n); where that pair sits on the wrong
        # branch of the state law, raise p so the guess starts with a healthy
        # positive density (half the old one), away from the degenerate
        # rho -> 0 region where the eliminated operator loses ellipticity
        p_guess = np.array(state.p, dtype=float)
        p_req = eos.a2 * eos.rho_l * rhoy_n / (rhoy_n + eos.rho_l - 0.5 * rho_n)
        bad = _eos.rho_from_pz(p_guess, rhoy_n, eos) < 0.5 * rho_n
        p_guess[bad] = np.maximum(p_guess, p_req)[bad]
        x = np.concatenate([p_guess, rhoy_n])
        try:
            res = newton_solve(residual, jacobian, x, self.newton, admissible,
                               lambda g: admissible(g) and bool((g[M:] > 0).all()),
                               max(1.0, float(vol_dt * np.max(rho_n))))
        finally:
            self.newton.lu = None  # freed before the next step's momentum solve

        p, z = res.x[:M], res.x[M:]
        _, v, up, (rho_in, _, _, _) = state_at(res.x)
        # y <= 1 by construction: where a^2 z exceeds p by at most 8 ulp, z goes
        # to the pure-gas value p / a^2, stepped down until a^2 z <= p, and rho
        # is formed as z + rho_l (p - a^2 z) / p, which then rounds to at least
        # z; a larger excess is left to the check below
        a2z = eos.a2 * z
        near = (a2z > p) & (a2z - p <= 8.0 * np.spacing(p))
        if near.any():
            z = np.where(near, p / eos.a2, z)
            while (over := near & (eos.a2 * z > p)).any():
                z = np.where(over, np.nextafter(z, 0.0), z)
            a2z = eos.a2 * z
        rho = z + eos.rho_l * (p - a2z) / p
        why = admissibility_violation(rho, z, p, y_ceiling=y_ceiling)
        if why:
            raise InvariantViolation(f"pressure correction: {why}")

        u = np.array(u_tilde, dtype=float)
        dp = (p - p_old)[K] - (p - p_old)[L]
        u[:nint] += (dt * m.edge_measure[:nint] /
                     (self.geom.diamond * state.rho_face) * dp)[:, None] * m.edge_normal
        fluxes = upwind_fluxes(m, v, up, split, rho, rho_in)
        return CorrectionResult(u=u, p=p, z=z, rho=rho, fluxes=fluxes,
                                newton_iters=res.iterations)
