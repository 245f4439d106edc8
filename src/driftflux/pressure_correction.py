"""Coupled pressure correction step.

The velocity update is eliminated algebraically into the mass balance,
leaving a 2M nonlinear system in (p, z) per upwind pattern.  The pattern is
frozen from the latest velocity iterate, the system is solved by the damped
Newton of :mod:`driftflux.linalg` with the analytic Jacobian of the state
law, the velocity is updated, and the loop repeats until the pattern is
stationary and the velocity increment negligible.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import eos as _eos
from .errors import InvariantViolation, OuterLoopError
from .fields import face_density
from .linalg import NewtonConfig, newton_solve, solve


@dataclass
class CorrectionResult:
    u: np.ndarray
    p: np.ndarray
    z: np.ndarray
    rho: np.ndarray
    fluxes: np.ndarray
    newton_iters: int
    outer_iters: int
    residual: float


def assemble_pressure_operator(mesh, geom, rho_face, rho_upwind):
    """Elliptic operator (L q)_K = sum (rho_up/rho_sigma)(|s|^2/|D_s|)(q_K - q_L)."""
    if np.any(np.asarray(rho_face) <= 0):
        raise InvariantViolation("pressure operator: nonpositive face density")
    M = mesh.n_cells
    K, L = mesh.edge_K, mesh.edge_L
    w = np.asarray(rho_upwind) / np.asarray(rho_face) * mesh.edge_measure**2 / geom.diamond
    rows = np.concatenate([K, K, L, L])
    cols = np.concatenate([K, L, L, K])
    vals = np.concatenate([w, -w, w, -w])
    return sp.coo_matrix((vals, (rows, cols)), shape=(M, M)).tocsr()


def renormalize_pressure(mesh, geom, p_n, rho_face_n, rho_face_nm1):
    """Pressure renormalization: solve B M^-1_{rho^n} B^t p~ = B M^-1_{g} B^t p^n
    with g the facewise geometric mean of rho^n and rho^{n-1}; the constant
    mode is fixed by preserving the volume-weighted mean of p^n.
    """
    M = mesh.n_cells
    ones = np.ones(mesh.n_internal)
    L = assemble_pressure_operator(mesh, geom, np.asarray(rho_face_n), ones)
    g = np.sqrt(np.asarray(rho_face_n) * np.asarray(rho_face_nm1))
    Lg = assemble_pressure_operator(mesh, geom, g, ones)
    rhs = Lg @ np.asarray(p_n, dtype=float)
    w = np.full(M, mesh.cell_measure)
    kkt = sp.bmat([[L, w[:, None]], [w[None, :], None]], format="csc")
    sol = solve(kkt, np.concatenate([rhs, [w @ np.asarray(p_n)]]))
    return sol[:M]


class PressureCorrector:
    def __init__(self, mesh, geom, eos, bc, max_outer=20):
        self.mesh = mesh
        self.geom = geom
        self.eos = eos
        self.bc = bc
        self.max_outer = max_outer
        self._K = mesh.edge_K
        self._L = mesh.edge_L
        self._bK = mesh.face_K[mesh.n_internal:]
        self._p_floor = 1e-12 * eos.a2 * eos.rho_l

    def _internal_volume_flux(self, u):
        m = self.mesh
        n = m.n_internal
        return m.edge_measure[:n] * np.sum(np.asarray(u)[:n] * m.edge_normal, axis=1)

    def step(self, state, u_tilde, dt, t_next, cfg=None, p_old=None,
             enforce_y_bound=True):
        """One pressure correction step; returns the end-of-step unknowns.

        ``enforce_y_bound=False`` drops the z/rho <= 1 validation, needed when
        a manufactured gas-fraction source legitimately pushes y above 1.
        """
        cfg = cfg or NewtonConfig()
        eos = self.eos
        m = self.mesh
        M = m.n_cells
        nint = m.n_internal
        K, L, bK = self._K, self._L, self._bK

        p_old = np.asarray(state.p if p_old is None else p_old, dtype=float)
        rho_n = np.asarray(state.rho, dtype=float)
        rhoy_n = rho_n * np.asarray(state.y, dtype=float)
        rho_face_n = face_density(rho_n, self.geom)
        vol_dt = m.cell_measure / dt
        c_edge = dt * m.edge_measure**2 / (self.geom.diamond * rho_face_n)
        v_tilde = self._internal_volume_flux(u_tilde)
        vb = m.face_measure[nint:] * np.sum(
            np.asarray(u_tilde)[nint:] * m.face_normal[nint:], axis=1
        )
        is_inlet = m.boundary_tags == "inlet"
        # inlet faces upwind a prescribed inflow state; every other boundary
        # face transports the interior state with the prescribed velocity
        vb_out = np.where(is_inlet, np.maximum(vb, 0.0), vb)
        vb_in = np.where(is_inlet, np.maximum(-vb, 0.0), 0.0)

        r_scale = max(1.0, float(vol_dt * np.max(rho_n)))
        ncfg = NewtonConfig(abs_tol=cfg.abs_tol * r_scale, rel_tol=cfg.rel_tol,
                            max_iter=cfg.max_iter, max_halvings=cfg.max_halvings)

        def admissible(x):
            return bool(np.all(x[:M] > self._p_floor))

        def make_residual(up_is_K):
            ucell = np.where(up_is_K, K, L)

            def residual(x):
                p, z = x[:M], x[M:]
                rho_c = _eos.rho_from_pz(p, z, eos)
                v = v_tilde + c_edge * ((p[K] - p_old[K]) - (p[L] - p_old[L]))
                f_rho = v * rho_c[ucell]
                f_z = v * z[ucell]
                r1 = vol_dt * (rho_c - rho_n)
                r2 = vol_dt * (z - rhoy_n)
                np.add.at(r1, K, f_rho)
                np.add.at(r1, L, -f_rho)
                np.add.at(r2, K, f_z)
                np.add.at(r2, L, -f_z)
                rho_in, z_in, _, _ = self.bc.inflow_state(m, t_next, p, z, eos)
                np.add.at(r1, bK, vb_out * rho_c[bK] - vb_in * rho_in)
                np.add.at(r2, bK, vb_out * z[bK] - vb_in * z_in)
                return np.concatenate([r1, r2])

            def jacobian(x):
                p, z = x[:M], x[M:]
                rho_c = _eos.rho_from_pz(p, z, eos)
                drdp = _eos.drho_dp_pz(p, z, eos)
                drdz = _eos.drho_dz_pz(p, z, eos)
                v = v_tilde + c_edge * ((p[K] - p_old[K]) - (p[L] - p_old[L]))
                up_p = drdp[ucell]
                up_z = drdz[ucell]
                isK = up_is_K.astype(float)
                isL = 1.0 - isK
                a_pk = c_edge * rho_c[ucell] + v * up_p * isK
                a_pl = -c_edge * rho_c[ucell] + v * up_p * isL
                a_zu = v * up_z
                b_pk = c_edge * z[ucell]
                b_pl = -c_edge * z[ucell]
                rows = [K, K, K, L, L, L,
                        M + K, M + K, M + K, M + L, M + L, M + L]
                cols = [K, L, M + ucell, K, L, M + ucell,
                        K, L, M + ucell, K, L, M + ucell]
                vals = [a_pk, a_pl, a_zu, -a_pk, -a_pl, -a_zu,
                        b_pk, b_pl, v, -b_pk, -b_pl, -v]
                idx = np.arange(M)
                rows += [idx, idx, M + idx]
                cols += [idx, M + idx, M + idx]
                vals += [vol_dt * drdp, vol_dt * drdz, np.full(M, vol_dt)]
                # boundary fluxes
                _, _, drin_dp, dzin_dp = self.bc.inflow_state(m, t_next, p, z, eos)
                rows += [bK, bK, M + bK, bK, M + bK]
                cols += [bK, M + bK, M + bK, bK, bK]
                vals += [vb_out * drdp[bK], vb_out * drdz[bK], vb_out,
                         -vb_in * drin_dp, -vb_in * dzin_dp]
                rows = np.concatenate(rows)
                cols = np.concatenate(cols)
                vals = np.concatenate(vals)
                return sp.coo_matrix((vals, (rows, cols)), shape=(2 * M, 2 * M)).tocsc()

            return residual, jacobian

        # initial guess (p^n, rho^n y^n); where that pair sits on the wrong
        # branch of the state law, raise p so the guess starts with a healthy
        # positive density (half the old one), away from the degenerate
        # rho -> 0 region where the eliminated operator loses ellipticity
        p_guess = np.array(state.p, dtype=float)
        p_req = eos.a2 * eos.rho_l * rhoy_n / (rhoy_n + eos.rho_l - 0.5 * rho_n)
        bad = _eos.rho_from_pz(p_guess, rhoy_n, eos) < 0.5 * rho_n
        p_guess[bad] = np.maximum(p_guess, p_req)[bad]
        x = np.concatenate([p_guess, rhoy_n])
        u_cur = np.array(u_tilde, dtype=float)
        pattern = (v_tilde + c_edge * ((p_guess - p_old)[K] - (p_guess - p_old)[L])) >= 0
        scale_u = max(1.0, float(np.max(np.abs(u_tilde))))
        total_newton = 0
        trace = []
        for outer in range(1, self.max_outer + 1):
            residual, jacobian = make_residual(pattern)
            res = newton_solve(residual, jacobian, x, ncfg, admissible)
            x = res.x
            total_newton += res.iterations
            p_new = x[:M]
            u_new = np.array(u_tilde, dtype=float)
            dp = (p_new - p_old)[K] - (p_new - p_old)[L]
            u_new[:nint] += (dt * m.edge_measure[:nint] /
                             (self.geom.diamond * rho_face_n) * dp)[:, None] * m.edge_normal
            v_new = self._internal_volume_flux(u_new)
            pattern_new = v_new >= 0
            du = float(np.max(np.abs(u_new - u_cur))) if u_new.size else 0.0
            changed = int(np.sum(pattern_new != pattern))
            trace.append((outer, changed, du))
            same = changed == 0
            u_cur = u_new
            pattern = pattern_new
            if same and du <= 1e-10 * scale_u:
                break
        else:
            raise OuterLoopError(
                f"upwinding loop did not settle in {self.max_outer} iterations", trace=trace)

        p, z = x[:M], x[M:]
        rho = _eos.rho_from_pz(p, z, eos)
        if np.any(rho <= 0) or np.any(p <= 0) or np.any(z <= 0):
            raise InvariantViolation("pressure correction left the physical range")
        y = z / rho
        if np.any(y <= 0) or (enforce_y_bound and np.any(y > 1.0 + 1e-11)):
            raise InvariantViolation("pressure correction: z/rho outside (0, 1]")

        v = v_tilde + c_edge * ((p[K] - p_old[K]) - (p[L] - p_old[L]))
        ucell = np.where(pattern, K, L)
        fluxes = np.zeros(m.n_faces)
        fluxes[:nint] = v * rho[ucell]
        rho_in, z_in, _, _ = self.bc.inflow_state(m, t_next, p, z, eos)
        fluxes[nint:] = vb_out * rho[bK] - vb_in * rho_in
        res_final = np.linalg.norm(make_residual(pattern)[0](x), np.inf)
        return CorrectionResult(u=u_cur, p=p, z=z, rho=rho, fluxes=fluxes,
                                newton_iters=total_newton, outer_iters=len(trace),
                                residual=float(res_final))
