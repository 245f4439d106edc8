"""Coupled pressure correction step.

The velocity update is eliminated algebraically into the mass balance,
leaving a 2M nonlinear system in (p, z) per upwind pattern.  The mass and
gas-mass balances share the mesh's implicit upwind transport operator (the
face incidence ``Mesh2D.incidence`` on the residual side,
:func:`driftflux.mesh.edge_pairs` on the Jacobian side).  The pattern is
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
from .fields import admissibility_violation, face_density
from .linalg import NewtonConfig, newton_solve, solve
from .mesh import coo_sum, edge_pairs, inlet_split, upwind, upwind_fluxes, volume_fluxes


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
    w = np.asarray(rho_upwind) / np.asarray(rho_face) * mesh.edge_measure**2 / geom.diamond
    pairs = edge_pairs(mesh, [mesh.edge_K, mesh.edge_L], [w, -w])
    return coo_sum(mesh.n_cells, [pairs]).tocsr()


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
        self._p_floor = 1e-12 * eos.a2 * eos.rho_l

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
        K, L = m.edge_K, m.edge_L
        bK = m.face_K[nint:]

        p_old = np.asarray(state.p if p_old is None else p_old, dtype=float)
        rho_n = np.asarray(state.rho, dtype=float)
        rhoy_n = rho_n * np.asarray(state.y, dtype=float)
        rho_face_n = face_density(rho_n, self.geom)
        vol_dt = m.cell_measure / dt
        c_edge = dt * m.edge_measure**2 / (self.geom.diamond * rho_face_n)
        v_all = volume_fluxes(m, u_tilde)
        v_tilde = v_all[:nint]
        split = vb_out, vb_in = inlet_split(m, v_all[nint:])

        r_scale = max(1.0, float(vol_dt * np.max(rho_n)))
        ncfg = NewtonConfig(abs_tol=cfg.abs_tol * r_scale, rel_tol=cfg.rel_tol,
                            max_iter=cfg.max_iter, max_halvings=cfg.max_halvings)

        def admissible(x):
            return bool(np.all(x[:M] > self._p_floor))

        def edge_volume_flux(p):
            return v_tilde + c_edge * ((p[K] - p_old[K]) - (p[L] - p_old[L]))

        def make_residual(up):
            def residual(x):
                p, z = x[:M], x[M:]
                rho_c = _eos.rho_from_pz(p, z, eos)
                v = edge_volume_flux(p)
                rho_in, z_in, _, _ = self.bc.inflow_state(m, t_next, p, z, eos)
                r1 = vol_dt * (rho_c - rho_n) + m.incidence @ upwind_fluxes(
                    m, v, up, split, rho_c, rho_in)
                r2 = vol_dt * (z - rhoy_n) + m.incidence @ upwind_fluxes(
                    m, v, up, split, z, z_in)
                return np.concatenate([r1, r2])

            def jacobian(x):
                p, z = x[:M], x[M:]
                rho_c = _eos.rho_from_pz(p, z, eos)
                drdp = _eos.drho_dp_pz(p, z, eos)
                drdz = _eos.drho_dz_pz(p, z, eos)
                v = edge_volume_flux(p)
                c_rho = c_edge * rho_c[up]
                c_z = c_edge * z[up]
                idx = np.arange(M)
                _, _, drin_dp, dzin_dp = self.bc.inflow_state(m, t_next, p, z, eos)
                return coo_sum(2 * M, [
                    # mass balance: d/dp through v and rho_up, d/dz through rho_up
                    edge_pairs(m, [K, L, up, M + up],
                               [c_rho, -c_rho, v * drdp[up], v * drdz[up]]),
                    # gas-mass balance: d/dp through v, d/dz through z_up
                    edge_pairs(m, [K, L, M + up], [c_z, -c_z, v], M),
                    (idx, idx, vol_dt * drdp), (idx, M + idx, vol_dt * drdz),
                    (M + idx, M + idx, np.full(M, vol_dt)),
                    # boundary fluxes
                    (bK, bK, vb_out * drdp[bK]), (bK, M + bK, vb_out * drdz[bK]),
                    (M + bK, M + bK, vb_out), (bK, bK, -vb_in * drin_dp),
                    (M + bK, bK, -vb_in * dzin_dp),
                ]).tocsc()

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
        up, _ = upwind(m, edge_volume_flux(p_guess))
        scale_u = max(1.0, float(np.max(np.abs(u_tilde))))
        total_newton = 0
        trace = []
        for outer in range(1, self.max_outer + 1):
            residual, jacobian = make_residual(up)
            res = newton_solve(residual, jacobian, x, ncfg, admissible)
            x = res.x
            total_newton += res.iterations
            p_new = x[:M]
            u_new = np.array(u_tilde, dtype=float)
            dp = (p_new - p_old)[K] - (p_new - p_old)[L]
            u_new[:nint] += (dt * m.edge_measure[:nint] /
                             (self.geom.diamond * rho_face_n) * dp)[:, None] * m.edge_normal
            up_new, _ = upwind(m, volume_fluxes(m, u_new)[:nint])
            du = float(np.max(np.abs(u_new - u_cur))) if u_new.size else 0.0
            changed = int(np.sum(up_new != up))
            trace.append((outer, changed, du))
            u_cur = u_new
            up = up_new
            if changed == 0 and du <= 1e-10 * scale_u:
                break
        else:
            raise OuterLoopError(
                f"upwinding loop did not settle in {self.max_outer} iterations", trace=trace)

        p, z = x[:M], x[M:]
        rho = _eos.rho_from_pz(p, z, eos)
        why = admissibility_violation(rho, z, p, y_ceiling=enforce_y_bound)
        if why:
            raise InvariantViolation(f"pressure correction: {why}")

        rho_in, _, _, _ = self.bc.inflow_state(m, t_next, p, z, eos)
        fluxes = upwind_fluxes(m, edge_volume_flux(p), up, split, rho, rho_in)
        res_final = np.linalg.norm(make_residual(up)[0](x), np.inf)
        return CorrectionResult(u=u_cur, p=p, z=z, rho=rho, fluxes=fluxes,
                                newton_iters=total_newton, outer_iters=len(trace),
                                residual=float(res_final))
