"""Verification and demonstration configurations.

The manufactured solution's forcing terms are closed-form numpy kernels, written component
by component since every derivative of its separable trigonometric fields is diagonal;
tests check them against a symbolic derivation and finite differences of the fields.
"""

from dataclasses import dataclass

import numpy as np

from . import eos as _eos
from .boundary import BoundaryConditions
from .eos import EosParams
from .errors import ConfigurationError
from .gas_fraction import FLUX_FUNCTIONS, DriftModel
from .mesh import build_diamond_geometry, build_uniform_mesh
from .momentum import ViscosityModel

GRAVITY = 9.81
# state law and viscosity of the interface and uniform cases
BOX_EOS = EosParams(5.0, 1.0)
BOX_MU = 1e-2


@dataclass
class Problem:
    """A ready-to-run configuration handed to the time-stepping driver."""

    name: str
    mesh: object
    geom: object
    eos: EosParams
    bc: BoundaryConditions
    viscosity: ViscosityModel
    drift: DriftModel
    flux_fn: object
    u_init: np.ndarray
    rho_init: np.ndarray
    p_init: np.ndarray
    y_init: np.ndarray
    body_accel: tuple = None
    momentum_source: object = None
    y_source: object = None
    y_boundary_flux: object = None
    exact: object = None
    y_floor: float = 0.0

    @property
    def y_ceiling(self):
        """Whether y <= 1 is guaranteed.  A manufactured y source may exceed it:
        ``manufactured`` at 10x10, dt 0.02 under ``godunov`` first passes 1 at
        step 70 and reaches y = 1.031 by t = 1.6."""
        return self.y_source is None


class ManufacturedSolution:
    """Closed-form fields and forcing of the manufactured verification case.

    rho = 1 + sin(pi t) (q1 + q2) / 4 and m = rho u = -cos(pi t) g / 4, with g = (sin pi x1,
    cos pi x2) and q = (cos pi x1, -sin pi x2), give u, z = (5 - rho) / 9, y = z / rho and
    p(rho).  As d_i g_i = pi q_i and d_i q_i = -pi g_i, grad m, Hess rho and Hess m are
    diagonal: the kernels work component by component on their (2, n) diagonals.
    """

    def __init__(self, rho_l=5.0, a2=1.0, mu=1e-2, diffusion=0.1, u_r=(0.0, 1.0)):
        self.eos = EosParams(rho_l, a2)
        self.mu = mu
        self.diffusion = diffusion
        self.u_r = tuple(u_r)

    @staticmethod
    def _trig(t, x):
        """sin pi t, cos pi t, g and q (each (2, n)) and rho at time t, points x (n, 2)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        s, c = np.sin(np.pi * x.T), np.cos(np.pi * x.T)
        g, q = np.stack([s[0], c[1]]), np.stack([c[0], -s[1]])
        st, ct = np.sin(np.pi * t), np.cos(np.pi * t)
        return st, ct, g, q, 1 + 0.25 * st * (q[0] + q[1])

    def _state_law(self, rho):
        """(z, y, p, dp/drho) along the manufactured family z = (5 - rho) / 9."""
        z = (5.0 - rho) / 9.0
        den = z + self.eos.rho_l - rho
        c = self.eos.a2 * self.eos.rho_l
        return z, z / rho, c * z / den, c * (10.0 * z - den) / (9.0 * den**2)

    def eval(self, t, x):
        """(rho, rho_u, y, z, p) at time t and points x (n, 2)."""
        _, ct, g, _, rho = self._trig(t, x)
        z, y, p, _ = self._state_law(rho)
        return rho, ((-0.25 * ct) * g).T.copy(), y, z, p

    def velocity(self, x, t):
        _, ct, g, _, rho = self._trig(t, x)
        return ((-0.25 * ct) * g / rho).T.copy()

    def pressure(self, x, t):
        return self.eval(t, x)[4]

    def mass_fraction(self, x, t):
        return self.eval(t, x)[2]

    def state(self, x, t):
        rho = self._trig(t, x)[4]
        return rho, self._state_law(rho)[0]

    def momentum_source(self, x, t):
        """d_t m + div(m u) + grad p - mu (lap u + grad div u / 3), by component.

        With G = grad rho, the diagonals L, d, h of Hess rho, grad m, Hess m and
        d_j u_i = (delta_ij d_i - u_i G_j) / rho: div(m u)_i = u_i (div m + d_i - u.G),
        lap u_i = (h_i - 2 (d_i G_i - u_i |G|^2) / rho - u_i sum L) / rho and
        d_i div u = (h_i - G_i (d_i + div m - 2 u.G) / rho - u_i L_i) / rho."""
        st, ct, g, q, rho = self._trig(t, x)
        k = 0.25 * np.pi
        grad_rho, hess_rho = (-k * st) * g, (-k * np.pi * st) * q
        d, h, u = (-k * ct) * q, (k * np.pi * ct) * g, (-0.25 * ct) * g / rho
        u_g, div_m = u[0] * grad_rho[0] + u[1] * grad_rho[1], d[0] + d[1]
        lap_u = (h - 2.0 * (d * grad_rho - u * (grad_rho[0]**2 + grad_rho[1]**2)) / rho
                 - u * (hess_rho[0] + hess_rho[1])) / rho
        grad_div_u = (h - grad_rho * (d + div_m - 2.0 * u_g) / rho - u * hess_rho) / rho
        return ((k * st) * g + u * (div_m + d - u_g) + self._state_law(rho)[3] * grad_rho
                - self.mu * (lap_u + grad_div_u / 3.0)).T.copy()

    def y_source(self, x, t):
        """d_t z + div(z u) + div(rho y (1 - y) u_r) - D lap y, with y = 5 / (9 rho) - 1 / 9."""
        st, ct, g, q, rho = self._trig(t, x)
        k, sum_q = 0.25 * np.pi, q[0] + q[1]
        rho_t, grad_rho = (k * ct) * sum_q, (-k * st) * g
        u_g = (-0.25 * ct) * (g[0] * grad_rho[0] + g[1] * grad_rho[1]) / rho
        z, y, _, _ = self._state_law(rho)
        c = -5.0 / (9.0 * rho**2)
        lap_y = c * ((-k * np.pi * st) * sum_q - 2.0 * (grad_rho[0]**2 + grad_rho[1]**2) / rho)
        drift = (self.u_r[0] * grad_rho[0] + self.u_r[1] * grad_rho[1]) * ((1.0 - y) / 9.0 + z * c)
        # d_t z + div(z u) = -(rho_t + u.G) / 9 + z div u, and div m = -rho_t
        return -(rho_t + u_g) * (1.0 / 9.0 + y) - drift - self.diffusion * lap_y

    def y_boundary_flux(self, x, t, normal):
        """Outward drift plus diffusion flux density of the gas mass balance."""
        st, _, g, _, rho = self._trig(t, x)
        z, y, _, _ = self._state_law(rho)
        normal = np.asarray(normal, dtype=float)
        grad_rho_n = (-0.25 * np.pi * st) * (g[0] * normal[:, 0] + g[1] * normal[:, 1])
        return (z * (1.0 - y) * (normal @ np.asarray(self.u_r))
                + self.diffusion * 5.0 / (9.0 * rho**2) * grad_rho_n)


@dataclass
class SloshingCase:
    L: float = 1.0
    h_l: float = 1.0
    h_g: float = 1.25
    g: float = GRAVITY
    a0: float = 0.1
    rho_l: float = 1000.0
    a2: float = 1e5 / 1.2
    visc_c: float = 1000.0
    y_floor: float = 1e-9


@dataclass
class BubbleColumnCase:
    L: float = 0.5
    H: float = 2.0
    h: float = 1.5
    depth: float = 0.08
    inlet_center: float = 0.15
    inlet_width: float = 0.04
    q_lpm: float = 8.0
    rho_l: float = 1000.0
    a2: float = 1e5 / 1.2
    u_r: tuple = (0.0, 0.2)
    mu: float = 1.0
    p_ambient: float = 1e5
    y_floor: float = 1e-9

    @property
    def inlet_velocity(self):
        q = self.q_lpm * 1e-3 / 60.0
        return q / (self.inlet_width * self.depth)


def _hydrostatic_pressure(mesh, eos, y_cells, g, p_top):
    """Column pressures integrating rho g downward from the top row (one
    row at a time, every column at once).

    Uses the scheme's own face balance |sigma| (p_K - p_L) = g |D_sigma|
    rho_sigma (jumps rho g dy / 2), which makes the initial state an exact
    discrete rest state.
    """
    y = np.asarray(y_cells).reshape(mesh.ny, mesh.nx)
    p = np.empty((mesh.ny, mesh.nx))
    p[-1] = p_top
    rho_above = _eos.rho_from_py(p_top, y[-1], eos)
    for j in range(mesh.ny - 2, -1, -1):
        pk = p[j + 1]
        for _ in range(3):
            rho_k = _eos.rho_from_py(pk, y[j], eos)
            pk = p[j + 1] + 0.5 * g * mesh.dy * 0.5 * (rho_k + rho_above)
        p[j] = pk
        rho_above = _eos.rho_from_py(pk, y[j], eos)
    return p.ravel()


def build_manufactured(config):
    sol = ManufacturedSolution()
    mesh = build_uniform_mesh(config.nx, config.ny, 1.0, 1.0, x0=0.0, y0=-0.5,
                              tags=lambda side, x: "inlet")
    geom = build_diamond_geometry(mesh)
    bc = BoundaryConditions(velocity=sol.velocity, inlet_state=sol.state)
    rho0, _, y0, _, p0 = sol.eval(0.0, mesh.cell_centers)
    u0 = sol.velocity(mesh.face_midpoint, 0.0)
    return Problem(
        name="manufactured", mesh=mesh, geom=geom, eos=sol.eos, bc=bc,
        viscosity=ViscosityModel("constant", mu=sol.mu),
        drift=DriftModel("constant", u_r=sol.u_r, diffusion=sol.diffusion),
        flux_fn=FLUX_FUNCTIONS[config.flux],
        u_init=u0, rho_init=rho0, p_init=p0, y_init=y0,
        momentum_source=sol.momentum_source, y_source=sol.y_source,
        y_boundary_flux=sol.y_boundary_flux,
        exact=sol,
    )


def build_interface(config):
    """A front of y from 0.1 to 0.8 at x = 0.25, carried through a 1 x 0.1
    channel at u = (1, 0) and p = 1."""
    u0, p0, y_left, y_right = 1.0, 1.0, 0.1, 0.8
    mesh = build_uniform_mesh(config.nx, config.ny, 1.0, 0.1,
                              tags={"left": "inlet", "right": "outlet",
                                    "bottom": "slip", "top": "slip"})
    geom = build_diamond_geometry(mesh)
    rho_left = float(_eos.rho_from_py(p0, y_left, BOX_EOS))
    z_left = rho_left * y_left

    def velocity(x, t):
        return np.broadcast_to(np.array([u0, 0.0]), (np.atleast_2d(x).shape[0], 2)).copy()

    def inlet_state(x, t):
        n = np.atleast_2d(x).shape[0]
        return np.full(n, rho_left), np.full(n, z_left)

    bc = BoundaryConditions(velocity=velocity, inlet_state=inlet_state)
    y0 = np.where(mesh.cell_centers[:, 0] < 0.25, y_left, y_right)
    rho0 = _eos.rho_from_py(p0, y0, BOX_EOS)
    p_init = np.full(mesh.n_cells, p0)
    u_init = np.tile(np.array([u0, 0.0]), (mesh.n_faces, 1))
    return Problem(
        name="interface", mesh=mesh, geom=geom, eos=BOX_EOS, bc=bc,
        viscosity=ViscosityModel("constant", mu=BOX_MU),
        drift=DriftModel("none"), flux_fn=FLUX_FUNCTIONS[config.flux],
        u_init=u_init, rho_init=rho0, p_init=p_init, y_init=y0,
    )


def build_uniform(config):
    """A closed unit box at rest, p = 1 and y = 4/9."""
    p0, y0 = 1.0, 4.0 / 9.0
    mesh = build_uniform_mesh(config.nx, config.ny, 1.0, 1.0)
    geom = build_diamond_geometry(mesh)
    M = mesh.n_cells
    rho0 = np.full(M, float(_eos.rho_from_py(p0, y0, BOX_EOS)))
    return Problem(
        name="uniform", mesh=mesh, geom=geom, eos=BOX_EOS, bc=BoundaryConditions(),
        viscosity=ViscosityModel("constant", mu=BOX_MU),
        drift=DriftModel("none"), flux_fn=FLUX_FUNCTIONS[config.flux],
        u_init=np.zeros((mesh.n_faces, 2)), rho_init=rho0,
        p_init=np.full(M, p0), y_init=np.full(M, y0),
    )


def build_sloshing(config):
    case = SloshingCase()
    eos = EosParams(case.rho_l, case.a2)
    mesh = build_uniform_mesh(config.nx, config.ny, case.L, case.h_l + case.h_g,
                              tags={s: "slip" for s in ("left", "right", "bottom", "top")})
    geom = build_diamond_geometry(mesh)
    y0 = np.where(mesh.cell_centers[:, 1] > case.h_l, 1.0, case.y_floor)
    p0 = _hydrostatic_pressure(mesh, eos, y0, case.g, 1e5)
    rho0 = _eos.rho_from_py(p0, y0, eos)
    return Problem(
        name="sloshing", mesh=mesh, geom=geom, eos=eos, bc=BoundaryConditions(),
        viscosity=ViscosityModel("density_scaled", c=case.visc_c),
        drift=DriftModel("none"), flux_fn=FLUX_FUNCTIONS[config.flux],
        u_init=np.zeros((mesh.n_faces, 2)), rho_init=rho0, p_init=p0, y_init=y0,
        body_accel=(case.a0, -case.g), y_floor=case.y_floor, exact=case,
    )


def build_bubble_column(config):
    case = BubbleColumnCase()
    eos = EosParams(case.rho_l, case.a2)
    # inlet faces: bottom faces within the sparger width, widened to the mesh
    # resolution so a coarse mesh still gets at least one inlet face
    half = max(case.inlet_width, case.L / config.nx) / 2

    def tags(side, x):
        if side == "bottom" and abs(x[0] - case.inlet_center) <= half:
            return "inlet"
        if side == "top":
            return "outlet"
        return "wall"

    mesh = build_uniform_mesh(config.nx, config.ny, case.L, case.H, tags=tags)
    geom = build_diamond_geometry(mesh)
    u_in = case.inlet_velocity

    def velocity(x, t):
        x = np.atleast_2d(x)
        v = np.zeros((x.shape[0], 2))
        v[x[:, 1] < case.H / 2, 1] = u_in  # inlet faces sit on the bottom
        return v

    bc = BoundaryConditions(velocity=velocity, inlet_mass_fraction=1.0)
    y0 = np.where(mesh.cell_centers[:, 1] > case.h, 1.0, case.y_floor)
    p0 = _hydrostatic_pressure(mesh, eos, y0, GRAVITY, case.p_ambient)
    rho0 = _eos.rho_from_py(p0, y0, eos)
    # the drift drains gas out of the floored liquid cells, so the initial
    # floor is not an invariant here; only y > 0 is guaranteed
    return Problem(
        name="bubble_column", mesh=mesh, geom=geom, eos=eos, bc=bc,
        viscosity=ViscosityModel("constant", mu=case.mu),
        drift=DriftModel("constant", u_r=case.u_r), flux_fn=FLUX_FUNCTIONS[config.flux],
        u_init=np.zeros((mesh.n_faces, 2)), rho_init=rho0, p_init=p0, y_init=y0,
        body_accel=(0.0, -GRAVITY), y_floor=0.0, exact=case,
    )


_BUILDERS = {
    "manufactured": build_manufactured,
    "interface": build_interface,
    "uniform": build_uniform,
    "sloshing": build_sloshing,
    "bubble_column": build_bubble_column,
}


def build_case(config):
    try:
        builder = _BUILDERS[config.case]
    except KeyError:
        raise ConfigurationError(
            f"unknown case {config.case!r}; available: {sorted(_BUILDERS)}") from None
    return builder(config)
