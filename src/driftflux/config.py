"""Run configuration: plain key = value files grouped by [section] headers."""

import configparser
from dataclasses import dataclass, field, fields

from .errors import ConfigurationError

_CASE_DEFAULTS = {
    "manufactured": dict(nx=20, ny=20, dt=0.01, t_end=0.5, rho_l=5.0, a2=1.0,
                         mu=1e-2, u_r=(0.0, 1.0), diffusion=0.1),
    "interface": dict(nx=40, ny=4, dt=0.006, t_end=0.3, rho_l=5.0, a2=1.0, mu=1e-2),
    "uniform": dict(nx=4, ny=4, dt=0.05, t_end=0.5, rho_l=5.0, a2=1.0, mu=1e-2),
    "sloshing": dict(nx=70, ny=90, dt=0.01, t_end=1.8, rho_l=1000.0, a2=1e5 / 1.2,
                     visc_c=1000.0),
    "bubble_column": dict(nx=19, ny=75, dt=0.01, t_end=2.0, rho_l=1000.0,
                          a2=1e5 / 1.2, mu=1.0, u_r=(0.0, 0.2)),
}


@dataclass
class SimulationConfig:
    case: str = "uniform"
    nx: int = 4
    ny: int = 4
    dt: float = 0.05
    t_end: float = 0.5
    rho_l: float = 5.0
    a2: float = 1.0
    mu: float = 1e-2
    visc_c: float = 1000.0
    u_r: tuple = (0.0, 0.0)
    diffusion: float = 0.0
    flux: str = "flux_splitting"
    renormalize: bool = False
    y_floor: float = 1e-9
    newton_abs_tol: float = 1e-11
    newton_rel_tol: float = 1e-10
    newton_max_iter: int = 50
    out_dir: str = ""
    dump_interval: int = 0
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dt <= 0 or self.t_end < self.dt:
            raise ConfigurationError("need dt > 0 and t_end >= dt")
        if self.newton_abs_tol <= 0 or self.newton_rel_tol <= 0:
            raise ConfigurationError("solver tolerances must be positive")
        if self.flux not in ("flux_splitting", "godunov"):
            raise ConfigurationError(f"unknown flux function {self.flux!r}")


def make_config(case, **overrides):
    """Config with per-case defaults applied, then explicit overrides."""
    values = dict(_CASE_DEFAULTS.get(case, {}))
    values.update(overrides)
    values["case"] = case
    options = values.pop("options", {})
    known = set(SimulationConfig.__dataclass_fields__) - {"options"}
    extra = {k: values.pop(k) for k in list(values) if k not in known}
    options.update(extra)
    return SimulationConfig(options=options, **values)


def load_config(path):
    """Parse an ini-style configuration file.

    Each key is a :class:`SimulationConfig` field, parsed to the type of its
    default; other keys are rejected, except under ``[case]``, where they go
    to ``options``.  ``[case] name`` sets the case.
    """
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise ConfigurationError(f"cannot read config file {path}")
    defaults = {f.name: f.default for f in fields(SimulationConfig) if f.name != "options"}
    values = {}
    options = {}
    for section in cp.sections():
        for key, raw in cp.items(section):
            if key == "name" and section == "case":
                key = "case"
            if key not in defaults:
                if section != "case":
                    raise ConfigurationError(f"unknown config key {section}.{key}")
                options[key] = raw
                continue
            default = defaults[key]
            if isinstance(default, bool):
                values[key] = cp.getboolean(section, key)
            elif isinstance(default, tuple):
                values[key] = tuple(float(v) for v in raw.split(","))
            elif isinstance(default, int):
                values[key] = int(float(raw))
            else:
                values[key] = type(default)(raw)
    case = values.pop("case", "uniform")
    values["options"] = options
    return make_config(case, **values)
