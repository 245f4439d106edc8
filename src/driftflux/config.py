"""Run configuration: plain key = value files grouped by [section] headers."""

import configparser
import math
from dataclasses import dataclass, fields

from .errors import ConfigurationError

_CASE_DEFAULTS = {
    "manufactured": dict(nx=20, ny=20, dt=0.01, t_end=0.5),
    "interface": dict(nx=40, ny=4, dt=0.006, t_end=0.3),
    "uniform": dict(nx=4, ny=4, dt=0.05, t_end=0.5),
    "sloshing": dict(nx=70, ny=90, dt=0.01, t_end=1.8),
    "bubble_column": dict(nx=19, ny=75, dt=0.01, t_end=2.0),
}


@dataclass
class SimulationConfig:
    """The settings that the driver or every case builder reads."""

    case: str = "uniform"
    nx: int = 4
    ny: int = 4
    dt: float = 0.05
    t_end: float = 0.5
    flux: str = "flux_splitting"
    renormalize: bool = False
    out_dir: str = ""
    dump_interval: int = 0

    def __post_init__(self):
        if not 0 < self.dt <= self.t_end < math.inf:  # also refuses nan
            raise ConfigurationError("need finite dt > 0 and t_end >= dt")
        if self.dump_interval < 0:
            raise ConfigurationError("dump_interval must be >= 0 (0 writes no dumps)")
        if self.flux not in ("flux_splitting", "godunov"):
            raise ConfigurationError(f"unknown flux function {self.flux!r}")


def make_config(case, **overrides):
    """Config with per-case defaults applied, then explicit overrides.

    Each override must name a :class:`SimulationConfig` field; the physics of
    a case is fixed by its builder in :mod:`driftflux.cases`.
    """
    unknown = sorted(set(overrides) - set(SimulationConfig.__dataclass_fields__))
    if unknown:
        raise ConfigurationError(f"unknown config key {', '.join(unknown)}")
    values = dict(_CASE_DEFAULTS.get(case, {}))
    values.update(overrides)
    values["case"] = case
    return SimulationConfig(**values)


def load_config(path):
    """Parse an ini-style configuration file.

    Each key is a :class:`SimulationConfig` field, parsed to the type of its
    default (an integer field takes only an integral value); ``[case] name``
    sets the case, and any other key, or a value that does not parse, is
    rejected.
    """
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise ConfigurationError(f"cannot read config file {path}")
    defaults = {f.name: f.default for f in fields(SimulationConfig)}
    values = {}
    for section in cp.sections():
        for key, raw in cp.items(section):
            if key == "name" and section == "case":
                key = "case"
            if key not in defaults:
                raise ConfigurationError(f"unknown config key {section}.{key}")
            default = defaults[key]
            try:
                if isinstance(default, bool):
                    values[key] = cp.getboolean(section, key)
                elif isinstance(default, int):
                    values[key] = int(raw)
                else:
                    values[key] = type(default)(raw)
            except ValueError:
                raise ConfigurationError(f"config key {section}.{key}: cannot read {raw!r} "
                                         f"as {type(default).__name__}") from None
    return make_config(values.pop("case", "uniform"), **values)
