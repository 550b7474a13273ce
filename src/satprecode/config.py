"""Scenario configuration: schema, INI-style parsing, validation, echo.

A config file uses ``key = value`` lines under ``[section]`` headers with
``#`` or ``;`` comments. Unknown sections or keys are rejected, missing
keys take the documented defaults, and every effective value (default or
not) is echoed into the output artifacts so a run is fully described by
its own header.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .exceptions import ConfigError

__all__ = ["ScenarioConfig", "parse_config", "config_echo", "KNOWN_SCENARIOS"]

KNOWN_SCENARIOS = ("mbim", "rzf", "avg_mmse", "four_color", "robust",
                   "gw_ref", "gw_icp", "gw_closest", "gw_msvdgc")


def _parse_scenarios(raw: str) -> tuple[str, ...]:
    names = tuple(s.strip() for s in raw.split(",") if s.strip())
    if not names:
        raise ConfigError("run.scenarios must name at least one scenario")
    for name in names:
        base = name.split(":")[0]
        if base not in KNOWN_SCENARIOS:
            raise ConfigError(
                f"unknown scenario {name!r}; known: {', '.join(KNOWN_SCENARIOS)}"
            )
        if base == "gw_closest":
            parts = name.split(":")
            if len(parts) != 2 or not parts[1].isdigit() or int(parts[1]) < 1:
                raise ConfigError(
                    f"scenario {name!r} must carry a cooperation count, "
                    "e.g. gw_closest:2"
                )
    return names


def _parse_floats(raw: str) -> tuple[float, ...]:
    try:
        values = tuple(float(s) for s in raw.split(",") if s.strip())
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated float list: {exc}") from None
    return values


@dataclass
class ScenarioConfig:
    """Everything a batch run needs, with desk-scale defaults."""

    # [channel]
    beams: int = 7
    feeds_per_beam: int = 1
    users_per_beam: int = 2          # Q, served simultaneously
    pool_per_beam: int = 2           # scheduler candidate pool per beam
    center_lat: float = 47.0
    center_lon: float = 10.0
    beam_radius_3db_deg: float = 0.25
    beam_spacing_deg: float = 4.0
    phase_model: str = "ultra_stable"
    phase_sigma_deg: float = 10.0
    # [link_budget]
    satellite_longitude_deg: float = 10.0
    satellite_height_m: float = 35_786_000.0
    earth_radius_m: float = 6_378_137.0
    carrier_freq_hz: float = 20e9
    bandwidth_hz: float = 500e6
    rolloff: float = 0.25
    user_antenna_gain_db: float = 41.7
    g_over_t_db: float = 17.68
    # [run]
    scenarios: tuple[str, ...] = ("mbim",)
    trials: int = 100
    power_sweep_dbw: tuple[float, ...] = (10.0, 15.0, 20.0, 25.0, 30.0, 35.0)
    seed: int = 1
    grouping: str = "none"           # none | nominal | robust
    csi_error_ratio: float = 0.0
    gamma_lower: float = 1.0
    power_mode: str = "per_feed"
    threads: int = 1
    modcod_file: str = ""
    # [gateway]
    gateways: int = 1
    gateway_mode: str = "ref"
    closest_c: int = 2

    def validate(self) -> None:
        if self.beams < 1:
            raise ConfigError("channel.beams must be >= 1 (int)")
        if self.feeds_per_beam < 1:
            raise ConfigError("channel.feeds_per_beam must be >= 1 (int)")
        if self.users_per_beam < 1:
            raise ConfigError("channel.users_per_beam must be >= 1 (int)")
        if self.pool_per_beam < self.users_per_beam:
            raise ConfigError(
                f"channel.pool_per_beam ({self.pool_per_beam}) must be >= "
                f"channel.users_per_beam ({self.users_per_beam})"
            )
        if self.phase_model not in ("uniform", "ultra_stable"):
            raise ConfigError(
                "channel.phase_model must be 'uniform' or 'ultra_stable'"
            )
        if self.grouping not in ("none", "nominal", "robust"):
            raise ConfigError("run.grouping must be none, nominal or robust")
        if self.power_mode not in ("per_feed", "total"):
            raise ConfigError("run.power_mode must be per_feed or total")
        if not self.power_sweep_dbw:
            raise ConfigError("run.power_sweep_dbw must list at least one point")
        if not all(math.isfinite(p) for p in self.power_sweep_dbw):
            raise ConfigError("run.power_sweep_dbw must hold finite values")
        if len(set(self.power_sweep_dbw)) != len(self.power_sweep_dbw):
            raise ConfigError("run.power_sweep_dbw must not repeat a point")
        if self.trials < 0:
            raise ConfigError("run.trials must be >= 0 (int)")
        if self.csi_error_ratio < 0.0:
            raise ConfigError("run.csi_error_ratio must be >= 0 (float)")
        if self.gamma_lower < 0.0:
            raise ConfigError("run.gamma_lower must be >= 0 (float)")
        if self.threads < 1:
            raise ConfigError("run.threads must be >= 1 (int)")
        if self.gateways < 1:
            raise ConfigError("gateway.gateways must be >= 1 (int)")
        if self.gateways > self.beams:
            raise ConfigError(
                f"gateway.gateways ({self.gateways}) must not exceed "
                f"channel.beams ({self.beams})"
            )
        if self.gateway_mode not in ("icp", "closest", "msvdgc", "ref"):
            raise ConfigError(
                "gateway.gateway_mode must be icp, closest, msvdgc or ref"
            )
        if self.modcod_file and not Path(self.modcod_file).exists():
            raise ConfigError(f"run.modcod_file does not exist: {self.modcod_file}")
        _parse_scenarios(",".join(self.scenarios))
        needs_gw = any(s.startswith("gw_") for s in self.scenarios)
        if needs_gw and self.gateways < 2 and any(
            s.split(":")[0] in ("gw_icp", "gw_closest", "gw_msvdgc")
            for s in self.scenarios
        ):
            raise ConfigError(
                "gateway scenarios other than gw_ref need gateway.gateways >= 2"
            )


# section -> key -> (attribute, parser, description)
_SCHEMA = {
    "channel": {
        "beams": ("beams", int),
        "feeds_per_beam": ("feeds_per_beam", int),
        "users_per_beam": ("users_per_beam", int),
        "pool_per_beam": ("pool_per_beam", int),
        "center_lat": ("center_lat", float),
        "center_lon": ("center_lon", float),
        "beam_radius_3db_deg": ("beam_radius_3db_deg", float),
        "beam_spacing_deg": ("beam_spacing_deg", float),
        "phase_model": ("phase_model", str),
        "phase_sigma_deg": ("phase_sigma_deg", float),
    },
    "link_budget": {
        "satellite_longitude_deg": ("satellite_longitude_deg", float),
        "satellite_height_m": ("satellite_height_m", float),
        "earth_radius_m": ("earth_radius_m", float),
        "carrier_freq_hz": ("carrier_freq_hz", float),
        "bandwidth_hz": ("bandwidth_hz", float),
        "rolloff": ("rolloff", float),
        "user_antenna_gain_db": ("user_antenna_gain_db", float),
        "g_over_t_db": ("g_over_t_db", float),
    },
    "run": {
        "scenarios": ("scenarios", _parse_scenarios),
        "trials": ("trials", int),
        "power_sweep_dbw": ("power_sweep_dbw", _parse_floats),
        "seed": ("seed", int),
        "grouping": ("grouping", str),
        "csi_error_ratio": ("csi_error_ratio", float),
        "gamma_lower": ("gamma_lower", float),
        "power_mode": ("power_mode", str),
        "threads": ("threads", int),
        "modcod_file": ("modcod_file", str),
    },
    "gateway": {
        "gateways": ("gateways", int),
        "gateway_mode": ("gateway_mode", str),
        "closest_c": ("closest_c", int),
    },
}

_SECTION_OF_ATTR = {
    attr: section
    for section, keys in _SCHEMA.items()
    for _, (attr, _parser) in keys.items()
}


def parse_config(path) -> ScenarioConfig:
    """Read and validate a config file; unknown keys are errors."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    cfg = ScenarioConfig()
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                f"unknown section [{section}]; known: {', '.join(_SCHEMA)}"
            )
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"unknown key {section}.{key}; known keys: "
                    f"{', '.join(_SCHEMA[section])}"
                )
            attr, convert = _SCHEMA[section][key]
            try:
                value = convert(raw)
            except ConfigError:
                raise
            except (TypeError, ValueError):
                raise ConfigError(
                    f"{section}.{key} expects {convert.__name__}, got {raw!r}"
                ) from None
            setattr(cfg, attr, value)
    cfg.validate()
    return cfg


def config_echo(cfg: ScenarioConfig) -> list[str]:
    """One ``section.key = value`` line per parameter, defaults included."""
    lines = []
    for section, keys in _SCHEMA.items():
        for key, (attr, _parser) in keys.items():
            value = getattr(cfg, attr)
            if isinstance(value, tuple):
                value = ", ".join(str(v) for v in value)
            lines.append(f"{section}.{key} = {value}")
    return lines
