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
    if len(set(names)) != len(names):
        raise ConfigError("run.scenarios must not repeat a scenario")
    for name in names:
        base, _, count = name.partition(":")
        if base not in KNOWN_SCENARIOS:
            raise ConfigError(
                f"unknown scenario {name!r}; known: {', '.join(KNOWN_SCENARIOS)}"
            )
        if base != "gw_closest" and name != base:
            raise ConfigError(f"scenario {name!r} takes no ':' suffix")
        if base == "gw_closest" and not (count.isdecimal() and int(count) >= 1):
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
        for section, keys in _SCHEMA.items():
            for key in keys:
                value = getattr(self, key)
                if isinstance(value, float) and not math.isfinite(value):
                    raise ConfigError(f"{section}.{key} must be finite, got {value}")
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
        if self.phase_sigma_deg < 0.0:
            raise ConfigError("channel.phase_sigma_deg must be >= 0 (float)")
        if abs(self.center_lat) > 90.0:
            raise ConfigError("channel.center_lat must lie in [-90, 90]")
        if self.beam_spacing_deg <= 0.0:
            raise ConfigError("channel.beam_spacing_deg must be > 0 (float)")
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
        if (self.gateway_mode == "closest"
                and not 1 <= self.closest_c < self.gateways):
            raise ConfigError(
                f"gateway.closest_c ({self.closest_c}) must lie in "
                "[1, gateway.gateways) when gateway.gateway_mode = closest"
            )
        for name in _parse_scenarios(",".join(self.scenarios)):
            base, _, count = name.partition(":")
            if base in ("gw_icp", "gw_closest", "gw_msvdgc") and self.gateways < 2:
                raise ConfigError(
                    "gateway scenarios other than gw_ref need gateway.gateways >= 2"
                )
            if base == "gw_closest" and int(count) >= self.gateways:
                raise ConfigError(
                    f"scenario {name!r} must cooperate with fewer than "
                    f"gateway.gateways ({self.gateways}) peers"
                )


# section -> key names; each key is the ScenarioConfig attribute of the
# same name, parsed with its default's type unless listed in _LIST_PARSERS.
_SCHEMA = {
    "channel": ("beams", "feeds_per_beam", "users_per_beam", "pool_per_beam",
                "center_lat", "center_lon", "beam_radius_3db_deg",
                "beam_spacing_deg", "phase_model", "phase_sigma_deg"),
    "link_budget": ("satellite_longitude_deg", "satellite_height_m",
                    "earth_radius_m", "carrier_freq_hz", "bandwidth_hz",
                    "rolloff", "user_antenna_gain_db", "g_over_t_db"),
    "run": ("scenarios", "trials", "power_sweep_dbw", "seed", "grouping",
            "csi_error_ratio", "gamma_lower", "power_mode", "threads",
            "modcod_file"),
    "gateway": ("gateways", "gateway_mode", "closest_c"),
}

_LIST_PARSERS = {"scenarios": _parse_scenarios, "power_sweep_dbw": _parse_floats}


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
            convert = _LIST_PARSERS.get(key, type(getattr(ScenarioConfig, key)))
            try:
                value = convert(raw)
            except ConfigError:
                raise
            except (TypeError, ValueError):
                raise ConfigError(
                    f"{section}.{key} expects {convert.__name__}, got {raw!r}"
                ) from None
            setattr(cfg, key, value)
    cfg.validate()
    return cfg


def config_echo(cfg: ScenarioConfig) -> list[str]:
    """One ``section.key = value`` line per parameter, defaults included."""
    lines = []
    for section, keys in _SCHEMA.items():
        for key in keys:
            value = getattr(cfg, key)
            if isinstance(value, tuple):
                value = ", ".join(str(v) for v in value)
            lines.append(f"{section}.{key} = {value}")
    return lines
