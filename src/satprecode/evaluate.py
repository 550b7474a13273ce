"""SINR and rate evaluation plus the Monte Carlo experiment runner.

The channel is pre-normalized to the receiver noise, so SINRs use unit
noise power. A beam's rate is set by its worst served user through the
threshold table of the broadcast standard: symbol rate times the
spectral efficiency of the highest threshold the minimum SINR clears.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import grouping as grouping_mod
from .channel import (
    BeamLayout,
    ChannelMatrix,
    LinkBudget,
    PerturbationBounds,
    PhaseModel,
    assemble_channel,
    beam_contours,
    build_gain_matrix,
    build_phase_matrix,
    extract_users,
    hex_layout,
    perturb_channel,
    place_users,
)
from .config import _SCHEMA, ScenarioConfig, dbw_to_watts
from .exceptions import MODELLED_FAILURES, ConfigError
from .gateway import (
    GatewayPlan,
    assemble_multigateway_family,
    assemble_multigateway_precoder,
    make_plan,
    share_csi,
)
from .precoding import baseline_avg_mmse, baseline_four_color, two_stage
from .robust import robust_two_stage

__all__ = [
    "ModcodTable",
    "sinr_matrix",
    "beam_rate",
    "MonteCarloResult",
    "gateway_plans",
    "run_monte_carlo",
]

@dataclass(frozen=True)
class ModcodTable:
    """Monotone SNIR-threshold to spectral-efficiency lookup.

    Thresholds (dB) are finite and strictly increasing, efficiencies
    (bit/symbol) finite and nondecreasing; below the lowest threshold the
    link is in outage and the efficiency is zero.
    """

    thresholds_db: np.ndarray
    efficiencies: np.ndarray

    def __post_init__(self):
        thr = np.asarray(self.thresholds_db, dtype=float)
        eff = np.asarray(self.efficiencies, dtype=float)
        object.__setattr__(self, "thresholds_db", thr)
        object.__setattr__(self, "efficiencies", eff)
        if thr.ndim != 1 or thr.shape != eff.shape or thr.size == 0:
            raise ConfigError("table needs matching nonempty threshold/efficiency rows")
        if not (np.all(np.isfinite(thr)) and np.all(np.isfinite(eff))):
            raise ConfigError("thresholds and efficiencies must be finite")
        if np.any(np.diff(thr) <= 0.0):
            raise ConfigError("thresholds must be strictly increasing")
        if np.any(np.diff(eff) < 0.0) or np.any(eff < 0.0):
            raise ConfigError("efficiencies must be nonnegative and nondecreasing")
        thr.flags.writeable = False
        eff.flags.writeable = False

    def efficiency(self, snir_db):
        """Spectral efficiency at the given SNIR (scalar or array), dB."""
        snir_db = np.asarray(snir_db, dtype=float)
        idx = np.searchsorted(self.thresholds_db, snir_db, side="right") - 1
        eff = np.where(idx >= 0, self.efficiencies[np.maximum(idx, 0)], 0.0)
        return eff if eff.ndim else float(eff)

    @classmethod
    def from_rows(cls, rows) -> "ModcodTable":
        rows = sorted(rows)
        return cls(
            thresholds_db=np.array([r[0] for r in rows]),
            efficiencies=np.array([r[1] for r in rows]),
        )

    @classmethod
    def from_file(cls, path) -> "ModcodTable":
        """Parse a plain-text table: two columns, '#' comments."""
        rows = []
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            try:
                threshold, efficiency = (float(part) for part in body.split())
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: expected 'threshold_db efficiency', "
                    f"got {body!r}"
                ) from None
            rows.append((threshold, efficiency))
        if not rows:
            raise ConfigError(f"{path}: no table rows found")
        try:
            return cls.from_rows(rows)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None

    @classmethod
    def default(cls) -> "ModcodTable":
        """The packaged standard table."""
        ref = resources.files("satprecode.data").joinpath("dvbs2x_modcod.txt")
        with resources.as_file(ref) as path:
            return cls.from_file(path)


def sinr_matrix(ch: ChannelMatrix, w: np.ndarray) -> np.ndarray:
    """Linear SINR of every user under precoder W, as a (K, Q) array.

    Signal is the user's own beam column, interference the other beams'
    columns, noise power one (the channel is noise-normalized). A
    (P, N, K) stack of precoders gives a (P, K, Q) array.
    """
    amps = np.abs(ch.h @ w) ** 2                     # (..., KQ, K)
    rows = amps.shape[-2]
    beam_of_row = np.repeat(np.arange(ch.beams), ch.users_per_beam)
    signal = amps[..., np.arange(rows), beam_of_row]
    interference = amps.sum(axis=-1) - signal
    return (signal / (interference + 1.0)).reshape(
        *amps.shape[:-2], ch.beams, ch.users_per_beam)


def beam_rate(sinrs, table: ModcodTable, budget: LinkBudget,
              bandwidth_factor: float = 1.0):
    """Beam rate in bit/s: the worst user of the beam picks the efficiency.

    `sinrs` holds linear user SINRs along the last axis: one beam's (Q,)
    gives a float, all beams' (K, Q) gives a (K,) array and a power
    sweep's (P, K, Q) a (P, K) array.
    `bandwidth_factor` scales the usable band (1/4 for the four-coloring
    baseline).
    """
    sinrs = np.asarray(sinrs, dtype=float)
    if sinrs.size < 1:
        raise ConfigError("need at least one SINR")
    if np.isnan(sinrs).any():
        # Not a modelled failure: a NaN past the designs is a bug.
        raise FloatingPointError("NaN SINR: no rate can be assigned")
    worst_db = 10.0 * np.log10(np.maximum(np.min(sinrs, axis=-1), 1e-300))
    symbol_rate = bandwidth_factor * budget.bandwidth_hz / (1.0 + budget.rolloff)
    return symbol_rate * table.efficiency(worst_db)


@dataclass
class MonteCarloResult:
    """Aggregated Monte Carlo output.

    `throughput[scenario][p_dbw]` is a (trials, K) array of per-beam
    throughput with NaN rows for skipped trials; `plans` maps each
    ``gw_*`` scenario to the gateway plan it was simulated with.
    """

    scenarios: tuple[str, ...]
    power_dbw: tuple[float, ...]
    beams: int
    trials: int
    throughput: dict
    skipped: dict
    plans: dict[str, GatewayPlan]

    def trial_means(self, scenario: str, p_dbw: float) -> np.ndarray:
        """Per-trial mean over beams (NaN where the trial was skipped)."""
        arr = self.throughput[scenario][p_dbw]
        valid = ~np.all(np.isnan(arr), axis=1)
        out = np.full(arr.shape[0], np.nan)
        if np.any(valid):
            out[valid] = np.nanmean(arr[valid], axis=1)
        return out

    def mean_per_beam(self, scenario: str, p_dbw: float) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.nanmean(self.throughput[scenario][p_dbw], axis=0)

    def std_per_beam(self, scenario: str, p_dbw: float) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.nanstd(self.throughput[scenario][p_dbw], axis=0)

    def total_cells(self) -> int:
        return len(self.scenarios) * len(self.power_dbw) * max(self.trials, 1)

    def total_skipped(self) -> int:
        return sum(self.skipped.values())

    def csv_rows(self):
        """Rows (scenario, p_dbw, beam, mean, std, trials, skipped)."""
        rows = []
        for name in self.scenarios:
            for p in self.power_dbw:
                skipped = self.skipped[(name, p)]
                used = self.trials - skipped
                if used > 0:
                    mean = self.mean_per_beam(name, p)
                    std = self.std_per_beam(name, p)
                else:
                    mean = std = np.full(self.beams, np.nan)
                for k in range(self.beams):
                    rows.append((name, p, k, mean[k], std[k], used, skipped))
        return rows


def _build_layout(cfg: ScenarioConfig, budget: LinkBudget) -> BeamLayout:
    return hex_layout(
        beams=cfg.beams,
        center_lat=cfg.center_lat,
        center_lon=cfg.center_lon,
        beam_radius_3db_deg=cfg.beam_radius_3db_deg,
        spacing_deg=cfg.beam_spacing_deg,
        feeds_per_beam=cfg.feeds_per_beam,
        budget=budget,
    )


def _build_budget(cfg: ScenarioConfig) -> LinkBudget:
    return LinkBudget(
        **{key: getattr(cfg, key) for key in _SCHEMA["link_budget"]}
    )


def _build_table(cfg: ScenarioConfig) -> ModcodTable:
    if cfg.modcod_file:
        return ModcodTable.from_file(cfg.modcod_file)
    return ModcodTable.default()


def gateway_plans(cfg: ScenarioConfig,
                  layout: BeamLayout) -> dict[str, GatewayPlan]:
    """The plan of each configured ``gw_*`` scenario, keyed by scenario name.

    ``gw_closest:C`` ranks each gateway's peers by the centroid distance
    of their beam clusters.
    """
    plans = {}
    for name in cfg.scenarios:
        base, _, count = name.partition(":")
        if base.startswith("gw_"):
            plans[name] = make_plan(
                cfg.beams, layout.feeds, cfg.users_per_beam, cfg.gateways,
                base[len("gw_"):], closest_c=int(count) if count else None,
                beam_centers=layout.beam_centers,
            )
    return plans


def _select_members(cfg: ScenarioConfig, pool_est: ChannelMatrix,
                    gamma_user: np.ndarray | None, seed) -> np.ndarray:
    q = cfg.users_per_beam
    if cfg.grouping == "nominal":
        return grouping_mod.group_users(pool_est, q, seed)
    if cfg.grouping == "robust":
        if gamma_user is None:
            gamma_user = np.zeros((pool_est.beams, pool_est.users_per_beam))
        return grouping_mod.robust_group_users(pool_est, gamma_user, q, seed)
    rng = np.random.default_rng(seed)
    return np.array(
        [
            np.sort(rng.choice(pool_est.users_per_beam, size=q, replace=False))
            for _ in range(pool_est.beams)
        ]
    )


def _trial_channels(trial_seed: np.random.SeedSequence, cfg: ScenarioConfig,
                    layout: BeamLayout, budget: LinkBudget, contours: tuple):
    """One channel realization: the served users' true and estimated
    channels and the estimate's error bounds. `contours` is
    `beam_contours(layout, budget)`.

    The pool-sized intermediates are released when this returns, so they
    are not held while the designs run.
    """
    users_seed, phase_seed, perturb_seed, select_seed = trial_seed.spawn(4)
    users = place_users(layout, cfg.pool_per_beam, users_seed, budget=budget,
                        contours=contours)
    gain = build_gain_matrix(layout, users, budget)
    phase = build_phase_matrix(
        PhaseModel(variant=cfg.phase_model, chi_deg=cfg.phase_sigma_deg,
                   rng_seed=phase_seed),
        gain.shape[0],
        gain.shape[1],
    )
    # The phase array is this function's own: the pool channel is formed
    # in it, with no third pool-sized matrix.
    pool_true = assemble_channel(gain, phase, cfg.beams, cfg.pool_per_beam)
    del gain, phase

    gamma_user = None
    if cfg.csi_error_ratio > 0.0:
        pool_est, delta_pool = perturb_channel(
            pool_true, cfg.csi_error_ratio, perturb_seed
        )
        gamma_user = (
            np.sum(np.abs(delta_pool) ** 2, axis=1)
            .reshape(cfg.beams, cfg.pool_per_beam)
        )
    else:
        pool_est, delta_pool = pool_true, None

    members = _select_members(cfg, pool_est, gamma_user, select_seed)
    ch_true = extract_users(pool_true, members)
    ch_est = extract_users(pool_est, members)
    if delta_pool is not None:
        delta = np.vstack(
            [delta_pool[k * cfg.pool_per_beam + members[k]] for k in range(cfg.beams)]
        )
        bounds = PerturbationBounds.from_delta(
            delta, cfg.beams, cfg.users_per_beam
        )
    else:
        bounds = PerturbationBounds.zero(cfg.beams)
    return ch_true, ch_est, bounds


def _run_trial(trial_seed: np.random.SeedSequence,
               cfg: ScenarioConfig, layout: BeamLayout, budget: LinkBudget,
               table: ModcodTable, plans: dict, p_w: np.ndarray,
               contours: tuple):
    """One channel realization evaluated under every scenario and at every
    power of `p_w`, the power sweep in Watts: a (K,) rate row per
    (scenario, power) cell, None where the cell was skipped."""
    ch_true, ch_est, bounds = _trial_channels(trial_seed, cfg, layout, budget,
                                              contours)

    # The CSI exchange does not depend on power: one set of views per
    # gateway scenario, designed together for every power point.
    shared = {}
    for name, plan in plans.items():
        try:
            shared[name] = share_csi(ch_est, plan)
        except MODELLED_FAILURES:
            shared[name] = None
    family = _family_cells(
        {name: (views, plans[name]) for name, views in shared.items()
         if views is not None},
        ch_true, p_w, cfg, table, budget)

    def rates(name, p_w):
        sinrs, factor = _scenario_sinrs(
            name, ch_true, ch_est, bounds, p_w, cfg, layout, plans, shared,
        )
        return beam_rate(sinrs, table, budget, factor)

    out = {}
    for name in cfg.scenarios:
        if name in shared and shared[name] is None:
            cells = [None] * p_w.size
        elif name in family:
            cells = family[name]
        else:
            cells = _cells_per_power(lambda p: rates(name, p), p_w)
        out.update(zip([(name, p) for p in cfg.power_sweep_dbw], cells))
    return out


def _family_cells(designs: dict, ch_true: ChannelMatrix, p_w: np.ndarray,
                  cfg: ScenarioConfig, table: ModcodTable,
                  budget: LinkBudget) -> dict:
    """The (K,) rate rows at every power of each gateway scenario in
    `designs` (its views and plan, by name), from one stacked design, one
    SINR and one rate call.

    After a modelled failure it returns no scenario, and the caller runs
    each one on its own (`_cells_per_power`), which finds the cells that
    fail.
    """
    if not designs:
        return {}
    try:
        pre = assemble_multigateway_family(list(designs.values()), p_w,
                                           cfg.power_mode)
    except MODELLED_FAILURES:
        return {}
    rates = beam_rate(sinr_matrix(ch_true, pre.w), table, budget)
    return {name: list(block) for name, block in
            zip(designs, rates.reshape(len(designs), p_w.size, -1))}


def _cells_per_power(rates, p_w: np.ndarray) -> list:
    """`rates(p_w)` as one (K,) row per power; None marks a skipped cell.

    The whole power vector is designed and evaluated in one call. After a
    modelled failure the powers run again one at a time (each a length-1
    vector), so only the (scenario, power) cells that fail on their own
    are skipped.
    """
    try:
        return list(rates(p_w))
    except MODELLED_FAILURES:
        pass
    cells = []
    for i in range(p_w.size):
        try:
            cells.append(rates(p_w[i:i + 1])[0])
        except MODELLED_FAILURES:
            cells.append(None)
    return cells


def _scenario_sinrs(name: str, ch_true: ChannelMatrix, ch_est: ChannelMatrix,
                    bounds: PerturbationBounds, p_w: np.ndarray,
                    cfg: ScenarioConfig, layout: BeamLayout, plans: dict,
                    shared: dict):
    if name == "mbim" or name == "rzf":
        pre = two_stage(ch_est, p_w, cfg.power_mode, interbeam=name)
        return sinr_matrix(ch_true, pre.w), 1.0
    if name == "avg_mmse":
        pre = baseline_avg_mmse(ch_est, p_w, cfg.power_mode)
        return sinr_matrix(ch_true, pre.w), 1.0
    if name == "four_color":
        return baseline_four_color(ch_true, layout, p_w), 0.25
    if name == "robust":
        pre = robust_two_stage(ch_est, bounds, p_w, cfg.power_mode)
        return sinr_matrix(ch_true, pre.w), 1.0
    if name in plans:
        pre = assemble_multigateway_precoder(shared[name], plans[name], p_w,
                                             cfg.power_mode)
        return sinr_matrix(ch_true, pre.w), 1.0
    raise ConfigError(f"unknown scenario {name!r}")


def run_monte_carlo(cfg: ScenarioConfig, layout: BeamLayout | None = None,
                    table: ModcodTable | None = None) -> MonteCarloResult:
    """Run the configured scenario suite over seeded channel realizations.

    Deterministic for a fixed master seed: each trial owns spawned seed
    streams, so a trial's results do not depend on the trials run before
    it. The trials run one after another in this thread.
    Modelled numerical failures (singular or infeasible channels, vanished
    beams, LAPACK errors) skip their cell and are counted; any other
    exception propagates. `layout` and `table` are the configured beam
    layout and MODCOD table when the caller has built them already (the
    CLI does, inside its error boundary).
    """
    cfg.validate()
    budget = _build_budget(cfg)
    if layout is None:
        layout = _build_layout(cfg, budget)
    if table is None:
        table = _build_table(cfg)
    plans = gateway_plans(cfg, layout)
    p_w = np.array([dbw_to_watts(p_dbw) for p_dbw in cfg.power_sweep_dbw])

    cells = {
        (name, p): np.full((cfg.trials, cfg.beams), np.nan)
        for name in cfg.scenarios
        for p in cfg.power_sweep_dbw
    }
    skipped = {key: 0 for key in cells}

    trial_seeds = np.random.SeedSequence(cfg.seed).spawn(max(cfg.trials, 0))
    # The sampling boxes depend on the layout alone: worked out once, and
    # only when some trial draws users.
    contours = beam_contours(layout, budget) if trial_seeds else None
    for t, trial_seed in enumerate(trial_seeds):
        per_cell = _run_trial(trial_seed, cfg, layout, budget, table, plans, p_w,
                              contours)
        for key, value in per_cell.items():
            if value is None:
                skipped[key] += 1
            else:
                cells[key][t] = value

    throughput = {name: {} for name in cfg.scenarios}
    for (name, p), arr in cells.items():
        arr.flags.writeable = False
        throughput[name][p] = arr
    return MonteCarloResult(
        scenarios=cfg.scenarios,
        power_dbw=cfg.power_sweep_dbw,
        beams=cfg.beams,
        trials=cfg.trials,
        throughput=throughput,
        skipped=skipped,
        plans=plans,
    )

