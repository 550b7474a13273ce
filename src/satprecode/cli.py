"""Batch command-line front end.

Verbs:

* ``validate`` - parse a config, echo every effective parameter, exit;
* ``run``      - execute the configured scenario suite and write the
                 results CSV (plus an overhead CSV of the simulated
                 gateway plans that exchange CSI) and a human-readable
                 summary;
* ``sweep``    - like ``run`` with the power sweep overridden from the
                 command line;
* ``overhead`` - the CSI-sharing accounting of the configured ``gw_*``
                 scenarios only, no Monte Carlo.

Transmit powers are given in dBW and converted to Watts internally.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ScenarioConfig, _parse_floats, config_echo, parse_config
from .evaluate import (
    _build_budget,
    _build_layout,
    _build_table,
    gateway_plans,
    run_monte_carlo,
)
from .exceptions import ConfigError, GeometryError
from .gateway import overhead_per_gateway
from .io import write_overhead_csv, write_results_csv, write_scenario_curve_csv

MAX_SKIP_FRACTION = 0.10


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satprecode",
        description="Multibeam satellite multicast precoding simulator. "
                    "Transmit powers are given in dBW and converted to "
                    "Watts internally.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
        p.add_argument("--dry-run", action="store_true",
                       help="validate and print the execution plan only")

    common(sub.add_parser("validate", help="check a config file"))
    common(sub.add_parser("run", help="run the configured suite"))
    p_sweep = sub.add_parser("sweep", help="run with an overridden power sweep")
    common(p_sweep)
    p_sweep.add_argument(
        "--power-dbw", required=True,
        help="comma-separated total power points in dBW",
    )
    common(sub.add_parser("overhead", help="gateway overhead accounting only"))
    return parser


def _load(args) -> ScenarioConfig:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if getattr(args, "power_dbw", None):
        cfg.power_sweep_dbw = _parse_floats(args.power_dbw)
    cfg.validate()
    return cfg


def _print_plan(cfg: ScenarioConfig) -> None:
    print("execution plan:")
    print(f"  scenarios     : {', '.join(cfg.scenarios)}")
    print(f"  power sweep   : {', '.join(str(p) for p in cfg.power_sweep_dbw)} dBW")
    print(f"  trials        : {cfg.trials}")
    print(f"  channel       : K={cfg.beams} N={cfg.beams * cfg.feeds_per_beam} "
          f"Q={cfg.users_per_beam} pool={cfg.pool_per_beam}")
    print(f"  grouping      : {cfg.grouping}")
    print(f"  csi error     : ratio={cfg.csi_error_ratio}")
    print(f"  master seed   : {cfg.seed}")


def _echo_lines(cfg: ScenarioConfig) -> list[str]:
    return [f"satprecode {__version__}", *config_echo(cfg)]


def _overhead_rows(plans: dict) -> list[tuple]:
    """One row per gateway of every plan that exchanges CSI."""
    rows = []
    for plan in plans.values():
        if plan.mode == "ref":
            continue
        counts = overhead_per_gateway(plan)
        label = plan.mode
        if plan.mode == "closest":
            label += f":{plan.closest_c}"
        for g in range(plan.gateways):
            rows.append(
                (label, plan.gateways, int(plan.beams_per_gateway[g]),
                 int(plan.feeds_per_gateway[g]), int(counts[g]))
            )
    return rows


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        # Every verb builds the layout and the MODCOD table here, so a
        # layout that hex_layout rejects or a malformed table exits 2 on all
        # of them. No design runs yet, so only bad input can raise.
        layout = _build_layout(cfg, _build_budget(cfg))
        table = _build_table(cfg)
        if args.verb == "overhead":
            plans = gateway_plans(cfg, layout)
            if not plans:
                raise ConfigError("overhead needs at least one gw_* scenario")
    except (ConfigError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.verb == "validate" or args.dry_run:
        for line in _echo_lines(cfg):
            print(line)
        _print_plan(cfg)
        return 0

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        print(f"error: output directory not writable: {exc}", file=sys.stderr)
        return 2

    if args.verb == "overhead":
        rows = _overhead_rows(plans)
        write_overhead_csv(rows, out_dir / "overhead.csv")
        print(f"wrote {out_dir / 'overhead.csv'} ({len(rows)} rows)")
        return 0

    started = time.perf_counter()
    result = run_monte_carlo(cfg, layout, table)
    elapsed = time.perf_counter() - started

    write_results_csv(
        result.csv_rows(), out_dir / "results.csv", header_lines=_echo_lines(cfg)
    )
    artifacts = [out_dir / "results.csv"]
    for name in cfg.scenarios:
        means, stds = [], []
        for p in cfg.power_sweep_dbw:
            trial_means = result.trial_means(name, p)
            valid = trial_means[~np.isnan(trial_means)]
            means.append(valid.mean() if valid.size else float("nan"))
            stds.append(valid.std() if valid.size else float("nan"))
        curve_path = out_dir / f"curve_{name.replace(':', '-')}.csv"
        write_scenario_curve_csv(cfg.power_sweep_dbw, means, stds, curve_path)
        artifacts.append(curve_path)
    rows = _overhead_rows(result.plans)
    if rows:
        write_overhead_csv(rows, out_dir / "overhead.csv")
        artifacts.append(out_dir / "overhead.csv")

    skipped = result.total_skipped()
    total = result.total_cells()
    summary = [
        f"satprecode {__version__}",
        f"finished: {time.strftime('%Y-%m-%d %H:%M:%S')}",
        f"elapsed_s: {elapsed:.2f}",
        f"python: {sys.version.split()[0]}",
        f"skipped_cells: {skipped} / {total}",
        "",
        "config:",
        *(f"  {line}" for line in config_echo(cfg)),
    ]
    (out_dir / "summary.txt").write_text("\n".join(summary) + "\n")
    artifacts.append(out_dir / "summary.txt")

    for path in artifacts:
        print(f"wrote {path}")
    if total and skipped / total > MAX_SKIP_FRACTION:
        print(
            f"error: {skipped}/{total} scenario cells skipped "
            f"(> {MAX_SKIP_FRACTION:.0%})",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
