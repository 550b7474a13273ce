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
import contextlib
import ctypes
import functools
import sys
import time
from pathlib import Path

try:
    import resource
except ImportError:  # not on Windows
    resource = None

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

# glibc's mallopt(3) parameters and the values a run sets. By default glibc
# gives each block above an adaptive threshold (128 KiB, raised to the
# largest such block freed) its own mmap, and trims the top of the heap
# once twice that threshold is free there, so the 0.2-1.2 MB arrays a trial
# frees go back to the OS and the next stage or trial faults them in
# again: about 1,800 minor page faults per trial of the 61-beam robust and
# rzf designs. With these values blocks below 32 MiB (glibc's documented
# upper limit for this threshold on 64-bit systems) come from the heap,
# and up to 128 MiB of free heap top is kept for reuse.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 128 << 20

# The thread-count (get, set) pairs OpenBLAS builds export: a plain build,
# the scipy-openblas wheel NumPy loads (64-bit integers, suffixed symbols)
# and the one SciPy loads.
_OPENBLAS_THREAD_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)
_PROC_MAPS = "/proc/self/maps"


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
    if getattr(args, "power_dbw", None) is not None:
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


@functools.cache
def _keep_freed_heap() -> None:
    """Have the C allocator keep freed heap memory for reuse.

    A process-wide allocator policy, so only the CLI, which owns its
    process, sets it; it changes no arithmetic. It is set once per
    process: each ``mallopt`` call consolidates the heap's free chunks,
    and a process may call `main` many times. Where the C library cannot
    be loaded or has no ``mallopt`` (macOS, Windows), it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: Windows
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


@functools.cache
def _openblas_thread_controls() -> tuple:
    """The (get, set) thread-count functions of every OpenBLAS loaded.

    Found once per process, from the shared objects mapped into it; none
    where there is no ``/proc`` or the BLAS is not OpenBLAS (MKL,
    Accelerate), and none for a library that exports no known pair.
    """
    try:
        with open(_PROC_MAPS) as maps:
            # address, perms, offset, dev, inode and a path, which may
            # hold spaces
            mappings = [line.rstrip("\n").split(maxsplit=5) for line in maps]
    except OSError:
        return ()
    paths = sorted({m[5] for m in mappings
                    if len(m) == 6 and "openblas" in m[5]})
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                controls.append((get, set_))
                break
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread.

    No matrix a trial multiplies or factors is large enough to gain from
    BLAS threads (the largest shipped size is 490 x 245), yet OpenBLAS
    spreads the 61-beam products over every core: about twice the CPU
    time for the same wall time. No result depends on the thread count.
    Each library gets its earlier count back on the way out, so library
    callers keep their own. Yields whether any library was set.
    """
    controls = _openblas_thread_controls()
    earlier = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield bool(controls)
    finally:
        for (_, set_), count in zip(controls, earlier):
            set_(count)


def _process_usage() -> list[str]:
    """Summary lines on this process's memory, where `resource` exists."""
    if resource is None:
        return []
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss is in KiB, but in bytes on macOS.
    rss_unit = 1 if sys.platform == "darwin" else 1024
    return [
        f"peak_rss_mib: {usage.ru_maxrss * rss_unit / 2**20:.1f}",
        f"minor_page_faults: {usage.ru_minflt}",
    ]


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

    _keep_freed_heap()
    with _one_blas_thread() as blas_managed:
        started = time.perf_counter()
        result = run_monte_carlo(cfg, layout, table)
        elapsed = time.perf_counter() - started

    stats = result.statistics()
    write_results_csv(result, stats, out_dir / "results.csv",
                      header_lines=_echo_lines(cfg))
    artifacts = [out_dir / "results.csv"]
    for s, name in enumerate(cfg.scenarios):
        curve_path = out_dir / f"curve_{name.replace(':', '-')}.csv"
        write_scenario_curve_csv(cfg.power_sweep_dbw, stats.curve_mean[s],
                                 stats.curve_std[s], curve_path)
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
        f"blas_threads: {1 if blas_managed else 'unmanaged'}",
        f"skipped_cells: {skipped} / {total}",
        *_process_usage(),
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
