"""One measurement in a fresh interpreter; prints one JSON line on stdout.

Usage (from the repository root)::

    python3 perfbench/child.py setup --config CFG
    python3 perfbench/child.py run --config CFG --out DIR --seconds S [--trace]

``run`` repeats the CLI run of CFG in this one process while the next
repetition is expected to finish within S seconds (at least one runs);
repetition i writes its output to ``DIR/rep<i>``. After each repetition
it times the speed probe (``probe``) for about ``PROBE_SHARE`` of the
repetition's wall time, at least once.

``satprecode`` is imported from the ``src/`` directory next to
``perfbench/``; the child refuses to measure any other copy. Every result
carries the machine fingerprint, taken after the measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The speed probe: a fixed pure-Python loop that uses no satprecode code,
# so its time tracks only how fast the machine runs at that moment.
PROBE_LOOPS = 60_000
PROBE_SHARE = 0.05


def _import_satprecode() -> None:
    sys.path.insert(0, str(SRC))
    import satprecode

    if not Path(satprecode.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"satprecode imported from {satprecode.__file__}, not {SRC}")


def _blas_version(show_config) -> str:
    try:
        deps = show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_version(numpy.show_config),
        "scipy_blas": _blas_version(scipy.show_config),
        "thread_env": {
            k: v for k, v in sorted(os.environ.items())
            if k.startswith(("OMP_", "OPENBLAS_"))
        },
    }


def setup(config: str) -> dict:
    """Everything a run does before trial 0, timed from a cold import."""
    start = time.perf_counter()
    _import_satprecode()
    from satprecode.channel import LinkBudget, hex_layout
    from satprecode.config import parse_config
    from satprecode.evaluate import ModcodTable

    cfg = parse_config(config)
    budget = LinkBudget(
        satellite_longitude_deg=cfg.satellite_longitude_deg,
        satellite_height_m=cfg.satellite_height_m,
        earth_radius_m=cfg.earth_radius_m,
        carrier_freq_hz=cfg.carrier_freq_hz,
        bandwidth_hz=cfg.bandwidth_hz,
        rolloff=cfg.rolloff,
        user_antenna_gain_db=cfg.user_antenna_gain_db,
        g_over_t_db=cfg.g_over_t_db,
    )
    hex_layout(
        beams=cfg.beams,
        center_lat=cfg.center_lat,
        center_lon=cfg.center_lon,
        beam_radius_3db_deg=cfg.beam_radius_3db_deg,
        spacing_deg=cfg.beam_spacing_deg,
        feeds_per_beam=cfg.feeds_per_beam,
        budget=budget,
    )
    ModcodTable.default()
    return {"setup_s": time.perf_counter() - start, "fingerprint": fingerprint()}


def _cpu_s() -> float:
    """User plus system CPU time of this process and its children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _rep(cli, config: str, out: Path, trace: bool) -> dict:
    """One ``satprecode run`` through the public CLI entry point."""
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        with open(os.devnull, "w") as sink, redirect_stdout(sink):
            cpu0 = _cpu_s()
            start = time.perf_counter()
            code = cli.main(["run", "--config", config, "--out", str(out)])
            wall = time.perf_counter() - start
            cpu = _cpu_s() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    rep = {"exit": code, "wall_s": wall, "cpu_s": cpu}
    if tracer is not None:
        rep["spans"] = tracer.stats
        rep["observed"] = tracer.observed
    return rep


def probe() -> float:
    """Wall time of one pass of the speed probe."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    return time.perf_counter() - start


def _probes(seconds: float) -> list:
    """Probe times, taken for about `seconds` and at least once."""
    times = [probe()]
    while sum(times) < seconds:
        times.append(probe())
    return times


def run(config: str, out: str, trace: bool, seconds: float) -> dict:
    """Repetitions of one CLI run until the next would overrun `seconds`."""
    _import_satprecode()
    import satprecode.cli

    deadline = time.monotonic() + seconds
    reps, longest = [], 0.0
    while not reps or time.monotonic() + longest <= deadline:
        start = time.monotonic()
        rep = _rep(satprecode.cli, config, Path(out) / f"rep{len(reps)}", trace)
        rep["probe_s"] = _probes(PROBE_SHARE * rep["wall_s"])
        reps.append(rep)
        longest = max(longest, time.monotonic() - start)
    return {
        "reps": reps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprint": fingerprint(),
    }


def spawn(mode: str, *args: str, timeout: float) -> dict:
    """Run this script in a fresh interpreter and return its JSON result.

    Raises ``RuntimeError`` if the child fails or times out; a child that
    times out is killed and waited for.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), mode, *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{mode} child timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"{mode} child exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--config")
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = setup(args.config)
    else:
        result = run(args.config, args.out, args.trace, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
