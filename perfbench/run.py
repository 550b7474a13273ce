"""satprecode benchmark: one measured run of one workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload desk_sweep --seed 1 --seconds 20 --trace 0

The workload's config is generated from its template and the seed
(``workloads.py``) and run through ``satprecode.cli.main(["run", ...])``
over and over. The repetitions run in chunks, each chunk in a fresh
interpreter (``child.py``). Chunks start while the next one is expected
to end by ``--seconds`` or half a chunk later; at least one always
runs. Every repetition's ``results.csv`` is checked against the
reference results (``reference.py``); a repetition that exits nonzero or
fails the check counts all of its cells as failed.

A repetition is a few trials, so a run holds many of them. On a shared
host the speed of a core drifts by a third over minutes as other work
comes and goes, and a time measured in one run says as much about the
host as about the program. So every repetition is followed by a speed
probe (``child.probe``, a fixed pure-Python loop that runs no satprecode
code), and every time the benchmark reports is scaled to a machine on
which the probe takes ``REFERENCE_PROBE_S``. A repetition's wall and CPU
time are multiplied by ``REFERENCE_PROBE_S`` / (median of the probes
right after it); set-up and per-layer times by ``time_scale`` =
``REFERENCE_PROBE_S`` / (median of all probes of the run). A change to
the program moves the probe not at all, so it moves the scaled times as
much as the measured ones. The unscaled medians and ``time_scale`` are
printed before the result.

``--trace 0`` cycles a set-up measurement and a chunk, and reports the
end-to-end metrics: set-up time (median of at least ``SETUP_REPS`` fresh
processes), trials/s and CPU seconds per trial (median of the scaled
repetitions), peak RSS (median over chunks) and the share of cells
computed correctly. Interleaving spreads the set-up
samples over the whole run, so a slow spell of the machine does not hit
them all. ``--trace 1``
alternates untraced and traced chunks and reports the per-layer metrics
of every span in ``tracer.SPANS`` (calls per trial, and self time of the
median traced repetition scaled by ``time_scale``), the pool-size metrics,
the tracing overhead and the raw median probe time.

The benchmark's own tests: ``python3 -m pytest perfbench/tests``.

Before the result it prints the machine fingerprint (nproc, CPU model,
Python/NumPy/SciPy/BLAS versions, OMP_*/OPENBLAS_* variables) and the raw
per-repetition numbers; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import child
from reference import load_reference, mismatch, read_results
from tracer import SPANS
from workloads import WORKLOADS

SETUP_REPS = 5
# A run is split into this many chunks, each one fresh process.
CHUNKS = 5
# Median time of one speed probe on a 2-vCPU Intel Xeon VM (Python 3.11);
# reported times are scaled to a machine as fast as that.
REFERENCE_PROBE_S = 0.005
# Every run must end well within three minutes, whatever --seconds says.
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "trials_per_s": "trials/s",
    "cpu_s_per_trial": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_cell_frac": "ratio",
}
SPAN_METRIC_UNITS = {
    "calls_per_trial": "calls/trial",
    "self_ms_per_trial": "ms/trial",
    "errors": "count",
}
EXTRA_UNITS = {
    "channel.pool_bytes": "bytes",
    "channel.pool_rows_used_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "skipped_cell_frac": "ratio",
    "machine.probe_ms": "ms",
}


def per_layer_units() -> dict:
    units = {
        f"{span}.{metric}": unit
        for span in SPANS
        for metric, unit in SPAN_METRIC_UNITS.items()
    }
    units.update(EXTRA_UNITS)
    return units


class Bench:
    """Repetitions of one workload and seed, with their output checks."""

    def __init__(self, workload, seed: int, work: Path, started: float):
        self.workload = workload
        self.work = work
        self.started = started
        self.config = str(workload.write_config(seed, work / "bench.cfg"))
        self.reference = load_reference(workload.name, seed)
        self.cells = len(self.reference["means"]) * workload.trials
        self.reps = []
        self.peaks = []
        self.setups = []
        self.fingerprint = None

    def timeout(self) -> float:
        return max(1.0, HARD_LIMIT_S - (time.monotonic() - self.started))

    def setup_rep(self) -> None:
        result = child.spawn("setup", "--config", self.config, timeout=self.timeout())
        self.fingerprint = result["fingerprint"]
        self.setups.append(result["setup_s"])

    def chunk(self, traced: bool, seconds: float) -> None:
        """One fresh process repeating the run for about `seconds`."""
        out = self.work / f"chunk{len(self.peaks)}"
        args = ["--config", self.config, "--out", str(out), "--seconds", str(seconds)]
        try:
            result = child.spawn("run", *args, *(["--trace"] if traced else []),
                                 timeout=self.timeout())
            self.fingerprint = result["fingerprint"]
            self.peaks.append(result["peak_rss_mb"])
            for i, rep in enumerate(result["reps"]):
                self.check(rep, out / f"rep{i}", traced)
        except (RuntimeError, OSError, ValueError, KeyError) as exc:
            self.record({"traced": traced, "failed": self.cells, "error": str(exc)})
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def check(self, rep: dict, out: Path, traced: bool) -> None:
        rep.update(traced=traced, failed=self.cells, error=None)
        try:
            if rep["exit"] != 0:
                rep["error"] = f"exit status {rep['exit']}"
            else:
                results = read_results(out / "results.csv")
                rep["error"] = mismatch(results, self.reference)
                if rep["error"] is None:
                    rep["failed"] = results.skipped
        except (OSError, ValueError, KeyError) as exc:
            rep["error"] = str(exc)
        self.record(rep)

    def record(self, rep: dict) -> None:
        if rep["error"]:
            print(f"repetition {len(self.reps)} failed: {rep['error']}",
                  file=sys.stderr)
        self.reps.append(rep)

    def repeat(self, seconds: float, cycle) -> None:
        """Run the steps of `cycle` over and over until the time is up."""
        chunk_s = seconds / CHUNKS
        steps = {
            "setup": self.setup_rep,
            "run": lambda: self.chunk(False, chunk_s),
            "traced": lambda: self.chunk(True, chunk_s),
        }
        # A cycle starts while it is expected to end at most half a cycle
        # late, so that a run of long repetitions still holds several.
        deadline = time.monotonic() + seconds
        longest = 0.0
        while not self.reps or time.monotonic() + longest / 2 <= deadline:
            start = time.monotonic()
            for step in cycle:
                steps[step]()
            longest = max(longest, time.monotonic() - start)

    def timed(self, traced: bool) -> list:
        """Records of repetitions that ran to completion."""
        return [r for r in self.reps if r["traced"] == traced and r.get("exit") == 0]

    def time_scale(self) -> float:
        """Seconds on the reference machine per second on this run's one."""
        probes = [t for r in self.reps if r.get("exit") == 0 for t in r["probe_s"]]
        return REFERENCE_PROBE_S / statistics.median(probes)

    def failed_cells(self) -> int:
        return sum(r["failed"] for r in self.reps)

    def attempted_cells(self) -> int:
        return self.cells * len(self.reps)


def raw_end_to_end(bench: Bench) -> dict:
    """The end-to-end metrics as measured, before scaling by time_scale."""
    reps = bench.timed(False)
    trials = bench.workload.trials
    return {
        "trials_per_s": trials / statistics.median(r["wall_s"] for r in reps),
        "cpu_s_per_trial": statistics.median(r["cpu_s"] for r in reps) / trials,
        "setup_s": statistics.median(bench.setups),
        "peak_rss_mb": statistics.median(bench.peaks),
        "ok_cell_frac": 1.0 - bench.failed_cells() / bench.attempted_cells(),
    }


def end_to_end(bench: Bench) -> dict:
    values = raw_end_to_end(bench)
    reps = bench.timed(False)
    trials = bench.workload.trials
    scales = [REFERENCE_PROBE_S / statistics.median(r["probe_s"]) for r in reps]
    values["trials_per_s"] = trials / statistics.median(
        r["wall_s"] * k for r, k in zip(reps, scales))
    values["cpu_s_per_trial"] = statistics.median(
        r["cpu_s"] * k for r, k in zip(reps, scales)) / trials
    values["setup_s"] *= bench.time_scale()
    return values


def per_layer(bench: Bench) -> dict:
    trials = bench.workload.trials
    traced = bench.timed(True)
    scale = bench.time_scale()
    values = {}
    for span in SPANS:
        stats = [r["spans"][span] for r in traced]
        values[f"{span}.calls_per_trial"] = (
            statistics.median(s["calls"] for s in stats) / trials
        )
        values[f"{span}.self_ms_per_trial"] = (
            statistics.median(s["self_s"] for s in stats) * scale * 1e3 / trials
        )
        values[f"{span}.errors"] = max(s["errors"] for s in stats)
    pool_rows = max(r["observed"]["pool_rows"] for r in traced)
    served_rows = max(r["observed"]["served_rows"] for r in traced)
    values["channel.pool_bytes"] = max(r["observed"]["pool_bytes"] for r in traced)
    values["channel.pool_rows_used_frac"] = (
        served_rows / pool_rows if pool_rows else 0.0
    )
    untraced_wall = statistics.median(r["wall_s"] for r in bench.timed(False))
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    values["skipped_cell_frac"] = bench.failed_cells() / bench.attempted_cells()
    values["machine.probe_ms"] = REFERENCE_PROBE_S / scale * 1e3
    return values


def measure(args, bench: Bench) -> dict:
    if args.trace:
        bench.repeat(args.seconds, ("run", "traced"))
        if not (bench.timed(False) and bench.timed(True)):
            raise RuntimeError("no traced and untraced repetition completed")
        values, units = per_layer(bench), per_layer_units()
    else:
        bench.repeat(args.seconds, ("setup", "run"))
        while len(bench.setups) < SETUP_REPS:
            bench.setup_rep()
        if not bench.timed(False):
            raise RuntimeError("no repetition completed")
        values, units = end_to_end(bench), END_TO_END_UNITS
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so that a running child
    # is killed and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (child.SRC / "satprecode" / "__init__.py").is_file():
        print(f"error: no satprecode sources under {child.SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    work = child.ROOT / ".bench_work" / (
        f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    )
    work.mkdir(parents=True)
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, work, started)
        metrics = measure(args, bench)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("fingerprint " + json.dumps(bench.fingerprint))
    print("setup_s " + json.dumps(bench.setups))
    print("repetitions " + json.dumps(
        [{k: v for k, v in r.items() if k not in ("spans", "observed", "probe_s")}
         for r in bench.reps]))
    print("time_scale " + json.dumps(bench.time_scale()))
    if not args.trace:
        print("unscaled " + json.dumps(raw_end_to_end(bench)))
    print(json.dumps({
        "correct": all(r["error"] is None for r in bench.reps),
        "attempted": bench.attempted_cells(),
        "failed": bench.failed_cells(),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
