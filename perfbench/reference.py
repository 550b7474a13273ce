"""Output check of a benchmark run against recorded reference results.

A run's ``results.csv`` passes when it is byte-identical to the reference
recorded for the same workload and config seed. Otherwise every
(scenario, power, beam) mean throughput must agree with the reference
within the relative tolerance ``RTOL``: rates are quantized by the
MODCOD table, so arithmetic that is only reordered leaves the means
equal unless a SINR sits within rounding of a threshold.

The references were recorded with the program as it was when this
benchmark was added. Re-record them only on a commit whose results are
known to be right::

    python3 perfbench/reference.py [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import child
from workloads import REFERENCE_SEEDS, WORKLOADS, config_seed

RTOL = 1e-6
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Results:
    sha256: str
    means: dict      # "scenario|power" -> per-beam mean throughput list
    skipped: int     # skipped (scenario, power, trial) cells


def read_results(path: Path) -> Results:
    data = path.read_bytes()
    rows = csv.DictReader(
        line for line in data.decode().splitlines() if not line.startswith("#")
    )
    means, skipped = {}, {}
    for row in rows:
        key = f"{row['scenario']}|{float(row['p_total_dbw'])!r}"
        beams = means.setdefault(key, [])
        if int(row["beam"]) != len(beams):
            raise ValueError(f"{path}: beams of {key} out of order")
        beams.append(float(row["mean_throughput_bps"]))
        skipped[key] = int(row["skipped"])
    return Results(
        sha256=hashlib.sha256(data).hexdigest(),
        means=means,
        skipped=sum(skipped.values()),
    )


def load_reference(workload: str, seed: int) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text())["seeds"][str(config_seed(seed))]


def mismatch(results: Results, reference: dict) -> str | None:
    """Why `results` disagree with `reference`, or None if they agree."""
    if results.sha256 == reference["sha256"]:
        return None
    expected = reference["means"]
    if results.means.keys() != expected.keys():
        return "different (scenario, power) cells than the reference"
    for key, want in expected.items():
        got = results.means[key]
        if len(got) != len(want):
            return f"{key}: {len(got)} beams, reference has {len(want)}"
        for beam, (a, b) in enumerate(zip(got, want)):
            same = (math.isnan(a) and math.isnan(b)) or math.isclose(
                a, b, rel_tol=RTOL, abs_tol=0.0
            )
            if not same:
                return f"{key} beam {beam}: mean {a!r}, reference {b!r}"
    return None


def record(names, work: Path) -> None:
    """Run every workload once per config seed and store its results."""
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        workload = WORKLOADS[name]
        seeds = {}
        for seed in range(REFERENCE_SEEDS):
            cfg = workload.write_config(seed, work / f"{name}-{seed}.cfg")
            out = work / f"{name}-{seed}"
            result = child.spawn("run", "--config", str(cfg), "--out", str(out),
                                 timeout=600)
            code = result["reps"][0]["exit"]
            if code != 0:
                raise RuntimeError(f"{name} seed {seed}: exit {code}")
            res = read_results(out / "rep0" / "results.csv")
            if res.skipped:
                raise RuntimeError(f"{name} seed {seed}: {res.skipped} cells skipped")
            seeds[str(seed)] = {"sha256": res.sha256, "means": res.means}
            print(f"{name} seed {seed}: {res.sha256[:12]}", flush=True)
        doc = {"workload": name, "trials": workload.trials, "seeds": seeds}
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Re-record reference results.")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    work = child.ROOT / ".bench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        record(args.workload or list(WORKLOADS), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
