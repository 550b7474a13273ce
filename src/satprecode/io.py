"""Plain-text serialization of Monte Carlo results and overhead reports.

Every file is a headered CSV; floats are written with ``repr`` so they
round-trip exactly. Nothing here writes timestamps, so identical runs
produce identical bytes.
"""

from __future__ import annotations

import csv

__all__ = [
    "write_results_csv",
    "write_scenario_curve_csv",
    "write_overhead_csv",
]


def write_results_csv(rows, path, header_lines=()) -> None:
    """Monte Carlo aggregate rows with a '#' config-echo header."""
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["scenario", "p_total_dbw", "beam", "mean_throughput_bps",
             "std_throughput_bps", "trials", "skipped"]
        )
        for scenario, p, beam, mean, std, trials, skipped in rows:
            writer.writerow(
                [scenario, f"{float(p)!r}", beam, f"{float(mean)!r}",
                 f"{float(std)!r}", trials, skipped]
            )


def write_scenario_curve_csv(power_dbw, means, stds, path) -> None:
    """Plot-ready curve of one scenario: power vs. beam-mean throughput."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["p_total_dbw", "mean_throughput_bps", "std_throughput_bps"]
        )
        for p, mean, std in zip(power_dbw, means, stds):
            writer.writerow([f"{float(p)!r}", f"{float(mean)!r}",
                             f"{float(std)!r}"])


def write_overhead_csv(rows, path) -> None:
    """Per-gateway CSI-sharing cost rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["mode", "gateways", "beams_per_gateway", "feeds_per_gateway",
             "complex_values_shared_per_gateway"]
        )
        for row in rows:
            writer.writerow(list(row))
