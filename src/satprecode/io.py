"""Plain-text serialization of Monte Carlo results and overhead reports.

Every file is a headered CSV; floats are written with ``repr`` so they
round-trip exactly. Nothing here writes timestamps, so identical runs
produce identical bytes.
"""

from __future__ import annotations

__all__ = [
    "write_results_csv",
    "write_scenario_curve_csv",
    "write_overhead_csv",
]


def write_results_csv(result, stats, path, header_lines=()) -> None:
    """One row per (scenario, power, beam) of a `MonteCarloResult` and its
    `RunStatistics`, under a '#' config-echo header. The file is formatted
    as one string, with `csv.writer`'s line ends."""
    lines = [f"# {line}\n" for line in header_lines]
    lines.append("scenario,p_total_dbw,beam,mean_throughput_bps,"
                 "std_throughput_bps,trials,skipped\r\n")
    beam_mean, beam_std = stats.beam_mean.tolist(), stats.beam_std.tolist()
    skipped = result.skipped.tolist()
    for s, name in enumerate(result.scenarios):
        for i, p in enumerate(result.power_dbw):
            cell = f"{name},{float(p)!r},"
            counts = f",{result.trials - skipped[s][i]},{skipped[s][i]}\r\n"
            lines += [f"{cell}{k},{mean!r},{std!r}{counts}" for k, (mean, std)
                      in enumerate(zip(beam_mean[s][i], beam_std[s][i]))]
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def write_scenario_curve_csv(power_dbw, means, stds, path) -> None:
    """Plot-ready curve of one scenario: power vs. beam-mean throughput."""
    lines = ["p_total_dbw,mean_throughput_bps,std_throughput_bps\r\n"]
    lines += [f"{float(p)!r},{float(mean)!r},{float(std)!r}\r\n"
              for p, mean, std in zip(power_dbw, means, stds)]
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def write_overhead_csv(rows, path) -> None:
    """Per-gateway CSI-sharing cost rows."""
    lines = ["mode,gateways,beams_per_gateway,feeds_per_gateway,"
             "complex_values_shared_per_gateway\r\n"]
    lines += [",".join(map(str, row)) + "\r\n" for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))
