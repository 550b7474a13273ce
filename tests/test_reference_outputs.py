"""`results.csv` of every benchmark workload is byte-identical to its reference.

The references in ``perfbench/reference/`` were recorded once per
(workload, config seed); this runs every config seed of each workload
through the CLI and compares the sha256 of its ``results.csv``. The files
under ``perfbench/`` are only read. `run` puts the trials on one BLAS
thread, so each seed also runs with the thread count the process was
given, as a library caller runs the trials.
"""

import contextlib
import hashlib
import json

import pytest

import satprecode.cli
from satprecode.cli import main

from conftest import PERFBENCH, load_perfbench_workloads

_WORKLOADS_MODULE = load_perfbench_workloads()
WORKLOADS = _WORKLOADS_MODULE.WORKLOADS


def _check_reference(name, seed, tmp_path):
    cfg = WORKLOADS[name].write_config(seed, tmp_path / f"{name}.cfg")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    got = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
    reference = json.loads((PERFBENCH / "reference" / f"{name}.json").read_text())
    assert got == reference["seeds"][str(seed)]["sha256"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_results_match_reference_seed_0(name, tmp_path):
    _check_reference(name, 0, tmp_path)


@pytest.mark.parametrize("seed", range(1, _WORKLOADS_MODULE.REFERENCE_SEEDS))
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_results_match_reference_other_seeds(name, seed, tmp_path):
    _check_reference(name, seed, tmp_path)


@pytest.mark.parametrize("seed", range(_WORKLOADS_MODULE.REFERENCE_SEEDS))
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_results_match_reference_on_the_process_threads(name, seed, tmp_path,
                                                        monkeypatch):
    monkeypatch.setattr(satprecode.cli, "_one_blas_thread",
                        contextlib.nullcontext)
    _check_reference(name, seed, tmp_path)
