"""Every exported name and every traced span resolves.

A name listed in a module's ``__all__`` but deleted from the module goes
unnoticed by ``import *``-free callers, and the benchmark tracer reports a
span whose function is missing as zero calls rather than failing. These
tests catch both. ``perfbench/tracer.py`` is only read.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import satprecode

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# Spans the tracer still lists although no function of that name exists:
# all go with the next change to the benchmark. The rzf and robust
# inter-beam blocks are the `wa` of `two_stage(..., "rzf")` and
# `robust_two_stage`.
KNOWN_DEAD_SPANS = {"robust.derive_scalars", "linalg.null_space",
                    "precoding.rzf_interbeam", "robust.robust_interbeam"}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


MODULES = sorted(m.name for m in pkgutil.iter_modules(satprecode.__path__))


def _resolve(span):
    module_name, func_name = span.split(".", 1)
    module = importlib.import_module(f"satprecode.{module_name}")
    return getattr(module, func_name, None)


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"satprecode.{name}")
    missing = [entry for entry in getattr(module, "__all__", ())
               if not hasattr(module, entry)]
    assert missing == []


@pytest.mark.parametrize("span", _load_spans())
def test_span_resolves_to_a_callable(span):
    if span in KNOWN_DEAD_SPANS:
        assert _resolve(span) is None
    else:
        assert callable(_resolve(span))
