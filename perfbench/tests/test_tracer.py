import sys
import threading

import numpy as np
import pytest

import satprecode
import satprecode.cli
import satprecode.io
from satprecode.channel import ChannelMatrix
from satprecode.exceptions import ConfigError
from tracer import SPANS, Tracer


def _namespaces():
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if mod is not None and (name == "satprecode" or name.startswith("satprecode."))
    }


def _assert_restored(before):
    after = _namespaces()
    for name, attrs in before.items():
        for attr, value in attrs.items():
            assert after[name][attr] is value, f"{name}.{attr} left patched"


def _channel(beams=3, q=2, feeds=4, seed=0):
    rng = np.random.default_rng(seed)
    h = 3.0 * (rng.standard_normal((beams * q, feeds))
               + 1j * rng.standard_normal((beams * q, feeds)))
    return ChannelMatrix(h=h, beams=beams, users_per_beam=q)


def test_wraps_every_resolving_name_and_restores_them():
    before = _namespaces()
    original = satprecode.precoding.two_stage
    with Tracer():
        wrapped = satprecode.evaluate.two_stage
        assert wrapped is not original
        assert satprecode.precoding.two_stage is wrapped
        assert satprecode.two_stage is wrapped
        assert satprecode.robust.eigh_sorted is satprecode.linalg.eigh_sorted
        assert satprecode.cli.main is not before["satprecode.cli"]["main"]
    _assert_restored(before)


def test_restores_after_an_exception():
    before = _namespaces()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    _assert_restored(before)


def test_counts_calls_and_self_time_where_callers_resolve_names():
    ch = _channel()
    with Tracer() as tracer:
        satprecode.evaluate.two_stage(ch, 10.0)
    stats = tracer.stats
    assert stats["precoding.two_stage"]["calls"] == 1
    assert stats["precoding.mbim_interbeam"]["calls"] == 1
    assert stats["precoding.assemble"]["calls"] == 1
    assert stats["linalg.eigh_sorted"]["calls"] == ch.beams
    top = stats["precoding.two_stage"]
    children = (stats["precoding.mbim_interbeam"]["total_s"]
                + stats["precoding.assemble"]["total_s"])
    assert top["self_s"] == pytest.approx(top["total_s"] - children, abs=1e-9)
    assert all(s["errors"] == 0 for s in stats.values())


def test_counts_calls_that_raise():
    with Tracer() as tracer:
        with pytest.raises(ConfigError):
            satprecode.evaluate.two_stage(_channel(), 10.0, interbeam="bogus")
    assert tracer.stats["precoding.two_stage"]["errors"] == 1


def test_missing_functions_report_zero_calls():
    spans = SPANS + ("precoding.renamed_away", "no_such_module.function")
    before = _namespaces()
    with Tracer(spans) as tracer:
        satprecode.evaluate.two_stage(_channel(), 10.0)
    assert tracer.stats["precoding.renamed_away"]["calls"] == 0
    assert tracer.stats["no_such_module.function"]["calls"] == 0
    _assert_restored(before)


def test_concurrent_calls_are_all_counted():
    threads, calls = 6, 200
    mats = [np.eye(3) * (i + 1) for i in range(calls)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Tracer() as tracer:
            def work():
                for m in mats:
                    satprecode.precoding.eigh_sorted(m)

            pool = [threading.Thread(target=work) for _ in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in pool)
    finally:
        sys.setswitchinterval(interval)
    stats = tracer.stats["linalg.eigh_sorted"]
    assert stats["calls"] == threads * calls
    assert 0.0 <= stats["self_s"] <= stats["total_s"] + 1e-9
