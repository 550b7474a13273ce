import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, settings

import satprecode as sp
from satprecode.channel import ChannelMatrix
from satprecode.evaluate import _batch_trials

from oracles import MODELLED_FAILURES

# Hypothesis without its shrink phase, selected only by pytest's own
# ``--hypothesis-profile=no-shrink``: a mutation check wants to know that
# a property fails, not its smallest counterexample, and shrinking one
# can take minutes. The default profile is left as it is.
settings.register_profile(
    "no-shrink", phases=[phase for phase in Phase if phase is not Phase.shrink])


@pytest.fixture(scope="session")
def budget():
    return sp.LinkBudget()


@pytest.fixture(scope="session")
def desk_layout(budget):
    return sp.hex_layout(7, 47.0, 10.0, 0.25, 4.0, budget=budget)


def random_channel(beams, users_per_beam, feeds, seed, scale=3.0):
    """Random complex-Gaussian channel, scaled so cross-Gram norms are >= 1."""
    rng = np.random.default_rng(seed)
    h = scale * (
        rng.standard_normal((beams * users_per_beam, feeds))
        + 1j * rng.standard_normal((beams * users_per_beam, feeds))
    )
    return ChannelMatrix(h=h, beams=beams, users_per_beam=users_per_beam)


def perturbed(ch, ratio, seed):
    """`perturb_channel`'s estimate of `ch` and the tight per-beam bounds
    of its error."""
    est, delta = sp.perturb_channel(ch, ratio, seed)
    return est, sp.PerturbationBounds.from_delta(delta, ch.beams,
                                                 ch.users_per_beam)


def acceptance_corpus(count=100, master_seed=2024):
    """Random channels with full-rank cross-Grams: K<=7, Q<=3, N<=14."""
    rng = np.random.default_rng(master_seed)
    out = []
    for i in range(count):
        k = int(rng.integers(2, 8))
        q = int(rng.integers(2, 4))
        n_lo = max(k, q)
        n_hi = min(14, (k - 1) * q)
        n = int(rng.integers(n_lo, n_hi + 1)) if n_hi > n_lo else n_lo
        p_total = float(rng.uniform(0.5, 200.0))
        out.append((random_channel(k, q, n, seed=10_000 + i), p_total))
    return out


def corpus_dims(rng):
    """(K, Q, N) with the cross-Gram full rank and a Q-dim null space."""
    k = int(rng.integers(2, 8))
    q = int(rng.integers(2, 4))
    n_max = min(14, (k - 1) * q)
    n = int(rng.integers(k, n_max + 1)) if n_max > k else k
    return k, q, n


def desk_channel(layout, budget, q_served, seed, pool=None, chi_deg=10.0):
    """Link-budget channel on the desk layout, one realization."""
    pool = pool or q_served
    users = sp.place_users(layout, pool, seed, budget=budget)
    gain = sp.build_gain_matrix(layout, users, budget)
    phase = sp.build_phase_matrix(
        sp.PhaseModel(variant="ultra_stable", chi_deg=chi_deg, rng_seed=seed + 1),
        gain.shape[0],
        gain.shape[1],
    )
    ch = sp.assemble_channel(gain, phase, layout.beams, pool)
    if pool == q_served:
        return ch
    members = np.tile(np.arange(q_served), (layout.beams, 1))
    return sp.extract_users(ch, members)


def outcome(func, *args):
    """`func(*args)`, or the type and message of the modelled failure it
    raises, and of that failure's cause."""
    try:
        return func(*args)
    except MODELLED_FAILURES as exc:
        return type(exc), str(exc), type(exc.__cause__), str(exc.__cause__)


def assert_same(got, want, rtol=0.0):
    """`got` is `want`: the same failure, or a precoder or array equal bit
    for bit (arrays within `rtol`, when given)."""
    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert got == want
    elif isinstance(want, sp.Precoder):
        assert type(got.alpha) is type(want.alpha)
        assert np.array_equal(got.alpha, want.alpha)
        assert got.power_mode == want.power_mode
        for name in ("w", "wa", "wb"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None) == (b is None)
            assert b is None or np.array_equal(a, b)
    elif rtol:
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)
    else:
        assert np.array_equal(got, want)


def _slot(stacked, i):
    """Slot i of a result for a power vector, as the result for one power."""
    if not isinstance(stacked, sp.Precoder):
        return stacked[i]
    return sp.Precoder(w=stacked.w[i], alpha=float(stacked.alpha[i]),
                       power_mode=stacked.power_mode,
                       wa=None if stacked.wa is None else stacked.wa[i],
                       wb=None if stacked.wb is None else stacked.wb[i])


def assert_design(design, oracle, p, sizes, rtol=0.0):
    """`design(x)` over the powers `p`: at each float power it is
    `oracle(x)` (`assert_same`), and for each n in `sizes` slot i of the
    call over ``p[:n]`` is the call at the float ``p[i]`` bit for bit; a
    failure at any of those powers fails that call with the first one's
    failure. Returns the outcome at each float power."""
    singles = [outcome(design, x) for x in p.tolist()]
    for x, single in zip(p.tolist(), singles):
        assert_same(single, outcome(oracle, x), rtol)
    for n in sizes:
        stacked = outcome(design, p[:n])
        failed = [s for s in singles[:n] if isinstance(s, tuple)]
        if failed:
            assert stacked == failed[0]
            continue
        for i, single in enumerate(singles[:n]):
            assert_same(_slot(stacked, i), single)
    return singles


def trial_batches(cfg):
    """The number of trials in each batch that `run_monte_carlo` runs for
    `cfg`, in order."""
    size = _batch_trials(cfg, cfg.beams * cfg.feeds_per_beam,
                         len(cfg.power_sweep_dbw))
    return [min(size, cfg.trials - t) for t in range(0, cfg.trials, size)]


def record_calls(monkeypatch, *functions):
    """Wraps each of `functions` under every name that a `satprecode`
    module, or the function's own module, binds to it, and returns
    ``{function name: [the positional arguments of each call]}``."""
    calls = {}
    for func in functions:
        name = func.__name__
        calls[name] = seen = []

        def recording(*args, _seen=seen, _func=func, **kwargs):
            _seen.append(args)
            return _func(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            home = mod_name == func.__module__
            if ((home or mod_name.startswith("satprecode"))
                    and vars(mod).get(name) is func):
                monkeypatch.setattr(mod, name, recording)
    return calls


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench_workloads():
    """``perfbench/workloads.py`` loaded as a module, without importing
    the rest of the harness; the files under ``perfbench/`` are only
    read."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Dataclasses resolve their annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module
