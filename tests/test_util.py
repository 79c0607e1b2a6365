"""megsim's seeding: numpy's SeedSequence and default_rng behind one check
that a seed is an int in [0, 2**64)."""

import importlib
import pkgutil
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import megsim
from megsim import experiments, power_rl
from megsim.util import (EVAL_MASTER, STREAMS, as_rng, derive_seed,
                         derive_seeds, generators)

# one- and two-word ints and the edges between them
EDGES = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]
U64 = st.one_of(st.sampled_from(EDGES), st.integers(0, 2 ** 64 - 1))


def numpy_seed(*path):
    return int(np.random.SeedSequence(list(path))
               .generate_state(1, np.uint64)[0])


@given(master=U64, prefix=st.lists(U64, max_size=2),
       start=st.one_of(st.just(2 ** 32 - 25), st.integers(0, 2 ** 64 - 50)))
@settings(max_examples=60, deadline=None)
def test_derive_seeds_equal_numpy(master, prefix, start):
    # 50 indices from ``start``, which cross 2**32 at 2**32 - 25
    indices = range(start, start + 50)
    got = derive_seeds(master, *prefix, indices=indices)
    assert len(got) == 50
    assert [int(s) for s in got] \
        == [numpy_seed(master, *prefix, i) for i in indices]
    assert derive_seed(master, *prefix, start) == int(got[0])


@pytest.mark.parametrize("master", EDGES)
@pytest.mark.parametrize("prefix", [(), (0,), (0xE1,), (7, 2 ** 40),
                                    (1, 2, 3)])
def test_derive_seed_edges_equal_numpy(master, prefix):
    for index in EDGES:
        assert derive_seed(master, *prefix, index) \
            == numpy_seed(master, *prefix, index)


@pytest.mark.parametrize("call", [
    lambda: derive_seeds(-1, indices=[0]),
    lambda: derive_seeds(0, -3, indices=[0]),
    lambda: derive_seeds(0, indices=[2, -1]),
    lambda: derive_seeds(4, indices=np.array([4, -2])),
    lambda: derive_seed(3, -2),
    lambda: as_rng(-1),
    lambda: next(generators([1, -1])),
])
def test_negative_seed_refused(call):
    # as SeedSequence([3, -1]) refuses it
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("call", [
    lambda: derive_seed(2 ** 64),
    lambda: derive_seed(3, 2 ** 64 + 5),
    lambda: derive_seeds(0, indices=[1, 2 ** 64]),
    lambda: as_rng(2 ** 64),
    lambda: next(generators([2 ** 64])),
])
def test_seed_past_64_bits_refused(call):
    # SeedSequence would take it, but a seed is one 64-bit word
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        call()


@given(st.lists(U64, min_size=1, max_size=20))
@settings(max_examples=30, deadline=None)
def test_generators_draw_what_default_rng_draws(seeds):
    made = generators(seeds)
    for seed in seeds:
        rng, want = next(made), np.random.default_rng(seed)
        assert rng.bit_generator.state == want.bit_generator.state
        assert rng.standard_normal(5).tobytes() \
            == want.standard_normal(5).tobytes()
        assert rng.integers(0, 2 ** 63, 3).tobytes() \
            == want.integers(0, 2 ** 63, 3).tobytes()
    assert next(made, None) is None


def test_as_rng_of_an_int_is_default_rng():
    for seed in EDGES:
        assert as_rng(seed).random(4).tobytes() \
            == np.random.default_rng(seed).random(4).tobytes()
    rng = np.random.default_rng(3)
    assert as_rng(rng) is rng


def test_stream_purposes_never_share_a_seed():
    # one key per purpose keeps the purposes apart under any one master
    assert len(set(STREAMS.values())) == len(STREAMS)

    class Recorder:
        """Stands in for an environment: keeps the noise seeds."""
        num_blocks = 1

        def run(self, policy, p_max, traces, noise_seeds):
            self.seeds = list(noise_seeds)
            return None, None, None

    env = Recorder()
    power_rl.evaluate(np.ones(1), env, 1.0, np.ones((256, 1)))
    assert env.seeds == derive_seeds(EVAL_MASTER, "eval_noise",
                                     indices=range(256))
    # at evaluate's master, every other purpose's seeds at indices 0-255
    # (a path without its index is the path at index 0) and evaluate's
    # noise seeds for traces 0-255 are pairwise distinct
    seeds = env.seeds + [derive_seed(EVAL_MASTER, purpose, i)
                         for purpose in STREAMS if purpose != "eval_noise"
                         for i in range(256)]
    assert len(set(seeds)) == len(seeds) == 256 * len(STREAMS)


def test_purpose_stands_for_its_key():
    for purpose, key in STREAMS.items():
        assert derive_seed(7, purpose) == numpy_seed(7, key)
        assert derive_seed(7, purpose, 3) == numpy_seed(7, key, 3)
        assert derive_seeds(7, purpose, indices=[3]) == [numpy_seed(7, key, 3)]
    with pytest.raises(KeyError):
        derive_seed(7, "no such purpose")


def test_each_purpose_is_derived_at_one_path_length(tiny_cfg, tmp_path,
                                                    monkeypatch):
    # a path and the same path with trailing zero indices give one seed, as
    # SeedSequence pads a short entropy list with zeros: so a purpose used
    # both with and without an index would collide with itself at index 0
    assert derive_seed(5, "codec") == derive_seed(5, "codec", 0)
    lengths = {}

    def record(path):
        lengths.setdefault(path[0], set()).add(len(path))

    def spy_seed(master, *indices):
        record(indices)
        return derive_seed(master, *indices)

    def spy_seeds(master, *prefix, indices):
        record(prefix + (0,))
        return derive_seeds(master, *prefix, indices=indices)

    # every module's own binding; __main__ would run the command line
    for info in pkgutil.iter_modules(megsim.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"megsim.{info.name}")
        for name, spy in (("derive_seed", spy_seed),
                          ("derive_seeds", spy_seeds)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    # a cold train, so that every training stream is drawn
    cfg = replace(tiny_cfg, out=str(tmp_path), ae_steps=1, dn_steps=1,
                  codec_epochs=1, power_budgets=(2.0,), ppo_update_rounds=1,
                  power_eval_traces=2).validate()
    for command in ("train", "sweep", "eval", "power"):
        getattr(experiments, f"cmd_{command}")(cfg)
    assert set(lengths) == set(STREAMS)
    assert {purpose: sorted(seen) for purpose, seen in lengths.items()
            if len(seen) > 1} == {}
