from dataclasses import replace

import numpy as np
import pytest

from megsim import config, experiments


def _tiny_config(out):
    """Small, fast bundle for mechanics tests (not for quality claims)."""
    return replace(
        config.desk_config(), out=str(out), corpus_size=12, ae_steps=150,
        dn_steps=120, codec_epochs=40, eval_prompts=4, sweep_trials=1,
        sweep_snrs_db=(0.0,), power_eval_traces=10, power_prompts=4,
        ppo_update_rounds=4, ppo_episodes_per_batch=4,
    ).validate()


@pytest.fixture(scope="session")
def tiny_cfg(tmp_path_factory):
    return _tiny_config(tmp_path_factory.mktemp("tiny"))


@pytest.fixture(scope="session")
def tiny_bundle(tiny_cfg):
    return experiments.cmd_train(tiny_cfg).bundle


@pytest.fixture(scope="session")
def desk_cfg(tmp_path_factory):
    return replace(config.desk_config(),
                   out=str(tmp_path_factory.mktemp("desk"))).validate()


@pytest.fixture(scope="session")
def desk_bundle(desk_cfg):
    return experiments.cmd_train(desk_cfg).bundle


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def assert_aliased():
    """Check that every parameter array of a network's layers is a view of
    the network's ``flat`` and, once it has one, every gradient array a
    view of its ``grad``."""
    def check(net):
        for layer in net.layers:
            assert layer.network == net.name
            for p in layer.params():
                assert np.shares_memory(p, net.flat)
            if net.grad is not None:
                assert len(layer.grads) == len(layer.params())
                for g in layer.grads:
                    assert np.shares_memory(g, net.grad)
    return check
