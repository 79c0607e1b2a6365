import math
import tracemalloc
import weakref
from dataclasses import dataclass, replace

import numpy as np
import pytest

import claims
from megsim import channel as ch
from megsim import config, corpus, genmodel, metrics, nn, power_rl
from megsim.errors import TrainingError
from megsim.power_rl import (PpoAgent, SeedTransmissionEnv, apply_power,
                             clipped_surrogate, compare, evaluate,
                             ppo_update, train_agent)
from megsim.util import EVAL_MASTER, derive_seed
from test_metrics import sqrtm_frechet_distance


# the desk config; its power link is the rate-0.5 codec at 0 dB over
# Rayleigh blocks of 16 symbols
DESK = config.desk_config()


def ppo_cfg(**settings):
    """The desk config with the given ``ppo_*`` settings."""
    return replace(DESK, **settings)


def terminal_reward(decoded_images, ground_truths, extractor):
    """Negative Frechet proxy of the episode's decoded batch."""
    return -metrics.fid(np.stack(decoded_images), np.stack(ground_truths),
                        extractor)


PROMPTS = ["large blob left", "tiny stripes top", "huge rings center",
           "small cross bottom"]


# the budget that the environment tests run at
BUDGET = 1.0


def fresh_env(bundle):
    """A new environment on ``bundle`` at seed 5."""
    return SeedTransmissionEnv(bundle, DESK, PROMPTS, seed=5)


def fresh_env_and_truths(bundle):
    """``fresh_env(bundle)`` and the ground truths it decoded, read from
    the one decode that its construction runs."""
    decoded, decode = [], genmodel.AutoencoderPair.decode
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(genmodel.AutoencoderPair, "decode", lambda self, z:
                      decoded.append(decode(self, z)) or decoded[-1])
        env = fresh_env(bundle)
    (truths,) = decoded
    return env, truths


def eval_seed(i):
    """The noise seed that ``evaluate`` gives trace ``i``."""
    return derive_seed(EVAL_MASTER, "eval_noise", i)


def run_rollout(env, agent, rng, episodes):
    """``env.rollout`` of ``episodes`` episodes at ``BUDGET``, on traces
    and noise seeds drawn from ``rng`` before the actions are."""
    gains = ch.fading_gains(env.channel_kind, (episodes, env.num_blocks), rng)
    return env.rollout(agent, rng, BUDGET, gains,
                       rng.integers(2 ** 63, size=episodes).tolist())


@pytest.fixture(scope="module")
def env(tiny_bundle):
    return fresh_env(tiny_bundle)


def reference_discounted_returns(rewards, gamma):
    """Returns-to-go of one episode's rewards, as a scalar loop."""
    out = np.zeros(len(rewards))
    acc = 0.0
    for i in range(len(rewards) - 1, -1, -1):
        acc = rewards[i] + gamma * acc
        out[i] = acc
    return out


@dataclass
class EpisodeRecord:
    """One episode of a rollout, as the list-of-records update read it."""
    states: np.ndarray
    raw_actions: np.ndarray
    rewards: np.ndarray
    log_probs: np.ndarray


def records_of(rollout):
    """Per-episode records of a rollout; the reward is the score at the
    last block and zero before it."""
    dones = np.arange(rollout.raw_actions.shape[1]) \
        == rollout.raw_actions.shape[1] - 1
    return [EpisodeRecord(rollout.states[e], rollout.raw_actions[e],
                          np.where(dones, score, 0.0), rollout.log_probs[e])
            for e, score in enumerate(rollout.scores)]


def reference_ppo_update(agent, episodes, cfg, actor_opt=None,
                         critic_opt=None):
    """The PPO update on a list of per-episode records, kept verbatim as
    the reference of ``ppo_update`` on one stacked rollout."""
    if not episodes:
        raise ValueError("episode batch is empty")
    actor_opt = actor_opt or nn.Adam(cfg.ppo_lr)
    critic_opt = critic_opt or nn.Adam(cfg.ppo_lr)
    states = np.concatenate([ep.states for ep in episodes])
    us = np.concatenate([ep.raw_actions for ep in episodes])
    logp_old = np.concatenate([ep.log_probs for ep in episodes])
    returns = np.concatenate([reference_discounted_returns(ep.rewards,
                                                           cfg.ppo_gamma)
                              for ep in episodes])
    advantages = returns - agent.value(states)
    if len(advantages) > 1:
        advantages = ((advantages - advantages.mean())
                      / (advantages.std() + 1e-8))

    diag = {"surrogate": [], "value_loss": [], "entropy": [],
            "first_epoch_max_ratio_err": None, "aborted": False}
    n = len(states)
    for epoch in range(cfg.ppo_epochs):
        mean, log_std, raw_ls = agent._heads(states, cache=True)
        logp_new = agent._log_prob(us, mean, log_std)
        surr, ratios, g_logp = clipped_surrogate(logp_new, logp_old,
                                                 advantages,
                                                 cfg.ppo_clip)
        entropy = float(np.mean(power_rl.GAUSS_ENTROPY_CONST + log_std))
        v_pred = agent.critic.forward(states.astype(np.float32), cache=True)
        v_err = np.atleast_2d(v_pred)[:, 0].astype(np.float64) - returns
        value_loss = float(np.mean(v_err * v_err))
        if epoch == 0:
            diag["first_epoch_max_ratio_err"] = float(
                np.max(np.abs(ratios - 1.0)))
        if not (np.isfinite(surr) and np.isfinite(value_loss)
                and np.isfinite(entropy)):
            diag["aborted"] = True
            return diag
        diag["surrogate"].append(surr)
        diag["value_loss"].append(value_loss)
        diag["entropy"].append(entropy)

        # maximize surr + c2 * entropy, so descend on the negation
        sigma = np.exp(log_std)
        z = (us - mean) / sigma
        clamp = ((raw_ls > power_rl.LOG_STD_MIN)
                 & (raw_ls < power_rl.LOG_STD_MAX)).astype(np.float64)
        g_mean = -g_logp * z / sigma
        g_ls = (-g_logp * (z * z - 1.0) - cfg.ppo_entropy_coef / n) * clamp
        g_actor_out = np.stack([g_mean, g_ls], axis=1).astype(np.float32)
        _, actor_grads = agent.actor.backward(g_actor_out, input_grad=False)

        g_v = (cfg.ppo_value_coef * 2.0 * v_err / n)[:, None].astype(
            np.float32)
        _, critic_grads = agent.critic.backward(g_v, input_grad=False)

        actor_opt.step(agent.actor.params(), actor_grads,
                       agent.actor.param_names())
        critic_opt.step(agent.critic.params(), critic_grads,
                        agent.critic.param_names())
    return diag


class TestApplyPower:
    def test_scaled_action(self):
        assert apply_power(0.5, 1.0, 1.0) == 0.5

    def test_clamps_to_remaining(self):
        assert apply_power(0.9, 0.3, 1.0) == 0.3

    def test_zero_action_zero_power(self):
        assert apply_power(0.0, 0.7, 1.0) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            apply_power(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            apply_power(0.5, 2.0, 1.0)


class TestTerminalReward:
    def test_perfect_batch_scores_zero(self, rng):
        imgs = [rng.random((1, 8, 8)).astype(np.float32) for _ in range(4)]
        ext = metrics.FeatureExtractor(64, feature_dim=8)
        assert abs(terminal_reward(imgs, imgs, ext)) < 1e-9

    def test_imperfect_batch_negative(self, rng):
        truth = [rng.random((1, 8, 8)).astype(np.float32) for _ in range(4)]
        noisy = [np.clip(t + 0.3 * rng.standard_normal(t.shape), 0, 1)
                 .astype(np.float32) for t in truth]
        ext = metrics.FeatureExtractor(64, feature_dim=8)
        assert terminal_reward(noisy, truth, ext) < 0

    def test_equals_external_fid(self, rng):
        # 32 images of 8 features give full-rank covariances, where scipy's
        # sqrtm of C_a C_b is accurate
        truth = [rng.random((1, 8, 8)).astype(np.float32) for _ in range(32)]
        noisy = [np.clip(t + 0.1 * rng.standard_normal(t.shape), 0, 1)
                 .astype(np.float32) for t in truth]
        ext = metrics.FeatureExtractor(64, feature_dim=8)
        want = -sqrtm_frechet_distance(ext.extract(np.stack(noisy)),
                                       ext.extract(np.stack(truth)))
        assert want < 0
        assert abs(terminal_reward(noisy, truth, ext) - want) \
            <= 1e-8 * abs(want)


class TestCachedReference:
    def test_reference_features_extracted_from_ground_truths(
            self, tiny_bundle):
        env, truths = fresh_env_and_truths(tiny_bundle)
        want = env.bundle.extractor.extract(truths)
        assert env.reference_features.dtype == want.dtype
        assert env.reference_features.tobytes() == want.tobytes()

    def test_episode_extracts_once_and_scores_like_terminal_reward(
            self, tiny_bundle, monkeypatch):
        env, truths = fresh_env_and_truths(tiny_bundle)
        extractor = env.bundle.extractor
        seen = []
        original = metrics.FeatureExtractor.extract

        def counting(self, images):
            seen.append(np.array(images))
            return original(self, images)

        monkeypatch.setattr(metrics.FeatureExtractor, "extract", counting)
        gains = ch.fading_gains(env.channel_kind, (1, env.num_blocks), 11)
        _, _, scores = env.run(lambda states, t: [1.0 / env.num_blocks],
                               BUDGET, gains, [12])
        assert len(seen) == 1
        want = terminal_reward(list(seen[0]), list(truths), extractor)
        assert scores.tolist() == [want] and want < 0


class TestEntropyAndSurrogate:
    def test_identical_policies_mean_advantage(self, rng):
        lp = rng.standard_normal(16)
        adv = rng.standard_normal(16)
        value, ratios, _ = clipped_surrogate(lp, lp, adv, 0.2)
        assert np.allclose(ratios, 1.0)
        assert abs(value - float(np.mean(adv))) < 1e-12

    def test_zero_clip_range_fully_clips(self, rng):
        lp_new = rng.standard_normal(8)
        lp_old = rng.standard_normal(8)
        adv = rng.standard_normal(8)
        value, ratios, _ = clipped_surrogate(lp_new, lp_old, adv, 0.0)
        want = float(np.mean(np.minimum(ratios * adv, adv)))
        assert abs(value - want) < 1e-12

    def test_single_sample_hand_computed(self):
        # ratio = exp(-0.5 - (-1.0)) = e^0.5; advantage 2; clip 0.2
        # clipped term (1.2 * 2) is below the unclipped (e^0.5 * 2)
        value, _, _ = clipped_surrogate([-0.5], [-1.0], [2.0], 0.2)
        assert abs(value - 2.4) < 1e-6
        # negative advantage: min picks the unclipped branch
        value2, _, _ = clipped_surrogate([-0.5], [-1.0], [-2.0], 0.2)
        assert abs(value2 - (-2.0 * math.exp(0.5))) < 1e-6


class TestEnvironment:
    def test_budget_never_exceeded(self, env, rng):
        agent = PpoAgent(env.state_dim, hidden=16, rng=1)
        start = len(env.power_audit)
        for _ in range(5):
            run_rollout(env, agent, rng, 10)
        audit = env.power_audit[start:]
        assert len(audit) == 50
        assert all(total <= p_max for total, p_max in audit)

    def test_reward_sparsity(self, env):
        # the policy is asked once per block, in order; the only reward is
        # each episode's score after the last block
        asked = []

        def policy(states, t):
            asked.append(t)
            return [0.5, 0.25]

        states, powers, scores = env.run(policy, BUDGET,
                                         np.ones((2, env.num_blocks)), [1, 2])
        assert asked == list(range(env.num_blocks))
        assert states.shape == (2, env.num_blocks, env.state_dim)
        assert powers.shape == (2, env.num_blocks)
        assert scores.shape == (2,) and np.all(scores < 0)

    def test_zero_action_erases_block(self, env):
        states, powers, _ = env.run(lambda states, t: [0.5 * (t > 0)],
                                    BUDGET, np.ones((1, env.num_blocks)), [3])
        assert powers[0, 0] == 0.0 and powers[0, 1] == 0.5
        assert states[0, 1, -1] == 1.0   # an erased block costs nothing

    def test_state_layout(self, env):
        gains = ch.fading_gains(env.channel_kind, (1, env.num_blocks), 4)
        states, _, _ = env.run(lambda states, t: [0.25], BUDGET, gains, [5])
        assert states.shape == (1, env.num_blocks, env.block_length + 2)
        assert states.dtype == np.float32
        # the pilot's block, the block's gain, the budget left (BUDGET = 1)
        assert np.array_equal(states[0, :, :-2], env.blocks[0])
        assert np.array_equal(states[0, :, -2], gains[0].astype(np.float32))
        assert states[0, 0, -1] == 1.0   # full budget remaining
        assert states[0, 1, -1] == np.float32(0.75)


class TestPpoUpdate:
    def test_ratio_identity_on_first_epoch(self, env, rng):
        agent = PpoAgent(env.state_dim, hidden=16, rng=3)
        rollout = run_rollout(env, agent, rng, 4)
        diag = ppo_update(agent, rollout, ppo_cfg(ppo_epochs=2))
        assert diag["first_epoch_max_ratio_err"] < 1e-6

    def test_losses_finite_and_recorded(self, env, rng):
        agent = PpoAgent(env.state_dim, hidden=16, rng=4)
        rollout = run_rollout(env, agent, rng, 4)
        diag = ppo_update(agent, rollout, ppo_cfg(ppo_epochs=3))
        assert not diag["aborted"]
        assert len(diag["surrogate"]) == 3
        assert all(np.isfinite(v) for v in diag["value_loss"])

    @pytest.mark.parametrize("gamma", [1.0, 0.9])
    def test_matches_list_of_records_reference(self, env, gamma):
        cfg = ppo_cfg(ppo_epochs=3, ppo_gamma=gamma)
        agents = [PpoAgent(env.state_dim, hidden=16, rng=10)
                  for _ in range(2)]
        opt = nn.Adam(cfg.ppo_lr)
        ref_opts = (nn.Adam(cfg.ppo_lr), nn.Adam(cfg.ppo_lr))
        rng = np.random.default_rng(21)
        # two rounds, so the second update starts from carried Adam moments
        for _ in range(2):
            rollout = run_rollout(env, agents[0], rng, 5)
            got = ppo_update(agents[0], rollout, cfg, opt)
            want = reference_ppo_update(agents[1], records_of(rollout), cfg,
                                        *ref_opts)
            assert got == want and not got["aborted"]
        for p, q in zip(agents[0].snapshot(), agents[1].snapshot()):
            assert p.tobytes() == q.tobytes()
        # one optimizer over [actor.flat, critic.flat]; the reference keeps
        # one per head, over that head's separate arrays
        assert len(opt._moments) == 2
        for (m, v), ref_opt in zip(opt._moments, ref_opts):
            assert opt.step_count == ref_opt.step_count == 6
            assert m.tobytes() == np.concatenate(
                [m_ref.reshape(-1) for m_ref, _ in ref_opt._moments]).tobytes()
            assert v.tobytes() == np.concatenate(
                [v_ref.reshape(-1) for _, v_ref in ref_opt._moments]).tobytes()

    def test_out_of_range_settings_refused_before_any_step(self, rng):
        episodes, blocks, state_dim = 4, 3, 6
        rollout = power_rl.Rollout(
            rng.standard_normal((episodes, blocks, state_dim))
            .astype(np.float32),
            rng.standard_normal((episodes, blocks)),
            rng.uniform(0.0, 0.3, (episodes, blocks)),
            rng.standard_normal((episodes, blocks)),
            -rng.uniform(0.1, 1.0, episodes))
        agent = PpoAgent(state_dim, hidden=16, rng=12)
        before = agent.snapshot()
        for settings in ({"ppo_clip": 0.0}, {"ppo_gamma": 0.0}):
            opt = nn.Adam(1e-3)
            with pytest.raises(ValueError, match=r"\[ppo\] "):
                ppo_update(agent, rollout, ppo_cfg(**settings), opt)
            assert opt.step_count == 0
            for p, q in zip(before, agent.snapshot()):
                assert p.tobytes() == q.tobytes()

    def test_update_moves_the_layer_arrays(self, env, rng, assert_aliased):
        agent = PpoAgent(env.state_dim, hidden=16, rng=4)
        weights = agent.actor.layers[0].weights
        before = weights.copy()
        ppo_update(agent, run_rollout(env, agent, rng, 4),
                   ppo_cfg(ppo_epochs=2))
        assert weights is agent.actor.layers[0].weights
        assert not np.array_equal(weights, before)
        for net in (agent.actor, agent.critic):
            assert_aliased(net)


class TestEvaluation:
    def _traces(self, env, n, seed=0):
        return ch.fading_gains(env.channel_kind, (n, env.num_blocks), seed)

    def test_uniform_policy_spends_whole_budget(self, env):
        traces = self._traces(env, 3)
        evaluate(np.full(env.num_blocks, 1.0 / env.num_blocks), env, BUDGET,
                 traces)
        for total, p_max in env.power_audit[-3:]:
            assert abs(total - p_max) < 1e-6

    def test_evaluation_deterministic(self, env):
        traces = self._traces(env, 5)
        agent = PpoAgent(env.state_dim, hidden=16, rng=5)
        a = evaluate(agent, env, BUDGET, traces)
        b = evaluate(agent, env, BUDGET, traces)
        assert np.array_equal(a, b)

    def test_agent_checkpoint_round_trip(self, env, tmp_path, rng,
                                         assert_aliased):
        agent = PpoAgent(env.state_dim, hidden=16, rng=9)
        path = tmp_path / "agent.bin"
        agent.save(path, extra={"p_max": BUDGET})
        loaded, meta = PpoAgent.load(path)
        assert meta["p_max"] == BUDGET
        states = env.run(lambda states, t: [0.5] * 3, BUDGET,
                         self._traces(env, 3), [0, 1, 2])[0]
        states = states.reshape(-1, env.state_dim)
        assert np.array_equal(loaded.mean_action(states),
                              agent.mean_action(states))
        for p, q in zip(agent.snapshot(), loaded.snapshot()):
            assert np.array_equal(p, q)
        for net in (agent.actor, agent.critic, loaded.actor, loaded.critic):
            assert_aliased(net)

    def test_training_refuses_out_of_range_settings(self, env):
        for settings in ({"ppo_clip": 0.0}, {"ppo_gamma": 0.0}):
            with pytest.raises(ValueError, match=r"\[ppo\] "):
                train_agent(env, ppo_cfg(**settings), BUDGET, seed=0)

    def test_aborted_update_stops_training(self, env, monkeypatch):
        # an update that aborts on a non-finite loss ends training at its
        # round, not with a NaN row in the curve
        rounds = []

        def update(agent, rollout, cfg, opt=None):
            rounds.append(len(rounds))
            return {"surrogate": [0.0], "value_loss": [0.0],
                    "entropy": [0.0], "aborted": len(rounds) == 2}

        monkeypatch.setattr(power_rl, "ppo_update", update)
        cfg = ppo_cfg(ppo_update_rounds=4, ppo_episodes_per_batch=2)
        with pytest.raises(TrainingError, match="PPO round 1 aborted"):
            train_agent(env, cfg, BUDGET, seed=0)
        assert rounds == [0, 1]

    def test_policy_comparison_reproducible(self, tiny_bundle):
        def run():
            env = fresh_env(tiny_bundle)
            traces = self._traces(env, 10, seed=1)
            cfg = ppo_cfg(ppo_update_rounds=3, ppo_episodes_per_batch=4)
            _, _, drl, uni = compare(env, cfg, BUDGET, 2, traces)
            return float(np.mean(drl)), float(np.mean(uni))

        assert run() == run()

    def test_compare_pairs_the_two_policies(self, tiny_bundle):
        env, other = fresh_env(tiny_bundle), fresh_env(tiny_bundle)
        traces = self._traces(env, 6, seed=1)
        even = np.full(env.num_blocks, 1.0 / env.num_blocks)
        cfg = ppo_cfg(ppo_update_rounds=2, ppo_episodes_per_batch=3)
        for seed in range(2):
            before = len(env.power_audit)
            agent, _, drl, uni = compare(env, cfg, BUDGET, seed, traces)
            # 2 rounds of 3 episodes, then one row per trace and policy
            assert len(env.power_audit) - before == 2 * 3 + 2 * len(traces)
            assert drl.tobytes() \
                == evaluate(agent, other, BUDGET, traces).tobytes()
            assert uni.tobytes() \
                == evaluate(even, other, BUDGET, traces).tobytes()

    def test_compare_does_not_depend_on_earlier_runs(self, tiny_bundle):
        # a training run owns its traces and episode noise, so one budget
        # trained on an environment that already trained at another runs
        # as on a fresh environment
        used, fresh = fresh_env(tiny_bundle), fresh_env(tiny_bundle)
        traces, select = (self._traces(used, n, seed) for n, seed in
                          ((6, 1), (2, 2)))
        cfg = ppo_cfg(ppo_update_rounds=2, ppo_episodes_per_batch=3)
        compare(used, cfg, 0.5, 0, traces, select)
        (agent, history, *rewards), (want_agent, want_history, *want) = (
            compare(env, cfg, 2.0, 1, traces, select)
            for env in (used, fresh))
        assert history == want_history
        for p, q in zip(agent.snapshot(), want_agent.snapshot()):
            assert p.tobytes() == q.tobytes()
        for got, expected in zip(rewards, want, strict=True):
            assert got.tobytes() == expected.tobytes()

    def test_training_streams_follow_the_environment_seed(self, env,
                                                          monkeypatch):
        # each round's traces are the next rows of one draw keyed by the
        # environment's seed; its noise seeds the next episode numbers,
        # which a held-out check's episodes take too
        seen, rollout = [], SeedTransmissionEnv.rollout

        def spy(env, agent, rng, p_max, gains, noise_seeds):
            seen.append((p_max, np.array(gains), list(noise_seeds)))
            return rollout(env, agent, rng, p_max, gains, noise_seeds)

        monkeypatch.setattr(SeedTransmissionEnv, "rollout", spy)
        rounds, held_out = power_rl.EVAL_EVERY + 1, 3
        train_agent(env, ppo_cfg(ppo_update_rounds=rounds,
                                 ppo_episodes_per_batch=2), 0.5, 0,
                    self._traces(env, held_out))
        assert [p_max for p_max, _, _ in seen] == [0.5] * rounds
        assert np.concatenate([gains for _, gains, _ in seen]).tobytes() \
            == ch.fading_gains(env.channel_kind, (2 * rounds, env.num_blocks),
                               derive_seed(env.seed, "env_traces")).tobytes()
        numbers = list(range(2 * power_rl.EVAL_EVERY)) \
            + [2 * power_rl.EVAL_EVERY + held_out + e for e in range(2)]
        assert [seed for _, _, seeds in seen for seed in seeds] \
            == [derive_seed(env.seed, "episode_noise", e) for e in numbers]


def test_allocator_gain_trains_with_its_cfg(tiny_cfg, tiny_bundle):
    cfg = replace(tiny_cfg, ppo_update_rounds=3, ppo_episodes_per_batch=2)
    a09 = claims.allocator_gain(tiny_bundle, cfg)
    assert len(a09["history"]) == 3
    # 3 rounds of 2 episodes, one held-out check on 20 traces, then both
    # policies on 100
    assert len(a09["env"].power_audit) == 3 * 2 + 20 + 2 * 100


class TestTrainingEffect:
    def test_trained_beats_uniform_on_held_out(self, desk_bundle):
        prompts = corpus.sample_prompts(16, derive_seed(DESK.seed,
                                                        "power_prompts"))
        env = SeedTransmissionEnv(desk_bundle, DESK, prompts, seed=7)
        rng = np.random.default_rng(123)
        frozen = ch.fading_gains(env.channel_kind, (60, env.num_blocks), rng)
        select = ch.fading_gains(env.channel_kind, (15, env.num_blocks), rng)
        cfg = ppo_cfg(ppo_update_rounds=80)
        _, history, drl, uni = compare(env, cfg, 0.5, 3, frozen, select)
        assert len(history) == 80
        assert float(np.mean(drl - uni)) > 0

    def test_saturation_makes_policies_equivalent(self, desk_bundle,
                                                  desk_cfg):
        assert abs(claims.saturation_gap(desk_bundle, desk_cfg)) < 5e-3


class TestLockstep:
    """E episodes in lockstep equal E single episodes run in turn."""

    @staticmethod
    def _spy(monkeypatch):
        """Record every noise seed used and act() draw."""
        seen = {"seeds": [], "draws": []}
        generators, act = power_rl.generators, PpoAgent.act

        def spy_generators(seeds):
            seen["seeds"].extend(seeds)
            return generators(seeds)

        def spy_act(self, states, noise):
            seen["draws"].append(np.array(noise))
            return act(self, states, noise)

        monkeypatch.setattr(power_rl, "generators", spy_generators)
        monkeypatch.setattr(PpoAgent, "act", spy_act)
        return seen

    def test_rollout_matches_sequential_episodes(self, tiny_bundle,
                                                 monkeypatch):
        n = 6
        env = fresh_env(tiny_bundle)
        agent = PpoAgent(env.state_dim, hidden=16, rng=8)
        traces = ch.fading_gains(env.channel_kind, (n, env.num_blocks), 7)
        seeds = [derive_seed(79, e) for e in range(n)]
        runs = {}
        for mode in ("sequential", "lockstep"):
            rng = np.random.default_rng(42)
            seen = self._spy(monkeypatch)
            if mode == "sequential":
                episodes = [env.rollout(agent, rng, BUDGET, traces[e:e + 1],
                                        seeds[e:e + 1]) for e in range(n)]
            else:
                episodes = env.rollout(agent, rng, BUDGET, traces, seeds)
            monkeypatch.undo()
            runs[mode] = (episodes, seen, rng.bit_generator.state)

        (seq, seq_seen, seq_rng), (lock, lock_seen, lock_rng) = \
            runs["sequential"], runs["lockstep"]
        assert len(lock.scores) == n and env.num_blocks > 1
        assert seq_seen["seeds"] == lock_seen["seeds"] == seeds
        # one act() per block: sequential draws [1] per call, lockstep
        # draws one column of an [n, blocks] matrix per call
        seq_draws = np.concatenate(seq_seen["draws"]).reshape(n, -1)
        lock_draws = np.stack(lock_seen["draws"], axis=1)
        assert np.array_equal(seq_draws, lock_draws)
        assert seq_rng == lock_rng
        for e, a in enumerate(seq):
            assert a.states.shape == (1,) + lock.states.shape[1:]
            for field in ("states", "powers", "log_probs", "raw_actions"):
                assert np.allclose(getattr(a, field)[0],
                                   getattr(lock, field)[e], rtol=0,
                                   atol=1e-6)
            assert abs(lock.scores[e] - a.scores[0]) \
                <= 1e-6 * abs(a.scores[0])

    @pytest.mark.parametrize("n", [20, 100])
    def test_evaluate_matches_single_episodes(self, tiny_bundle, n):
        env = fresh_env(tiny_bundle)
        rng = np.random.default_rng(n)
        traces = ch.fading_gains(env.channel_kind, (n, env.num_blocks), rng)
        agent = PpoAgent(env.state_dim, hidden=16, rng=6)
        even = np.full(env.num_blocks, 1.0 / env.num_blocks)
        for policy, act in (
                (agent, lambda states, t: agent.mean_action(states)),
                (even, lambda states, t: even[t:t + 1])):
            got = evaluate(policy, env, BUDGET, traces)
            want = np.array([
                env.run(act, BUDGET, trace[None], [eval_seed(i)])[2][0]
                for i, trace in enumerate(traces)])
            assert got.shape == (n,)
            assert np.all(np.abs(got - want) <= 1e-6 * np.abs(want))

    def test_schedule_rows_match_one_trace_at_a_time(self, tiny_bundle):
        env = fresh_env(tiny_bundle)
        rng = np.random.default_rng(9)
        traces = ch.fading_gains(env.channel_kind, (5, env.num_blocks), rng)
        schedule = rng.uniform(0.0, 1.0, (len(traces), env.num_blocks))
        got = evaluate(schedule, env, BUDGET, traces)
        for i, trace in enumerate(traces):
            want = env.run(lambda states, t: schedule[i, t:t + 1], BUDGET,
                           trace[None], [eval_seed(i)])[2][0]
            assert abs(got[i] - want) <= 1e-6 * abs(want)
        with pytest.raises(ValueError):
            evaluate(schedule[:, :-1], env, BUDGET, traces)

    def test_power_audit_gains_one_row_per_episode(self, tiny_bundle):
        env = fresh_env(tiny_bundle)
        agent = PpoAgent(env.state_dim, hidden=16, rng=7)
        run_rollout(env, agent, np.random.default_rng(0), 5)
        assert len(env.power_audit) == 5
        assert env.steps_taken == 5 * env.num_blocks
        rng = np.random.default_rng(1)
        traces = ch.fading_gains(env.channel_kind, (3, env.num_blocks), rng)
        evaluate(agent, env, BUDGET, traces)
        assert len(env.power_audit) == 8
        assert all(total <= p_max for total, p_max in env.power_audit)

    def test_unknown_kind_and_bad_gains_refused(self, tiny_bundle):
        # the environment's kind is its config's, which refuses this one
        with pytest.raises(ValueError, match=r"\[channel\] kind 'nakagami'"):
            replace(DESK, channel_kind="nakagami")
        env = fresh_env(tiny_bundle)
        even = np.full(env.num_blocks, 1.0 / env.num_blocks)
        # a NaN gain is not positive either, so it is not scored as an
        # erased block
        nan_gain = np.ones((2, env.num_blocks))
        nan_gain[1, 1] = np.nan
        for gains in (np.ones((2, env.num_blocks - 1)),
                      np.full((2, env.num_blocks), -1.0),
                      np.eye(2, env.num_blocks), nan_gain):
            with pytest.raises(ValueError, match="blocks of positive gain"):
                evaluate(even, env, BUDGET, gains)
        # one trace is a set of one, [1, blocks]
        for gains in (np.ones(env.num_blocks), np.ones((0, env.num_blocks))):
            with pytest.raises(ValueError, match=r"need gains \[E, blocks\]"):
                env.run(lambda states, t: even[t:t + 1], BUDGET, gains, [0])
        # a refused run plays no block of any episode
        assert env.power_audit == [] and env.steps_taken == 0

    def test_non_positive_budget_refused(self, tiny_bundle):
        # the budget comes with each run, which refuses it before any block
        env = fresh_env(tiny_bundle)
        even = np.full(env.num_blocks, 1.0 / env.num_blocks)
        for p_max in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="p_max must be positive"):
                env.run(lambda states, t: even[t:t + 1], p_max,
                        np.ones((1, env.num_blocks)), [0])
        assert env.power_audit == [] and env.steps_taken == 0

    def test_out_of_range_action_refused(self, tiny_bundle):
        # an action outside [0, 1] is refused, not clipped into it
        env = fresh_env(tiny_bundle)
        for bad in (1.5, -0.1, math.nan):
            schedule = np.full(env.num_blocks, 1.0 / env.num_blocks)
            schedule[1] = bad
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                evaluate(schedule, env, BUDGET, np.ones((2, env.num_blocks)))

    def test_step_needs_one_action_per_episode(self, tiny_bundle):
        env = fresh_env(tiny_bundle)
        for action in (0.5, [0.5, 0.5]):
            with pytest.raises(ValueError, match="one action per episode"):
                env.run(lambda states, t: action, BUDGET,
                        np.ones((3, env.num_blocks)), [0, 1, 2])


def per_episode_reference(env, p_max, traces, noise_seeds, actions):
    """The per-episode power/noise/equalize loop, kept as the reference of
    the lockstep ``SeedTransmissionEnv.run`` at budget ``p_max``: actions
    [blocks, E] in; states [E, blocks, state_dim], powers [E, blocks] and
    the equalized float64 payloads [E, P, blocks, block] out. Each episode
    draws its noise block by block, which
    ``test_split_normal_draw_equals_one_draw`` proves equal to one draw of
    every block's noise."""
    episodes = len(traces)
    states = np.zeros((episodes, env.num_blocks, env.state_dim), np.float32)
    powers = np.zeros((episodes, env.num_blocks))
    received = np.zeros((episodes,) + env.blocks.shape)
    for e, (trace, seed) in enumerate(zip(traces, noise_seeds)):
        noise_rng = np.random.default_rng(seed)
        remaining = p_max
        for t in range(env.num_blocks):
            sent = env.blocks[:, t, :]
            gain = float(trace[t])
            states[e, t, :-2] = env.blocks[0, t]
            states[e, t, -2] = gain
            states[e, t, -1] = remaining / p_max
            p = apply_power(float(actions[t, e]), remaining, p_max)
            noise = noise_rng.normal(0.0, env.noise_std, sent.shape) \
                if env.noise_std > 0 else np.zeros_like(sent)
            if p > 0.0:   # else the block is erased and reads as zeros
                y = gain * np.sqrt(p) * sent + noise
                received[e, :, t, :] = ch.equalize(y, gain, p)
            powers[e, t] = p
            if p >= remaining:
                remaining = 0.0
            else:
                remaining = float(np.nextafter(remaining - p, 0.0))
    return states, powers, received


def payload_symbols(env, received):
    """The float32 symbols [E, P, seed_len] that the scorer reads, from
    whole float64 payloads [E, P, blocks, block]: unpadded, rescaled, then
    cast, as one array op over every episode."""
    flat = received.reshape(received.shape[:2] + (-1,))
    return (flat[..., :env.seed_len] * env._scales).astype(np.float32)


def score_all_then_chunk(env, symbols):
    """The scoring form that decodes the float32 symbols [E, P, seed_len]
    of every episode ``SCORE_CHUNK`` episodes at a time in one loop, kept
    as the reference of the streamed ``SeedTransmissionEnv._score``."""
    rewards = np.empty(len(symbols))
    for lo in range(0, len(symbols), power_rl.SCORE_CHUNK):
        chunk = symbols[lo:lo + power_rl.SCORE_CHUNK]
        latents = env.codec.decode_flat(chunk.reshape(-1, env.seed_len),
                                        cache=False)
        images = env.bundle.autoencoder.decode(
            latents.reshape((-1,) + env.bundle.autoencoder.latent_shape))
        rewards[lo:lo + len(chunk)] = -metrics.fid(
            images.reshape(chunk.shape[:2] + images.shape[1:]), None,
            env.bundle.extractor, reference_features=env.reference_features)
    return rewards


class TestScoreChunks:
    def test_one_chunk_of_images_alive_and_rewards_unchanged(
            self, tiny_bundle, monkeypatch):
        env = fresh_env(tiny_bundle)
        n = 2 * power_rl.SCORE_CHUNK + 1
        rng = np.random.default_rng(4)
        traces = ch.fading_gains(env.channel_kind, (n, env.num_blocks), rng)
        decoded, alive_at_start, scored = [], [], []
        decode, score = genmodel.AutoencoderPair.decode, env._score

        def spy_decode(self, latent):
            alive_at_start.append(sum(ref() is not None for ref in decoded))
            out = decode(self, latent)
            decoded.append(weakref.ref(out))
            return out

        def spy_score(symbols):
            scored.append(symbols.copy())
            return score(symbols)

        monkeypatch.setattr(genmodel.AutoencoderPair, "decode", spy_decode)
        monkeypatch.setattr(env, "_score", spy_score)
        got = evaluate(np.full(env.num_blocks, 1.0 / env.num_blocks), env,
                       BUDGET, traces)
        monkeypatch.undo()
        # one decode per chunk, the last one a single episode
        assert alive_at_start == [0, 0, 0]
        assert got.shape == (n,) and got.dtype == np.float64
        assert scored[0].shape == (n, len(env.blocks), env.seed_len)
        assert scored[0].dtype == np.float32
        want = score_all_then_chunk(env, scored[0])
        assert got.tobytes() == want.tobytes()

    def test_peak_grows_by_at_most_twice_the_symbols_per_trace(
            self, tiny_bundle):
        # while a chunk decodes, each trace may hold its float32 symbols
        # and small per-episode rows, but no float64 payload or noise
        env = fresh_env(tiny_bundle)
        even = np.full(env.num_blocks, 1.0 / env.num_blocks)
        rng = np.random.default_rng(6)
        small, large = power_rl.SCORE_CHUNK, 8 * power_rl.SCORE_CHUNK
        peaks = []
        # the first run fills the per-process caches
        for n in (small, small, large):
            traces = ch.fading_gains(env.channel_kind, (n, env.num_blocks),
                                     rng)
            tracemalloc.start()
            try:
                evaluate(even, env, BUDGET, traces)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_trace = (peaks[2] - peaks[1]) / (large - small)
        symbols = 4 * len(env.blocks) * env.seed_len
        assert per_trace <= 2 * symbols, (per_trace, peaks)


@pytest.mark.parametrize("seed, shape, scale", [
    (0, (4, 4, 16), 1.0), (eval_seed(3), (4, 16, 16), 0.7),
    (12345, (7, 3, 5), 1e-3)])
def test_split_normal_draw_equals_one_draw(seed, shape, scale):
    """Block-by-block noise draws from one generator are the values and
    the final state of one draw of every block's noise."""
    whole, split = np.random.default_rng(seed), np.random.default_rng(seed)
    at_once = whole.normal(0.0, scale, shape)
    blocks = np.stack([split.normal(0.0, scale, shape[1:])
                       for _ in range(shape[0])])
    assert at_once.tobytes() == blocks.tobytes()
    assert whole.bit_generator.state == split.bit_generator.state


@pytest.mark.parametrize("kind", ch.KINDS)
@pytest.mark.parametrize("seed, shape", [
    (0, (20, 4)), (derive_seed(5, "env_traces"), (16, 4)), (12345, (3, 17))])
def test_split_fading_draw_equals_one_draw(kind, seed, shape):
    """One draw of E traces of B gains is, in values and in the final
    state of the generator, E draws of one trace each: so a rollout's or
    a frozen set's one [E, B] draw gives every trace its own old gains."""
    whole, split = np.random.default_rng(seed), np.random.default_rng(seed)
    at_once = ch.fading_gains(kind, shape, whole)
    rows = np.stack([ch.fading_gains(kind, shape[1:], split)
                     for _ in range(shape[0])])
    assert at_once.dtype == rows.dtype == np.float64
    assert at_once.tobytes() == rows.tobytes()
    assert whole.bit_generator.state == split.bit_generator.state


class TestVectorizedStep:
    @staticmethod
    def _check_run(env, traces, seeds, actions, monkeypatch):
        """Run the actions [blocks, E] and check the states, powers,
        scored symbols and scores against ``per_episode_reference``, and
        that each step equalizes every episode's block in one call, erased
        or not; returns the powers."""
        shapes, scored = [], []
        equalize, score = ch.equalize, env._score
        monkeypatch.setattr(ch, "equalize", lambda y, *args:
                            shapes.append(np.shape(y)) or equalize(y, *args))
        monkeypatch.setattr(env, "_score", lambda symbols:
                            scored.append(symbols.copy()) or score(symbols))
        states, powers, scores = env.run(lambda states, t: actions[t],
                                         BUDGET, traces, seeds)
        monkeypatch.undo()
        assert shapes == [(len(traces),) + env.blocks[:, 0].shape] \
            * env.num_blocks
        want_states, want_powers, want_received = per_episode_reference(
            env, BUDGET, traces, seeds, actions)
        want_symbols = payload_symbols(env, want_received)
        assert np.array_equal(states, want_states)
        assert np.array_equal(powers, want_powers)
        assert len(scored) == 1 and scored[0].dtype == np.float32
        assert scored[0].tobytes() == want_symbols.tobytes()
        assert np.array_equal(scores, score(want_symbols))
        return powers

    def test_matches_per_episode_loop(self, tiny_bundle, monkeypatch):
        env = fresh_env(tiny_bundle)
        rng = np.random.default_rng(3)
        traces = ch.fading_gains(env.channel_kind, (6, env.num_blocks), rng)
        seeds = [derive_seed(77, e) for e in range(6)]
        # zero, tiny, clamped and over-budget actions in every block
        actions = rng.uniform(0.0, 1.0, (env.num_blocks, 6))
        actions[:, 0] = 0.0
        actions[0, 1] = 1.0
        actions[1::2, 2] = 0.0
        actions[:, 3] = 1e-9
        powers = self._check_run(env, traces, seeds, actions, monkeypatch)
        assert powers[0].sum() == 0.0

    def test_live_blocks_equalized_whole_match_per_episode_loop(
            self, tiny_bundle, monkeypatch):
        # no block is erased
        env = fresh_env(tiny_bundle)
        rng = np.random.default_rng(4)
        traces = ch.fading_gains(env.channel_kind, (6, env.num_blocks), rng)
        seeds = [derive_seed(78, e) for e in range(6)]
        # positive actions whose powers sum under the budget
        actions = rng.uniform(0.05, 1.0 / env.num_blocks,
                              (env.num_blocks, 6))
        self._check_run(env, traces, seeds, actions, monkeypatch)

    def test_apply_power_arrays_match_scalars(self):
        actions = np.array([0.0, 0.3, 0.9, 1.0])
        remaining = np.array([0.7, 0.2, 2.0, 0.0])
        got = apply_power(actions, remaining, 2.0)
        assert got.tolist() == [apply_power(a, r, 2.0)
                                for a, r in zip(actions, remaining)]
        with pytest.raises(ValueError):
            apply_power(np.array([0.5, 1.5]), np.array([1.0, 1.0]), 2.0)
        with pytest.raises(ValueError):
            apply_power(np.array([0.5, 0.5]), np.array([1.0, 2.5]), 2.0)
