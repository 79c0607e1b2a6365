"""PPO power allocation for seed downloads under a total energy budget.

One episode is one seed transmission: at each coherence block the agent
sees the block's symbols, the current gain, and the remaining budget, and
picks a power fraction. The only reward arrives at the end, the negative
Frechet proxy of the images a receiver decodes under that power schedule
(a batch of prompts shares the episode's fading trace so the score is
well defined).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from . import metrics, nn
from .errors import ChannelErasure
from .protocol import ModelBundle, es_handle_request, GenerationRequest
from .util import as_rng, derive_seed

LOG_2PI = math.log(2.0 * math.pi)
# entropy of a unit-variance Gaussian; S(sigma) = this + log(sigma)
GAUSS_ENTROPY_CONST = 0.5 * (1.0 + LOG_2PI)


def apply_power(action, remaining, p_max):
    """Power for one block: the scaled action, clamped to what is left."""
    if not 0.0 <= action <= 1.0:
        raise ValueError(f"action {action} outside [0, 1]")
    if not 0.0 <= remaining <= p_max:
        raise ValueError("remaining budget outside [0, p_max]")
    return min(action * p_max, remaining)


def terminal_reward(decoded_images, ground_truths, extractor):
    """Negative Frechet proxy of the episode's decoded batch."""
    return -metrics.fid(np.stack(decoded_images), np.stack(ground_truths),
                        extractor)


def gaussian_entropy(log_std):
    """Differential entropy of a 1-d Gaussian policy head."""
    return GAUSS_ENTROPY_CONST + float(log_std)


def squash(u):
    """Map an unbounded sample into the unit action interval."""
    return 0.5 * (math.tanh(u) + 1.0)


def clipped_surrogate(log_prob_new, log_prob_old, advantages, clip_range):
    """Mean clipped policy objective: E[min(u A, clip(u) A)].

    Returns (value, ratios, per-sample gradient wrt log_prob_new).
    """
    lp_new = np.asarray(log_prob_new, dtype=np.float64)
    lp_old = np.asarray(log_prob_old, dtype=np.float64)
    adv = np.asarray(advantages, dtype=np.float64)
    ratios = np.exp(lp_new - lp_old)
    clipped = np.clip(ratios, 1.0 - clip_range, 1.0 + clip_range)
    unclipped_term = ratios * adv
    clipped_term = clipped * adv
    value = float(np.mean(np.minimum(unclipped_term, clipped_term)))
    inside = (ratios > 1.0 - clip_range) & (ratios < 1.0 + clip_range)
    active = (unclipped_term <= clipped_term) | inside
    grad = np.where(active, unclipped_term, 0.0) / len(ratios)
    return value, ratios, grad


@dataclass
class PpoConfig:
    clip_range: float = 0.2
    value_coef: float = 0.5       # c1
    entropy_coef: float = 0.01    # c2
    gamma: float = 1.0            # terminal-only reward, so no discounting
    learning_rate: float = 3e-3
    epochs: int = 8
    episodes_per_batch: int = 16
    update_rounds: int = 120
    hidden: int = 32
    log_std_min: float = -5.0
    log_std_max: float = 1.0
    normalize_advantages: bool = True
    eval_every: int = 20
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.clip_range < 1.0:
            raise ValueError("clip range must lie in (0, 1)")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")


@dataclass
class EpisodeRecord:
    """One rollout of per-step tuples plus the terminal quality score.

    Successor states are the following rows of ``states``; the episode
    ends at the single step where ``dones`` is True.
    """
    states: np.ndarray
    raw_actions: np.ndarray       # pre-squash Gaussian samples
    actions: np.ndarray           # squashed into [0, 1]
    powers: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray
    log_probs: np.ndarray         # under the policy that acted
    terminal_score: float

    def __len__(self):
        return len(self.powers)


class PpoAgent:
    """Gaussian policy over the power fraction plus a state-value critic."""

    def __init__(self, state_dim, hidden=32, rng=None,
                 log_std_min=-5.0, log_std_max=1.0):
        rng = as_rng(rng)
        self.state_dim = int(state_dim)
        self.log_std_min = float(log_std_min)
        self.log_std_max = float(log_std_max)
        self.actor = nn.Network([
            nn.DenseLayer(state_dim, hidden, "tanh", rng, "a1"),
            nn.DenseLayer(hidden, 2, "none", rng, "a2"),
        ], name="actor")
        self.critic = nn.Network([
            nn.DenseLayer(state_dim, hidden, "tanh", rng, "c1"),
            nn.DenseLayer(hidden, 1, "none", rng, "c2"),
        ], name="critic")

    def _heads(self, states, cache=False):
        out = self.actor.forward(np.asarray(states, dtype=np.float32),
                                 cache=cache)
        out = np.atleast_2d(out)
        mean = out[:, 0].astype(np.float64)
        raw_ls = out[:, 1].astype(np.float64)
        log_std = np.clip(raw_ls, self.log_std_min, self.log_std_max)
        return mean, log_std, raw_ls

    @staticmethod
    def _log_prob(u, mean, log_std):
        # tanh-squash correction is parameter-free and cancels in every
        # probability ratio, so the Gaussian density suffices
        z = (u - mean) / np.exp(log_std)
        return -0.5 * z * z - log_std - 0.5 * LOG_2PI

    def act(self, state, rng):
        """Sample an action; returns (action, raw sample, log_prob)."""
        mean, log_std, _ = self._heads(state[None, :])
        u = float(mean[0] + np.exp(log_std[0]) * rng.standard_normal())
        logp = float(self._log_prob(u, mean[0], log_std[0]))
        return squash(u), u, logp

    def mean_action(self, state):
        mean, _, _ = self._heads(state[None, :])
        return squash(float(mean[0]))

    def value(self, states):
        v = self.critic.forward(np.asarray(states, dtype=np.float32),
                                cache=False)
        return np.atleast_2d(v)[:, 0].astype(np.float64)

    def snapshot(self):
        return [p.copy() for p in self.actor.params() + self.critic.params()]

    def restore(self, saved):
        for p, q in zip(self.actor.params() + self.critic.params(), saved):
            p[...] = q

    def save(self, path, extra=None):
        """Checkpoint both heads into one network file."""
        meta = {"state_dim": self.state_dim,
                "hidden": self.actor.layers[0].out_features,
                "actor_layers": len(self.actor.layers),
                "log_std_min": self.log_std_min,
                "log_std_max": self.log_std_max}
        meta.update(extra or {})
        combined = nn.Network(self.actor.layers + self.critic.layers, "ppo")
        nn.save_network(path, combined, extra=meta)

    @classmethod
    def load(cls, path):
        net, meta = nn.load_network(path)
        agent = cls(meta["state_dim"], meta["hidden"],
                    log_std_min=meta["log_std_min"],
                    log_std_max=meta["log_std_max"])
        split = meta["actor_layers"]
        for mine, saved in zip(agent.actor.layers + agent.critic.layers,
                               net.layers[:split] + net.layers[split:]):
            for p, q in zip(mine.params(), saved.params()):
                p[...] = q
        return agent, meta


# ---------------------------------------------------------------------------
# environment

class SeedTransmissionEnv:
    """Per-block stepping around one seed download for a prompt batch.

    The state is the pilot prompt's current block (zero padded), the
    block's gain, and the normalized remaining budget. Every prompt in the
    batch is transmitted under the same power schedule and fading trace.
    """

    def __init__(self, bundle: ModelBundle, prompts, rate, snr_db,
                 p_max, channel_kind="rayleigh_block", block_length=16,
                 seed=0):
        if len(prompts) < 2:
            raise ValueError("the reward batch needs at least 2 prompts")
        self.bundle = bundle
        self.p_max = float(p_max)
        self.block_length = int(block_length)
        self.noise_std = ch.snr_to_noise_std(snr_db, 1.0)
        self.model = ch.ChannelModel(channel_kind, block_length)
        self._seed = int(seed)
        self._trace_rng = as_rng(derive_seed(seed, 0xE0))
        self._episode_index = 0

        frames = []
        self.ground_truths = []
        for i, prompt in enumerate(prompts):
            req = GenerationRequest(prompt, rate, bundle.image_shape,
                                    derive_seed(seed, 0xE1, i))
            res = es_handle_request(bundle, req, block_length)
            frames.append(res.frame)
            self.ground_truths.append(bundle.autoencoder.decode(res.latent))
        self.frames = frames
        # the ground truths are fixed, so every episode's reward reuses
        # one extraction of their features
        self.reference_features = bundle.extractor.extract(
            np.stack(self.ground_truths))
        self.codec = bundle.codec_for(rate)
        self.seed_len = frames[0].payload.size
        self.num_blocks = -(-self.seed_len // block_length)
        self.state_dim = block_length + 2
        # payloads padded to a whole number of blocks, stacked [P, B, block]
        padded = np.zeros((len(prompts), self.num_blocks * block_length),
                          dtype=np.float64)
        for i, fr in enumerate(frames):
            padded[i, :self.seed_len] = fr.payload
        self.blocks = padded.reshape(len(prompts), self.num_blocks,
                                     block_length)
        self.power_audit = []     # (sum of powers, p_max) per finished episode
        self.steps_taken = 0
        self._reset_state = None

    # -- episode control -----------------------------------------------------

    def reset(self, trace: ch.FadingTrace | None = None, noise_seed=None):
        """Start an episode; a fixed ``noise_seed`` makes the channel noise
        reproducible so different policies can be compared on paired draws."""
        if trace is None:
            trace = ch.sample_fading_trace(self.model, self.num_blocks,
                                           self._trace_rng)
        if len(trace) < self.num_blocks:
            raise ValueError("trace shorter than the seed's block count")
        self._trace = trace
        self._t = 0
        self._remaining = self.p_max
        self._received = np.zeros_like(self.blocks)
        self._powers = []
        if noise_seed is None:
            noise_seed = derive_seed(self._seed, 0xA2, self._episode_index)
        self._noise_rng = as_rng(noise_seed)
        self._episode_index += 1
        return self._state()

    def _state(self):
        pilot = self.blocks[0, self._t]
        return np.concatenate([
            pilot,
            [self._trace.gains[self._t]],
            [self._remaining / self.p_max]]).astype(np.float32)

    def step(self, action):
        """Apply one power decision; returns (next_state, reward, done, info)."""
        action = float(min(max(action, 0.0), 1.0))
        p = apply_power(action, self._remaining, self.p_max)
        gain = float(self._trace.gains[self._t])
        sent = self.blocks[:, self._t, :]
        # noise is drawn every block so paired evaluations stay aligned
        # even when a policy zeroes one out
        noise = self._noise_rng.normal(0.0, self.noise_std, sent.shape) \
            if self.noise_std > 0 else np.zeros_like(sent)
        if p > 0.0:
            y = gain * np.sqrt(p) * sent + noise
            try:
                self._received[:, self._t, :] = ch.equalize(y, gain, p)
            except ChannelErasure:
                pass   # leave zeros
        self._powers.append(p)
        # one-ulp-down update keeps the exact running sum under the cap
        if p >= self._remaining:
            self._remaining = 0.0
        else:
            self._remaining = float(np.nextafter(self._remaining - p, 0.0))
        self.steps_taken += 1
        self._t += 1
        done = self._t >= self.num_blocks
        reward = 0.0
        info = {"power": p}
        if done:
            reward = self._finish()
            total = math.fsum(self._powers)
            if total > self.p_max:
                raise AssertionError(
                    f"power budget violated: {total} > {self.p_max}")
            self.power_audit.append((total, self.p_max))
            info["powers"] = list(self._powers)
            return None, reward, True, info
        return self._state(), reward, False, info

    def _finish(self):
        flat = self._received.reshape(len(self.frames), -1)[:, :self.seed_len]
        scales = np.array([fr.scale for fr in self.frames])[:, None]
        symbols = (flat * scales).astype(np.float32)
        latents = self.codec.decode_flat(symbols, cache=False)
        images = self.bundle.autoencoder.decode(
            latents.reshape((len(self.frames),) + self.bundle.latent_shape))
        # equal to terminal_reward(images, self.ground_truths, extractor)
        return -metrics.fid(images, None, self.bundle.extractor,
                            reference_features=self.reference_features)

    # -- rollouts --------------------------------------------------------------

    def rollout(self, agent: PpoAgent, rng) -> EpisodeRecord:
        states, us, acts, powers, rewards, dones, logps = \
            [], [], [], [], [], [], []
        state = self.reset()
        done = False
        while not done:
            a, u, logp = agent.act(state, rng)
            states.append(state)
            next_state, r, done, info = self.step(a)
            us.append(u)
            acts.append(a)
            powers.append(info["power"])
            rewards.append(r)
            dones.append(done)
            logps.append(logp)
            state = next_state
        return EpisodeRecord(np.stack(states), np.array(us), np.array(acts),
                             np.array(powers), np.array(rewards),
                             np.array(dones), np.array(logps), rewards[-1])


# ---------------------------------------------------------------------------
# PPO update and training loop

def discounted_returns(rewards, gamma):
    out = np.zeros(len(rewards))
    acc = 0.0
    for i in range(len(rewards) - 1, -1, -1):
        acc = rewards[i] + gamma * acc
        out[i] = acc
    return out


def ppo_update(agent: PpoAgent, episodes, config: PpoConfig,
               actor_opt: nn.Adam | None = None,
               critic_opt: nn.Adam | None = None):
    """Several epochs of clipped-objective ascent on one episode batch.

    The per-transition log probabilities recorded at rollout time are the
    old-policy snapshot. Returns a diagnostics dict; aborts (without
    stepping) if any loss goes non-finite.
    """
    if not episodes:
        raise ValueError("episode batch is empty")
    actor_opt = actor_opt or nn.Adam(config.learning_rate)
    critic_opt = critic_opt or nn.Adam(config.learning_rate)
    states = np.concatenate([ep.states for ep in episodes])
    us = np.concatenate([ep.raw_actions for ep in episodes])
    logp_old = np.concatenate([ep.log_probs for ep in episodes])
    returns = np.concatenate([discounted_returns(ep.rewards, config.gamma)
                              for ep in episodes])
    advantages = returns - agent.value(states)
    if config.normalize_advantages and len(advantages) > 1:
        advantages = ((advantages - advantages.mean())
                      / (advantages.std() + 1e-8))

    diag = {"surrogate": [], "value_loss": [], "entropy": [],
            "first_epoch_max_ratio_err": None, "aborted": False}
    n = len(states)
    for epoch in range(config.epochs):
        mean, log_std, raw_ls = agent._heads(states, cache=True)
        logp_new = agent._log_prob(us, mean, log_std)
        surr, ratios, g_logp = clipped_surrogate(logp_new, logp_old,
                                                 advantages,
                                                 config.clip_range)
        entropy = float(np.mean(GAUSS_ENTROPY_CONST + log_std))
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
        clamp = ((raw_ls > agent.log_std_min)
                 & (raw_ls < agent.log_std_max)).astype(np.float64)
        g_mean = -g_logp * z / sigma
        g_ls = (-g_logp * (z * z - 1.0) - config.entropy_coef / n) * clamp
        g_actor_out = np.stack([g_mean, g_ls], axis=1).astype(np.float32)
        _, actor_grads = agent.actor.backward(g_actor_out, input_grad=False)

        g_v = (config.value_coef * 2.0 * v_err / n)[:, None].astype(np.float32)
        _, critic_grads = agent.critic.backward(g_v, input_grad=False)

        actor_opt.step(agent.actor.params(), actor_grads,
                       agent.actor.param_names())
        critic_opt.step(agent.critic.params(), critic_grads,
                        agent.critic.param_names())
    return diag


def uniform_policy(num_blocks):
    """Fixed policy spreading the budget evenly over the blocks."""
    frac = 1.0 / num_blocks
    return lambda state: frac


def evaluate(policy, env: SeedTransmissionEnv, traces):
    """Deterministic terminal rewards of a policy over frozen traces.

    ``policy`` is a PpoAgent (evaluated at its mean action) or any
    callable mapping a state vector to an action in [0, 1].
    """
    act = policy.mean_action if isinstance(policy, PpoAgent) else policy
    rewards = []
    for i, trace in enumerate(traces):
        # per-trace noise seed pairs the draws across evaluated policies
        state = env.reset(trace, noise_seed=derive_seed(0xEDA1, i))
        done = False
        while not done:
            state, r, done, _ = env.step(float(act(state)))
        rewards.append(r)
    return np.array(rewards)


def train_agent(env: SeedTransmissionEnv, config: PpoConfig,
                eval_traces=None):
    """Algorithm: roll out a batch of episodes, then run a PPO update;
    track the best agent by held-out evaluation when traces are given.

    Returns (agent, history) where history rows are
    (round, mean terminal reward, surrogate, value loss, entropy).
    """
    rng = as_rng(config.seed)
    agent = PpoAgent(env.state_dim, config.hidden, rng,
                     config.log_std_min, config.log_std_max)
    actor_opt = nn.Adam(config.learning_rate)
    critic_opt = nn.Adam(config.learning_rate)
    history = []
    best_params, best_score = None, -np.inf
    for rnd in range(config.update_rounds):
        episodes = [env.rollout(agent, rng)
                    for _ in range(config.episodes_per_batch)]
        diag = ppo_update(agent, episodes, config, actor_opt, critic_opt)
        mean_reward = float(np.mean([ep.terminal_score for ep in episodes]))
        history.append((rnd, mean_reward,
                        diag["surrogate"][-1] if diag["surrogate"] else math.nan,
                        diag["value_loss"][-1] if diag["value_loss"] else math.nan,
                        diag["entropy"][-1] if diag["entropy"] else math.nan))
        if eval_traces is not None and ((rnd + 1) % config.eval_every == 0
                                        or rnd == config.update_rounds - 1):
            score = float(np.mean(evaluate(agent, env, eval_traces)))
            if score > best_score:
                best_score = score
                best_params = agent.snapshot()
    if best_params is not None:
        agent.restore(best_params)
    return agent, history
