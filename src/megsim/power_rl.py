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
from .errors import TrainingError
from .protocol import ModelBundle, es_handle_request
from .util import EVAL_MASTER, as_rng, derive_seed, derive_seeds, generators

LOG_2PI = math.log(2.0 * math.pi)
# episodes decoded and scored together; caps the decode batch, and so the
# peak memory, when many episodes run in lockstep: at most one chunk of
# decoded images is alive at a time
SCORE_CHUNK = 16
# entropy of a unit-variance Gaussian; S(sigma) = this + log(sigma)
GAUSS_ENTROPY_CONST = 0.5 * (1.0 + LOG_2PI)
# the policy's log standard deviation is clipped to this range
LOG_STD_MIN, LOG_STD_MAX = -5.0, 1.0
# PPO rounds between held-out evaluations of the agent in training
EVAL_EVERY = 20


def apply_power(action, remaining, p_max):
    """Power for one block of each episode: the scaled actions, clamped
    to what is left of each budget."""
    action, remaining = np.asarray(action), np.asarray(remaining)
    if not np.all((0.0 <= action) & (action <= 1.0)):
        raise ValueError(f"action {action} outside [0, 1]")
    if not np.all((0.0 <= remaining) & (remaining <= p_max)):
        raise ValueError("remaining budget outside [0, p_max]")
    return np.minimum(action * p_max, remaining)


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
class Rollout:
    """E episodes run in lockstep: per-block rows [E, blocks, ...] plus
    each episode's terminal quality score. The reward is the score at an
    episode's last block and zero before it.
    """
    states: np.ndarray            # [E, blocks, state_dim]
    raw_actions: np.ndarray       # [E, blocks] pre-squash Gaussian samples
    powers: np.ndarray            # [E, blocks]
    log_probs: np.ndarray         # [E, blocks] under the policy that acted
    scores: np.ndarray            # [E]


class PpoAgent:
    """Gaussian policy over the power fraction plus a state-value critic."""

    def __init__(self, state_dim, hidden, rng=None):
        rng = None if rng is None else as_rng(rng)
        self.state_dim = int(state_dim)
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
        mean = out[:, 0].astype(np.float64)
        raw_ls = out[:, 1].astype(np.float64)
        log_std = np.clip(raw_ls, LOG_STD_MIN, LOG_STD_MAX)
        return mean, log_std, raw_ls

    @staticmethod
    def _log_prob(u, mean, log_std):
        # tanh-squash correction is parameter-free and cancels in every
        # probability ratio, so the Gaussian density suffices
        z = (u - mean) / np.exp(log_std)
        return -0.5 * z * z - log_std - 0.5 * LOG_2PI

    def act(self, states, noise):
        """Sample one action per state row [E, state_dim] from the
        standard-normal draws ``noise`` [E]; returns (actions, raw
        samples, log_probs), each of length E."""
        mean, log_std, _ = self._heads(states)
        u = mean + np.exp(log_std) * noise
        actions = np.array([squash(x) for x in u])
        return actions, u, self._log_prob(u, mean, log_std)

    def mean_action(self, states):
        """Deterministic actions, one per state row [E, state_dim]."""
        mean, _, _ = self._heads(states)
        return np.array([squash(x) for x in mean])

    def value(self, states):
        v = self.critic.forward(np.asarray(states, dtype=np.float32),
                                cache=False)
        return v[:, 0].astype(np.float64)

    def snapshot(self):
        return [self.actor.flat.copy(), self.critic.flat.copy()]

    def restore(self, saved):
        self.actor.flat[...], self.critic.flat[...] = saved

    def save(self, path, extra=None):
        """Checkpoint both heads into one network file."""
        meta = {"state_dim": self.state_dim,
                "hidden": self.actor.layers[0].out_features,
                "actor_layers": len(self.actor.layers),
                "log_std_min": LOG_STD_MIN, "log_std_max": LOG_STD_MAX}
        meta.update(extra or {})
        nn.save_network(path, self.actor, self.critic, extra=meta, name="ppo")

    @classmethod
    def load(cls, path):
        meta = nn.network_extra(path)
        agent = cls(meta["state_dim"], meta["hidden"])
        nn.load_network(path, agent.actor, agent.critic)
        return agent, meta


# ---------------------------------------------------------------------------
# environment

class SeedTransmissionEnv:
    """Per-block power decisions around one seed download for a prompt
    batch, over the link of the experiment config ``cfg``: its
    ``power_rate`` codec, ``power_snr_db``, ``channel_kind`` and
    ``block_length``.

    The state is the pilot prompt's current block (zero padded), the
    block's gain, and the normalized remaining budget. Every prompt in the
    batch is transmitted under the same power schedule and fading trace.
    Each :meth:`run` takes its budget, so one environment serves them all.

    :meth:`run` plays E episodes in lockstep, one block at a time; one
    episode is the case E = 1. Each :meth:`step` applies power, noise and
    equalization to all episodes at once and keeps only the block's
    rescaled float32 symbols; after the last block the episodes are
    decoded and scored ``SCORE_CHUNK`` at a time.
    """

    def __init__(self, bundle: ModelBundle, cfg, prompts, seed):
        if len(prompts) < 2:
            raise ValueError("the reward batch needs at least 2 prompts")
        self.bundle = bundle
        self.channel_kind = cfg.channel_kind
        self.block_length = block_length = cfg.block_length
        self.noise_std = ch.snr_to_noise_std(cfg.power_snr_db, 1.0)
        self.seed = int(seed)

        # each prompt's server noise from a generator of its own
        shape = bundle.autoencoder.latent_shape
        noise = np.stack([rng.standard_normal(shape) for rng in generators(
            derive_seeds(seed, "server_noise", indices=range(len(prompts))))])
        frames, latents = es_handle_request(bundle, prompts, noise,
                                            cfg.power_rate, block_length)
        truths = bundle.autoencoder.decode(latents)
        self._scales = np.array([fr.scale for fr in frames])[:, None]
        # the ground truths are fixed, so every episode's reward reuses
        # one extraction of their features
        self.reference_features = bundle.extractor.extract(truths)
        self.codec = bundle.codec_for(cfg.power_rate)
        self.seed_len = frames[0].payload.size
        self.num_blocks = ch.block_count(self.seed_len, block_length)
        self.state_dim = block_length + 2
        # payloads padded to a whole number of blocks, stacked [P, B, block]
        pad = self.num_blocks * block_length - self.seed_len
        self.blocks = np.pad(np.stack([fr.payload for fr in frames])
                             .astype(np.float64), ((0, 0), (0, pad))) \
            .reshape(len(prompts), self.num_blocks, block_length)
        self.power_audit = []     # (sum of powers, p_max) per finished episode
        self.steps_taken = 0      # blocks stepped, summed over episodes

    # -- episodes ------------------------------------------------------------

    def run(self, policy, p_max, gains, noise_seeds):
        """Play one episode per trace of ``gains`` [E, >= B] in lockstep,
        each under the budget ``p_max`` (positive, else ValueError) and
        with its channel noise drawn from its entry of ``noise_seeds``;
        ``policy(states, t)`` maps block t's states [E, state_dim] to one
        action in [0, 1] per episode. Returns (states [E, B, state_dim],
        powers [E, B], terminal rewards [E])."""
        p_max = float(p_max)
        if not p_max > 0.0:
            raise ValueError(f"p_max must be positive, got {p_max}")
        # float64 gains [E, B] for the link; only the state column rounds
        gains = np.asarray(gains, dtype=np.float64)
        if gains.ndim != 2 or not 0 < len(gains) == len(noise_seeds):
            raise ValueError("need gains [E, blocks] and one noise seed per "
                             "trace, at least one")
        gains = gains[:, :self.num_blocks]
        if gains.shape[1] < self.num_blocks or not np.all(gains > 0):
            raise ValueError(f"each trace needs {self.num_blocks} blocks of "
                             f"positive gain")
        rngs = list(generators(noise_seeds))
        episodes = len(gains)
        # block-major, so that each block's states are one contiguous batch
        states = np.empty((self.num_blocks, episodes, self.state_dim),
                          dtype=np.float32)
        states[:, :, :-2] = self.blocks[0, :, None]    # the pilot's blocks
        states[:, :, -2] = gains.T
        powers = np.empty((episodes, self.num_blocks))
        remaining = np.full(episodes, p_max)
        symbols = np.empty((episodes, len(self.blocks), self.seed_len),
                           dtype=np.float32)
        for t in range(self.num_blocks):
            states[t, :, -1] = remaining / p_max
            p = powers[:, t] = self.step(t, policy(states[t], t), remaining,
                                         p_max, gains[:, t], rngs, symbols)
            # one-ulp-down update keeps the exact running sum under the cap
            remaining = np.where(p >= remaining, 0.0,
                                 np.nextafter(remaining - p, 0.0))
        # the generators, about 0.9 KB each, are freed before any decode
        del rngs
        for total in map(math.fsum, powers):
            if total > p_max:
                raise AssertionError(
                    f"power budget violated: {total} > {p_max}")
            self.power_audit.append((total, p_max))
        return states.swapaxes(0, 1), powers, self._score(symbols)

    def step(self, t, actions, remaining, p_max, gains, rngs, symbols):
        """Block t of every episode: set the powers that :func:`apply_power`
        gives ``actions`` [E] at ``p_max`` and the ``remaining`` budgets,
        draw the block's noise [P, block] from each episode's generator in
        ``rngs`` (also where the block is erased, so the streams stay
        aligned across policies), send and equalize every episode's block
        at once and write its rescaled float32 symbols, zeros where it is
        erased, into ``symbols`` [E, P, seed_len]; returns the powers [E]."""
        actions = np.asarray(actions, dtype=np.float64)
        if actions.shape != remaining.shape:
            raise ValueError(f"need one action per episode, got "
                             f"{actions.shape}")
        p = apply_power(actions, remaining, p_max)
        sent = self.blocks[:, t]
        g, pw = gains[:, None, None], p[:, None, None]
        y = ch.equalize(ch.transmit(
            np.broadcast_to(sent, (len(rngs),) + sent.shape), g, pw,
            np.stack([rng.normal(0.0, self.noise_std, sent.shape)
                      for rng in rngs])), g, pw)
        lo = t * self.block_length
        hi = min(lo + self.block_length, self.seed_len)
        np.multiply(y[..., :hi - lo], self._scales,
                    out=symbols[:, :, lo:hi])
        self.steps_taken += len(p)
        return p

    def _score(self, symbols):
        """Terminal rewards of the received symbols [E, P, seed_len],
        scored by :meth:`_score_chunk` ``SCORE_CHUNK`` episodes at a time,
        so at most one chunk of decoded images is alive at a time."""
        return np.concatenate([
            self._score_chunk(symbols[lo:lo + SCORE_CHUNK])
            for lo in range(0, len(symbols), SCORE_CHUNK)])

    def _score_chunk(self, symbols):
        """Negative Frechet proxy of each episode's decoded batch against
        the ground truths, for the received symbols [e, P, seed_len]."""
        latents = self.codec.decode_flat(symbols.reshape(-1, self.seed_len),
                                         cache=False)
        images = self.bundle.autoencoder.decode(
            latents.reshape((-1,) + self.bundle.autoencoder.latent_shape))
        return -metrics.fid(
            images.reshape(symbols.shape[:2] + images.shape[1:]), None,
            self.bundle.extractor, reference_features=self.reference_features)

    def rollout(self, agent: PpoAgent, rng, p_max, gains,
                noise_seeds) -> Rollout:
        """The episodes of :meth:`run` under the sampling policy; each
        takes its block draws from ``rng`` in turn, as when run alone."""
        episodes = len(gains)
        draws = rng.standard_normal((episodes, self.num_blocks))
        us, logps = np.empty((2, episodes, self.num_blocks))

        def sample(states, t):
            actions, us[:, t], logps[:, t] = agent.act(states, draws[:, t])
            return actions

        states, powers, scores = self.run(sample, p_max, gains, noise_seeds)
        return Rollout(states, us, powers, logps, scores)


# ---------------------------------------------------------------------------
# PPO update and training loop

def ppo_update(agent: PpoAgent, rollout: Rollout, cfg,
               opt: nn.Adam | None = None):
    """Several epochs of clipped-objective ascent on one rollout, with the
    ``ppo_*`` settings of the experiment config ``cfg``.

    The per-transition log probabilities recorded at rollout time are the
    old-policy snapshot; transitions are taken episode by episode; each
    epoch is one ``opt`` step over both heads. Returns a diagnostics dict;
    aborts (without stepping) if any loss goes non-finite.
    """
    if not len(rollout.scores):
        raise ValueError("episode batch is empty")
    opt = opt or nn.Adam(cfg.ppo_lr)
    states = rollout.states.reshape(-1, rollout.states.shape[-1])
    us = rollout.raw_actions.reshape(-1)
    logp_old = rollout.log_probs.reshape(-1)
    # the reward is terminal: the last block's return is the score, each
    # earlier block's gamma times the next one's
    returns = np.empty(rollout.raw_actions.shape)
    returns[:, -1] = rollout.scores
    for t in range(returns.shape[1] - 2, -1, -1):
        returns[:, t] = cfg.ppo_gamma * returns[:, t + 1]
    returns = returns.reshape(-1)
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
        entropy = float(np.mean(GAUSS_ENTROPY_CONST + log_std))
        v_pred = agent.critic.forward(states.astype(np.float32), cache=True)
        v_err = v_pred[:, 0].astype(np.float64) - returns
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
        clamp = ((raw_ls > LOG_STD_MIN)
                 & (raw_ls < LOG_STD_MAX)).astype(np.float64)
        g_mean = -g_logp * z / sigma
        g_ls = (-g_logp * (z * z - 1.0) - cfg.ppo_entropy_coef / n) * clamp
        g_actor_out = np.stack([g_mean, g_ls], axis=1).astype(np.float32)
        agent.actor.backward(g_actor_out, input_grad=False)

        g_v = (cfg.ppo_value_coef * 2.0 * v_err / n)[:, None]
        agent.critic.backward(g_v.astype(np.float32), input_grad=False)

        opt.step(*nn.network_vectors([agent.actor, agent.critic]))
    return diag


def evaluate(policy, env: SeedTransmissionEnv, p_max, traces):
    """Deterministic terminal rewards of a policy over frozen traces.

    ``policy`` is a PpoAgent (evaluated at its mean action, one batched
    forward per block) or an action schedule in [0, 1]: ``[blocks]``
    shared by every trace, or ``[traces, blocks]``. All traces, gains
    [traces, >= blocks], run in lockstep at the budget ``p_max``.
    """
    if isinstance(policy, PpoAgent):
        def act(states, t):
            return policy.mean_action(states)
    else:
        schedule = np.broadcast_to(np.asarray(policy, dtype=np.float64),
                                   (len(traces), env.num_blocks))

        def act(states, t):
            return schedule[:, t]
    # per-trace noise seed pairs the draws across evaluated policies
    return env.run(act, p_max, traces, derive_seeds(
        EVAL_MASTER, "eval_noise", indices=range(len(traces))))[2]


def train_agent(env: SeedTransmissionEnv, cfg, p_max, seed,
                eval_traces=None):
    """Algorithm: roll out a batch of episodes at budget ``p_max``, then
    run a PPO update; track the best agent by held-out evaluation when
    traces are given. The ``ppo_*`` settings come from the experiment
    config ``cfg``. The run's rollout traces and episode-noise seeds are
    its own, keyed by ``env.seed``: no earlier run on ``env`` moves them.

    Returns (agent, history) where history rows are
    (round, mean terminal reward, surrogate, value loss, entropy). A
    round whose update aborts on a non-finite loss raises TrainingError.
    """
    rng = as_rng(seed)
    agent = PpoAgent(env.state_dim, cfg.ppo_hidden, rng)
    opt = nn.Adam(cfg.ppo_lr)
    trace_rng = as_rng(derive_seed(env.seed, "env_traces"))
    episode, batch = 0, cfg.ppo_episodes_per_batch
    history = []
    best_params, best_score = None, -np.inf
    for rnd in range(cfg.ppo_update_rounds):
        rollout = env.rollout(agent, rng, p_max, ch.fading_gains(
            env.channel_kind, (batch, env.num_blocks), trace_rng),
            derive_seeds(env.seed, "episode_noise",
                         indices=range(episode, episode + batch)))
        episode += batch
        diag = ppo_update(agent, rollout, cfg, opt)
        if diag["aborted"]:
            raise TrainingError(f"PPO round {rnd} aborted: non-finite loss")
        history.append((rnd, float(np.mean(rollout.scores)), *(
            diag[k][-1] for k in ("surrogate", "value_loss", "entropy"))))
        if eval_traces is not None and ((rnd + 1) % EVAL_EVERY == 0
                                        or rnd == cfg.ppo_update_rounds - 1):
            score = float(np.mean(evaluate(agent, env, p_max, eval_traces)))
            # held-out episodes take episode numbers too, so that later
            # rounds keep the noise seeds, and outputs, of earlier versions
            episode += len(eval_traces)
            if score > best_score:
                best_score = score
                best_params = agent.snapshot()
    if best_params is not None:
        agent.restore(best_params)
    return agent, history


def compare(env: SeedTransmissionEnv, cfg, p_max, seed, traces,
            eval_traces=None):
    """Train an agent by :func:`train_agent`, then :func:`evaluate` it at
    its mean action and the even split on the frozen ``traces``, with the
    same budget ``p_max``, gains and noise seeds. Returns (agent, history,
    agent rewards [n], even-split rewards [n]), paired trace by trace."""
    agent, history = train_agent(env, cfg, p_max, seed, eval_traces)
    even = np.full(env.num_blocks, 1.0 / env.num_blocks)
    return (agent, history, evaluate(agent, env, p_max, traces),
            evaluate(even, env, p_max, traces))
