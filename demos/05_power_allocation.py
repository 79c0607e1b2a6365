"""Teach the transmitter where to spend a scarce power budget.

A seed spans several coherence blocks; the agent sees each block's gain
and the remaining budget, and only the final image quality is rewarded.
Compares the trained policy against an even split on frozen traces.
"""

from dataclasses import replace

import numpy as np

from megsim import channel as ch
from megsim import config, experiments, power_rl
from megsim.corpus import sample_prompts
from megsim.util import EVAL_MASTER, derive_seed

cfg = replace(config.desk_config(), out="demo-runs")
print("training or loading the model bundle (cached under demo-runs/) ...")
bundle = experiments.cmd_train(cfg).bundle

prompts = sample_prompts(16, derive_seed(cfg.seed, "power_prompts"))
# the link (rate, SNR, fading kind, block length) is the config's [power]
# and [channel] settings; the budget is the tightest of [power] budgets,
# and the environment is the one `megsim power` builds for it
env = power_rl.SeedTransmissionEnv(bundle, cfg, prompts, 0.5,
                                   seed=derive_seed(cfg.seed, "power_env"))
print(f"each episode: {env.num_blocks} blocks of {env.block_length} symbols, "
      f"budget 0.5 (even split gives {0.5 / env.num_blocks:.3f} per block)\n")

frozen = ch.fading_gains(env.channel_kind, (100, env.num_blocks),
                         derive_seed(cfg.seed, "frozen_traces"))
print("training the allocator ...")
agent, history, drl, uniform = power_rl.compare(
    env, replace(cfg, ppo_update_rounds=120),
    experiments.agent_seed(cfg, 0.5), frozen)
print("mean terminal reward:",
      " -> ".join(f"{history[i][1]:.3f}" for i in (0, len(history) // 2, -1)))

wins = int(np.sum(drl > uniform))
print(f"\nfrozen-trace comparison (fid proxy, lower is better):")
print(f"  even split: {-np.mean(uniform):.4f}")
print(f"  trained:    {-np.mean(drl):.4f}   ({wins}/100 paired wins)")

# one episode, a batch of one, on evaluate's noise for the first trace;
# run returns (states, powers, scores)
powers = env.run(lambda states, t: agent.mean_action(states), frozen[:1],
                 [derive_seed(EVAL_MASTER, "eval_noise", 0)])[1][0]
print("\none trace, gains: ", np.round(frozen[0], 2))
print("learned powers:    ", np.round(powers, 3),
      f"(sum {powers.sum():.3f} <= 0.5)")
