"""Teach the transmitter where to spend a scarce power budget.

A seed spans several coherence blocks; the agent sees each block's gain
and the remaining budget, and only the final image quality is rewarded.
Compares the trained policy against an even split on frozen traces.
"""

from dataclasses import replace

import numpy as np

from megsim import channel as ch
from megsim import config, experiments, power_rl
from megsim.util import EVAL_MASTER, derive_seed

cfg = replace(config.desk_config(), out="demo-runs")
print("training or loading the model bundle (cached under demo-runs/) ...")
bundle = experiments.cmd_train(cfg).bundle

# the config's [power] and [channel] link, on the environment that `megsim
# power` builds, at the tightest of its [power] budgets
env = experiments.power_env(bundle, cfg)
budget = min(cfg.power_budgets)
print(f"each episode: {env.num_blocks} blocks of {env.block_length} symbols, "
      f"budget {budget} (even split gives {budget / env.num_blocks:.3f} "
      f"per block)\n")

frozen = ch.fading_gains(env.channel_kind,
                         (cfg.power_eval_traces, env.num_blocks),
                         derive_seed(cfg.seed, "frozen_traces"))
print("training the allocator ...")
agent, history, drl, uniform = power_rl.compare(
    env, replace(cfg, ppo_update_rounds=120), budget,
    experiments.agent_seed(cfg, budget), frozen)
print("mean terminal reward:",
      " -> ".join(f"{history[i][1]:.3f}" for i in (0, len(history) // 2, -1)))

wins = f"{int(np.sum(drl > uniform))}/{len(frozen)}"
print(f"\nfrozen-trace comparison (fid proxy, lower is better):")
print(f"  even split: {-np.mean(uniform):.4f}")
print(f"  trained:    {-np.mean(drl):.4f}   ({wins} paired wins)")

# one episode, a batch of one, on evaluate's noise for the first trace;
# run returns (states, powers, scores)
powers = env.run(lambda states, t: agent.mean_action(states), budget,
                 frozen[:1], [derive_seed(EVAL_MASTER, "eval_noise", 0)])[1][0]
print("\none trace, gains: ", np.round(frozen[0], 2))
print("learned powers:    ", np.round(powers, 3),
      f"(sum {powers.sum():.3f} <= {budget})")
