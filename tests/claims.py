"""The paper's claims as numbers of one trained bundle, and a script that
judges them over training seeds.

Each claim function takes a trained bundle and its config; the acceptance
tests call them on the session's desk bundle. Run as a script, this trains
the desk preset at each seed into one output directory and writes
``claims.csv`` there:

    PYTHONPATH=src python tests/claims.py --seeds 0-5 --out DIR

The exit status is 1 when acceptance 06 or 09 fails at any seed. The
saturation gap is reported but not gated: on some bundles a clean block
decodes worse than an erased one, so its premise does not always hold.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np
from scipy import stats

from megsim import channel as ch
from megsim import config, corpus, experiments, power_rl, protocol
from megsim.metrics import MODES
from megsim.util import derive_seed, write_csv

CLAIMS_SCHEMA = "megsim claims v1"


def low_snr_ordering(bundle, cfg):
    """Acceptance 06: median fid per mode at -10 dB and median PSNR per
    mode at +30 dB over 5 trials of the eval prompts. It holds when
    meg < raw < centralized in fid at -10 dB and raw >= meg in PSNR at
    +30 dB."""
    prompts = corpus.sample_prompts(cfg.eval_prompts,
                                    derive_seed(cfg.seed, "eval_prompts"))
    fids = {m: [] for m in MODES}
    psnrs = {m: [] for m in MODES}
    for trial in range(5):
        for snr in (-10.0, 30.0):
            spec = protocol.RunSpec(snr, cfg.channel_kind,
                                    experiments.cell_seed(cfg, 0.5, snr,
                                                          trial))
            rep = protocol.run_end_to_end(bundle, protocol.serve_cells(
                bundle, prompts, 0.5, cfg.block_length, [spec]))
            for m in MODES:
                if snr == -10.0:
                    fids[m].append(rep[0, m].report.fid_score)
                else:
                    psnrs[m].append(rep[0, m].report.psnr_db)
    fid = {m: float(np.median(v)) for m, v in fids.items()}
    psnr = {m: float(np.median(v)) for m, v in psnrs.items()}
    holds = (fid["meg"] < fid["raw_feature"] < fid["centralized"]
             and psnr["raw_feature"] >= psnr["meg"])
    return {"fid": fid, "psnr": psnr, "holds": holds}


def allocator_gain(bundle, cfg):
    """Acceptance 09: PPO trained at the tightest budget with the ``ppo_*``
    settings of ``cfg``, against an even split on the config's frozen
    traces (100 in the desk preset), with the environment, traces and
    agent seed of ``megsim power`` at that budget. Returns the mean paired
    gain, the wins and losses, the one-sided sign test's p, whether it
    holds (gain > 0 and p < 0.05), the training history and the
    environment, whose budget audit acceptance 08 reads."""
    budget = min(cfg.power_budgets)
    env = experiments.power_env(bundle, cfg)
    frozen, select = experiments.power_traces(cfg, env.num_blocks)
    _, history, drl, even = power_rl.compare(
        env, cfg, budget, experiments.agent_seed(cfg, budget), frozen, select)
    diff = drl - even
    gain = float(np.mean(diff))
    wins, losses = int(np.sum(diff > 0)), int(np.sum(diff < 0))
    p_value = float(stats.binomtest(wins, wins + losses,
                                    alternative="greater").pvalue)
    return {"gain": gain, "wins": wins, "losses": losses,
            "p_value": p_value, "holds": gain > 0 and p_value < 0.05,
            "history": history, "env": env}


def saturation_gap(bundle, cfg):
    """mean(PPO - even split) reward at 30 dB on AWGN with a budget of 400,
    after 20 PPO rounds with the other ``ppo_*`` settings of ``cfg``, on
    30 traces; with power to spare every policy should score alike."""
    env_cfg = replace(cfg, power_rate=0.5, power_snr_db=30.0,
                      channel_kind="awgn", ppo_update_rounds=20)
    env = experiments.power_env(bundle, env_cfg)
    traces = ch.fading_gains(env.channel_kind, (30, env.num_blocks),
                             derive_seed(cfg.seed, "frozen_traces"))
    _, _, drl, even = power_rl.compare(
        env, env_cfg, 400.0, experiments.agent_seed(cfg, 400.0), traces)
    return float(np.mean(drl - even))


def parse_seeds(text):
    """``0-5`` or ``0,2,7-9`` -> a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="train the desk preset at each seed and judge the "
                    "paper's claims on every bundle")
    parser.add_argument("--seeds", type=parse_seeds, default="0-5",
                        help="training seeds, e.g. 0-5 or 0,2,4")
    parser.add_argument("--out", required=True, metavar="DIR",
                        help="bundles and claims.csv go here")
    args = parser.parse_args(argv)
    header = (["seed"] + [f"a06_fid_{m}" for m in MODES]
              + ["a06_psnr_raw_feature", "a06_psnr_meg", "a06_holds",
                 "a09_gain", "a09_wins", "a09_losses", "a09_p_value",
                 "a09_holds", "saturation_gap"])
    rows, failed = [], []
    for seed in args.seeds:
        cfg = replace(config.desk_config(), seed=seed,
                      out=args.out).validate()
        bundle = experiments.cmd_train(cfg).bundle
        a06 = low_snr_ordering(bundle, cfg)
        a09 = allocator_gain(bundle, cfg)
        rows.append([seed] + [a06["fid"][m] for m in MODES]
                    + [a06["psnr"]["raw_feature"], a06["psnr"]["meg"],
                       int(a06["holds"]), a09["gain"], a09["wins"],
                       a09["losses"], a09["p_value"], int(a09["holds"]),
                       saturation_gap(bundle, cfg)])
        print(", ".join(f"{k} {v:.4g}" for k, v in zip(header, rows[-1])),
              flush=True)
        if not (a06["holds"] and a09["holds"]):
            failed.append(seed)
    path = os.path.join(args.out, "claims.csv")
    write_csv(path, header, rows, comment=CLAIMS_SCHEMA)
    if failed:
        print(f"acceptance 06 or 09 fails at seeds {failed}", file=sys.stderr)
        return 1
    print(f"wrote {path}; acceptance 06 and 09 hold at every seed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
