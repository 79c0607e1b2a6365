"""The benchmark's workloads: closed-loop runs of one ``experiments.cmd_*``.

Every workload runs on the desk preset at ``jobs = 1``, one command after
the other in a single process, and takes the master seed as its only
input. Each run gets identical work: ``reset`` puts the output directory
and the process back into the same state before the timed call, and
``check`` verifies the outputs after it. Both sit outside the timed
region.

- ``train``: cold ``cmd_train`` into an empty bundle directory.
- ``sweep``: ``cmd_sweep`` on the default desk grid over a trained bundle.
- ``power``: ``cmd_power`` over a trained bundle at ``POWER_ROUNDS`` PPO
  rounds per budget, from a directory without frozen evaluation traces.

Quality numbers come from the run itself where the command produces them
and otherwise from one untimed probe on the same bundle: a ``cmd_sweep``
for ``fid_proxy_meg``/``psnr_db_meg`` and a short ``cmd_power`` for
``drl_fid_ratio``.
"""

import csv
import glob
import json
import math
import os
import shutil
from dataclasses import replace

from megsim import config, experiments, metrics
from megsim.util import sha256_file

WORKLOADS = ("train", "sweep", "power")
# end-to-end metrics measured in the workload's process; setup_s is
# measured by the parent across fresh processes
END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB",
                    "fid_proxy_meg": "score", "psnr_db_meg": "dB",
                    "drl_fid_ratio": "ratio"}
POWER_ROUNDS = 40
# the allocator probe on workloads that do not run cmd_power themselves
POWER_PROBE = {"power_budgets": (2.0,), "ppo_update_rounds": 10}


def make_config(workload, seed, out, overrides=None):
    """Desk preset for one workload; ``overrides`` are config attributes."""
    cfg = config.load_config(preset="desk",
                             overrides={"seed": seed, "out": out, "jobs": 1})
    if workload == "power":
        cfg = replace(cfg, ppo_update_rounds=POWER_ROUNDS)
    return replace(cfg, **(overrides or {})).validate()


def needs_bundle(workload):
    return workload != "train"


def reset(workload, cfg, index):
    """Untimed state reset before run ``index``; returns the run's config."""
    if workload == "train":
        out = os.path.join(cfg.out, f"train-{index}")
        shutil.rmtree(out, ignore_errors=True)
        return replace(cfg, out=out)
    # a bundle cached by the previous run would skip one load_bundle
    experiments._WORKER_CACHE.clear()
    if workload == "power":
        _remove_eval_traces(cfg)
    return cfg


def _remove_eval_traces(cfg):
    # the first cmd_power writes the frozen traces; later ones read them
    for path in glob.glob(os.path.join(cfg.out, "eval_traces_*.csv")):
        os.remove(path)


def command(workload, cfg):
    """The timed call."""
    if workload == "train":
        return experiments.cmd_train(cfg)
    if workload == "sweep":
        return experiments.cmd_sweep(cfg)
    return experiments.cmd_power(cfg)


def check(workload, cfg, result):
    """Problems found in one run's outputs; an empty list means correct."""
    return {"train": _check_train, "sweep": _check_sweep,
            "power": _check_power}[workload](cfg, result)


def _check_train(cfg, result):
    problems = [f"cold run: {stage} {action}"
                for stage, action in sorted(result.actions.items())
                if action != "trained"]
    again = experiments.cmd_train(cfg)
    problems += [f"second run: {stage} {action}"
                 for stage, action in sorted(again.actions.items())
                 if action != "cached"]
    with open(result.manifest_path) as fh:
        files = json.load(fh)["files"]
    expected = {"ae_encoder.bin", "ae_decoder.bin", "denoiser.bin"} | {
        f"codec_r{rate!r}.bin" for rate in cfg.codec_rates}
    if set(files) != expected:
        problems.append(f"manifest lists {sorted(files)}")
    problems += [f"{name}: SHA-256 differs from the manifest"
                 for name, digest in sorted(files.items())
                 if sha256_file(os.path.join(result.bundle_dir, name))
                 != digest]
    return problems


def _check_sweep(cfg, result):
    cells = len(cfg.codec_rates) * len(cfg.sweep_snrs_db) * cfg.sweep_trials
    rows = result["rows"]
    problems = []
    if len(rows) != 3 * cells:
        problems.append(f"{len(rows)} rows for {cells} cells x 3 modes")
    for mode, rate, snr, trial, psnr, fid, mse, symbols, _ in rows:
        expected = metrics.symbol_count(mode, cfg.image_shape, cfg.downsample,
                                        rate, cfg.latent_channels)
        if symbols != expected:
            problems.append(f"{mode} rate {rate} snr {snr} trial {trial}: "
                            f"{symbols} symbols, expected {expected}")
        if not all(math.isfinite(v) for v in (psnr, fid, mse)):
            problems.append(f"{mode} snr {snr} trial {trial}: non-finite "
                            f"quality ({psnr}, {fid}, {mse})")
    with open(result["sweep_csv"]) as fh:
        written = sum(1 for line in fh if not line.startswith("#")) - 1
    if written != len(rows):
        problems.append(f"sweep.csv holds {written} rows, not {len(rows)}")
    return problems


def _check_power(cfg, result):
    rows = _power_summary(result["summary_csv"])
    problems = []
    if len(rows) != len(cfg.power_budgets):
        problems.append(f"{len(rows)} summary rows for "
                        f"{len(cfg.power_budgets)} budgets")
    for row in rows:
        if int(row["n"]) != cfg.power_eval_traces:
            problems.append(f"p_max {row['p_max']}: n = {row['n']}, "
                            f"expected {cfg.power_eval_traces}")
        values = [float(row[k]) for k in ("p_max", "uniform_fid_mean",
                                          "drl_fid_mean", "drl_fid_std")]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"p_max {row['p_max']}: non-finite {values}")
    return problems


def _power_summary(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))


def _sweep_quality(rows):
    meg = [row for row in rows if row[0] == "meg"]
    return {"fid_proxy_meg": math.fsum(row[5] for row in meg) / len(meg),
            "psnr_db_meg": math.fsum(row[4] for row in meg) / len(meg)}


def _allocator_quality(summary_csv):
    rows = _power_summary(summary_csv)
    ratios = [float(row["drl_fid_mean"]) / float(row["uniform_fid_mean"])
              for row in rows]
    return {"drl_fid_ratio": math.fsum(ratios) / len(ratios)}


def run_quality(workload, result):
    """Quality metrics the timed command produced itself."""
    if workload == "sweep":
        return _sweep_quality(result["rows"])
    if workload == "power":
        return _allocator_quality(result["summary_csv"])
    return {}


def probe_quality(workload, cfg):
    """Untimed quality probes for the metrics the workload does not make.

    ``cfg`` is the last run's config, so the probes read its bundle.
    """
    quality = {}
    if workload != "sweep":
        experiments._WORKER_CACHE.clear()
        quality.update(_sweep_quality(experiments.cmd_sweep(cfg)["rows"]))
    if workload != "power":
        probe = replace(cfg, **POWER_PROBE)
        _remove_eval_traces(probe)
        quality.update(_allocator_quality(
            experiments.cmd_power(probe)["summary_csv"]))
    return quality


def prepare(workload, cfg):
    """Train the shared bundle for workloads that read one."""
    if needs_bundle(workload):
        experiments.cmd_train(cfg)


def ready(workload, cfg):
    """What a process must do before it can serve the workload."""
    if needs_bundle(workload):
        experiments.load_bundle(cfg)
