"""Experiment orchestration behind the command-line interface.

``cmd_train`` builds and caches the model bundle, ``cmd_sweep`` produces
the quality-versus-SNR comparison of the three transmission modes under
paired fading, ``cmd_power`` trains and scores the power allocator, and
``cmd_table`` prints the overhead/complexity arithmetic. Every artifact
is keyed by a hash of the configuration sections it depends on, so reruns
with an unchanged config never retrain.
"""

import csv
import json
import os
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from . import corpus, genmodel, metrics, nn, plotting, power_rl, seedcodec
from .config import ExperimentConfig, config_hash
from .errors import BundleError
from .protocol import ModelBundle, RunSpec, run_end_to_end
from .util import as_rng, derive_seed, sha256_file

SWEEP_SCHEMA = "megsim sweep v1"
POWER_SCHEMA = "megsim power v1"
CURVE_SCHEMA = "megsim curve v1"

_AE_SECTIONS = ("image", "corpus", "autoencoder")
_DN_SECTIONS = _AE_SECTIONS + ("diffusion", "denoiser")
_CODEC_SECTIONS = _DN_SECTIONS + ("codec", "channel")


def _codec_hash(cfg, rate):
    # a codec depends on its own rate, not on which other rates exist
    return config_hash(cfg, _CODEC_SECTIONS, extra=f"rate={rate!r}",
                       drop_keys=("rates",))


def bundle_dir(cfg: ExperimentConfig) -> str:
    # keyed on the generator stages only, so codec-list edits reuse the
    # cached autoencoder and denoiser and train just the new codecs
    return os.path.join(cfg.out, f"bundle-{config_hash(cfg, _DN_SECTIONS)}")


def _codec_filename(rate):
    return f"codec_r{rate!r}.bin"


def _check_trainable(cfg):
    if cfg.preset == "paper-arithmetic":
        raise ValueError(
            "the paper-arithmetic preset is for symbol/parameter arithmetic "
            "only; use --preset desk (or a config file) to train models")


# ---------------------------------------------------------------------------
# training and bundle loading

@dataclass
class TrainResult:
    bundle: ModelBundle
    bundle_dir: str
    actions: dict
    manifest_path: str


def _cache_ok(path, dep_hash, digests=None):
    """Whether ``path`` is a readable network trained for ``dep_hash``
    with the SHA-256 its ``digests`` entry (previous manifest) records."""
    if not os.path.exists(path):
        return False
    try:
        _, meta = nn.load_network(path)
    except (ValueError, KeyError, struct.error):
        return False     # a damaged file is a miss and gets retrained
    digest = (digests or {}).get(os.path.basename(path))
    return meta.get("dep_hash") == dep_hash and \
        digest in (None, sha256_file(path))


def _build_corpus(cfg):
    return corpus.build_corpus(cfg.corpus_size, *cfg.image_shape,
                               seed=derive_seed(cfg.seed, 9))


def _generated_latents(cfg, bundle_parts):
    """Latent dataset produced by the deployed generator itself."""
    pair, denoiser, schedule = bundle_parts
    prompts, _ = _build_corpus(cfg)
    latents = []
    for i, prompt in enumerate(prompts):
        noise = as_rng(derive_seed(cfg.seed, 30, i)) \
            .standard_normal(cfg.latent_shape).astype(np.float32)
        latents.append(genmodel.generate_latent(denoiser, prompt, noise,
                                                schedule))
    return np.stack(latents)


def cmd_train(cfg: ExperimentConfig) -> TrainResult:
    """Train autoencoder, then denoiser, then one codec per rate.

    Each stage is cached on disk keyed by the hash of the config sections
    it depends on; deleting one file retrains only that stage.
    """
    cfg.validate()
    _check_trainable(cfg)
    out = bundle_dir(cfg)
    os.makedirs(out, exist_ok=True)
    actions = {}
    manifest_path = os.path.join(out, "manifest.json")
    digests = {}
    if os.path.exists(manifest_path):
        with open(manifest_path) as fh:
            digests = json.load(fh)["files"]

    ae_hash = config_hash(cfg, _AE_SECTIONS)
    enc_path = os.path.join(out, "ae_encoder.bin")
    dec_path = os.path.join(out, "ae_decoder.bin")
    if _cache_ok(enc_path, ae_hash, digests) \
            and _cache_ok(dec_path, ae_hash, digests):
        actions["autoencoder"] = "cached"
        pair = _load_autoencoder(cfg, out)
    else:
        prompts, images = _build_corpus(cfg)
        ae_cfg = genmodel.AutoencoderTrainConfig(
            steps=cfg.ae_steps, batch_size=cfg.ae_batch,
            learning_rate=cfg.ae_lr, center_penalty=cfg.ae_center_penalty,
            hidden=cfg.ae_hidden, seed=derive_seed(cfg.seed, 10))
        pair, _ = genmodel.train_autoencoder(images, cfg.image_shape,
                                             cfg.latent_shape, ae_cfg)
        meta = {"dep_hash": ae_hash, "image_shape": list(cfg.image_shape),
                "latent_shape": list(cfg.latent_shape)}
        nn.save_network(enc_path, pair.encoder, extra=meta)
        nn.save_network(dec_path, pair.decoder, extra=meta)
        actions["autoencoder"] = "trained"

    schedule = genmodel.make_schedule(cfg.diffusion_steps)
    dn_hash = config_hash(cfg, _DN_SECTIONS)
    dn_path = os.path.join(out, "denoiser.bin")
    if _cache_ok(dn_path, dn_hash, digests):
        actions["denoiser"] = "cached"
        denoiser = _load_denoiser(cfg, out)
    else:
        prompts, images = _build_corpus(cfg)
        dn_cfg = genmodel.DenoiserTrainConfig(
            steps=cfg.dn_steps, batch_size=cfg.dn_batch,
            learning_rate=cfg.dn_lr, hidden=cfg.dn_hidden,
            time_dim=cfg.time_dim, seed=derive_seed(cfg.seed, 11))
        denoiser, _ = genmodel.train_denoiser(
            pair, list(zip(prompts, images)), schedule, dn_cfg)
        nn.save_network(dn_path, denoiser.net,
                        extra={"dep_hash": dn_hash,
                               "latent_shape": list(cfg.latent_shape)})
        actions["denoiser"] = "trained"

    codecs = {}
    latents = None
    for k, rate in enumerate(cfg.codec_rates):
        codec_hash = _codec_hash(cfg, rate)
        path = os.path.join(out, _codec_filename(rate))
        if _cache_ok(path, codec_hash, digests):
            actions[f"codec[{rate!r}]"] = "cached"
            codecs[rate] = _load_codec(cfg, out, rate)
            continue
        if latents is None:
            latents = _generated_latents(cfg, (pair, denoiser, schedule))
        cc = seedcodec.CodecTrainConfig(
            epochs=cfg.codec_epochs, learning_rate=cfg.codec_lr,
            batch_size=cfg.codec_batch, train_snr_db=cfg.codec_train_snr_db,
            channel_kind=cfg.channel_kind, hidden=cfg.codec_hidden,
            seed=derive_seed(cfg.seed, 12, k))
        codec, _ = seedcodec.train_codec(latents, cc, rate=rate,
                                         latent_shape=cfg.latent_shape)
        codec.save(path, extra={"dep_hash": codec_hash,
                                "corpus_seed": derive_seed(cfg.seed, 9)})
        codecs[rate] = codec
        actions[f"codec[{rate!r}]"] = "trained"

    files = sorted(f for f in os.listdir(out) if f.endswith(".bin"))
    manifest = {"schema": 1, "config_hash": config_hash(cfg),
                "bundle_hash": config_hash(cfg, _CODEC_SECTIONS),
                "files": {f: sha256_file(os.path.join(out, f))
                          for f in files}}
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)

    bundle = ModelBundle(pair, denoiser, schedule, codecs,
                         metrics.FeatureExtractor(cfg.pixel_count),
                         cfg.image_shape, cfg.latent_shape, cfg.downsample,
                         config_hash(cfg))
    return TrainResult(bundle, out, actions, manifest_path)


def _load_checked(net, out, name, dep_hash):
    """Fill ``net`` from the bundle file ``name``, refusing a file trained
    for another config."""
    path = os.path.join(out, name)
    if nn.load_into(net, path).get("dep_hash") != dep_hash:
        raise BundleError(
            f"{path} was trained for a different config; run `megsim "
            f"train` with this config to retrain it")


def _load_autoencoder(cfg, out):
    pair = genmodel.AutoencoderPair(cfg.image_shape, cfg.latent_shape,
                                    cfg.ae_hidden)
    ae_hash = config_hash(cfg, _AE_SECTIONS)
    _load_checked(pair.encoder, out, "ae_encoder.bin", ae_hash)
    _load_checked(pair.decoder, out, "ae_decoder.bin", ae_hash)
    return pair


def _load_denoiser(cfg, out):
    denoiser = genmodel.Denoiser(cfg.latent_shape, cfg.dn_hidden,
                                 cfg.time_dim, cfg.max_tokens, cfg.embed_dim)
    _load_checked(denoiser.net, out, "denoiser.bin",
                  config_hash(cfg, _DN_SECTIONS))
    return denoiser


def _load_codec(cfg, out, rate):
    codec = seedcodec.CodecPair(cfg.latent_shape, rate, cfg.codec_hidden,
                                cfg.codec_train_snr_db)
    _load_checked(nn.Network(codec._layers()), out, _codec_filename(rate),
                  _codec_hash(cfg, rate))
    return codec


def load_bundle(cfg: ExperimentConfig) -> ModelBundle:
    """Load a previously trained bundle or explain how to create one.

    Every file must have been trained for the current config (its stored
    ``dep_hash``); a stale one raises :class:`BundleError`.
    """
    cfg.validate()
    _check_trainable(cfg)
    out = bundle_dir(cfg)
    needed = ["ae_encoder.bin", "ae_decoder.bin", "denoiser.bin"] + \
        [_codec_filename(r) for r in cfg.codec_rates]
    missing = [f for f in needed
               if not os.path.exists(os.path.join(out, f))]
    if missing:
        raise FileNotFoundError(
            f"model bundle incomplete under {out} (missing {missing}); "
            f"run `megsim train` with this config first")
    return ModelBundle(_load_autoencoder(cfg, out), _load_denoiser(cfg, out),
                       genmodel.make_schedule(cfg.diffusion_steps),
                       {r: _load_codec(cfg, out, r) for r in cfg.codec_rates},
                       metrics.FeatureExtractor(cfg.pixel_count),
                       cfg.image_shape, cfg.latent_shape, cfg.downsample,
                       config_hash(cfg))


# ---------------------------------------------------------------------------
# sweep

_WORKER_CACHE = {}


def _eval_prompt_set(cfg):
    return corpus.sample_prompts(cfg.eval_prompts, derive_seed(cfg.seed, 20))


def _sweep_cell(cfg, cell):
    """One paired trial; returns CSV rows for every mode."""
    index, rate, snr_db, trial = cell
    key = bundle_dir(cfg)
    if key not in _WORKER_CACHE:
        _WORKER_CACHE[key] = load_bundle(cfg)
    bundle = _WORKER_CACHE[key]
    cell_seed = derive_seed(cfg.seed, 100, index)
    spec = RunSpec(_eval_prompt_set(cfg), rate, snr_db, cfg.channel_kind,
                   cfg.block_length, cell_seed, config_hash=config_hash(cfg))
    report = run_end_to_end(bundle, spec)
    rows = []
    for mode in spec.modes:
        r = report[mode].report
        rows.append((mode, rate, snr_db, trial, r.psnr_db, r.fid_score,
                     r.mse, r.symbols, cell_seed))
    return rows


def cmd_sweep(cfg: ExperimentConfig):
    """Quality-versus-SNR grid over (mode, rate, SNR, trial).

    At the paper-arithmetic preset only the symbol column is filled; no
    full-scale model exists to simulate. Returns the output paths.
    """
    cfg.validate()
    os.makedirs(cfg.out, exist_ok=True)
    sweep_path = os.path.join(cfg.out, "sweep.csv")
    rows = []
    if cfg.preset == "paper-arithmetic":
        for rate in cfg.codec_rates:
            for snr in cfg.sweep_snrs_db:
                for trial in range(cfg.sweep_trials):
                    for mode in ("centralized", "raw_feature", "meg"):
                        symbols = metrics.symbol_count(
                            mode, cfg.image_shape, cfg.downsample, rate,
                            cfg.latent_channels)
                        rows.append((mode, rate, snr, trial, "", "", "",
                                     symbols, cfg.seed))
    else:
        cells = [(i, rate, snr, trial)
                 for i, (rate, snr, trial) in enumerate(
                     (r, s, t) for r in cfg.codec_rates
                     for s in cfg.sweep_snrs_db
                     for t in range(cfg.sweep_trials))]
        # fails fast with the instructive error; workers reuse the bundle
        _WORKER_CACHE[bundle_dir(cfg)] = load_bundle(cfg)
        if cfg.jobs > 1:
            with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
                for cell_rows in pool.map(_sweep_cell, [cfg] * len(cells),
                                          cells):
                    rows.extend(cell_rows)
        else:
            for cell in cells:
                rows.extend(_sweep_cell(cfg, cell))
    rows.sort(key=lambda r: (r[1], r[2], r[3], r[0]))
    chash = config_hash(cfg)
    with open(sweep_path, "w", newline="") as fh:
        fh.write(f"# {SWEEP_SCHEMA}\n")
        writer = csv.writer(fh)
        writer.writerow(["config_hash", "mode", "f_c", "snr_db", "trial",
                         "psnr_db", "fid_proxy", "mse", "symbols", "seed"])
        for row in rows:
            writer.writerow([chash, row[0], repr(float(row[1])),
                             repr(float(row[2])), row[3],
                             _fmt(row[4]), _fmt(row[5]), _fmt(row[6]),
                             row[7], row[8]])
    plot_paths = [] if cfg.preset == "paper-arithmetic" \
        else _sweep_plots(cfg, rows)
    return {"sweep_csv": sweep_path, "plots": plot_paths, "rows": rows}


def _fmt(value):
    if value == "":
        return ""
    return repr(float(value))


def _sweep_plots(cfg, rows):
    paths = []
    for rate in cfg.codec_rates:
        for col, label in ((4, "psnr_db"), (5, "fid_proxy")):
            series = {}
            data_path = os.path.join(cfg.out, f"plot_{label}_r{rate!r}.csv")
            with open(data_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["series", "x", "y"])
                for mode in ("centralized", "raw_feature", "meg"):
                    xs, ys = [], []
                    for snr in cfg.sweep_snrs_db:
                        vals = [r[col] for r in rows
                                if r[0] == mode and r[1] == rate
                                and r[2] == snr]
                        med = float(np.median(vals))
                        xs.append(snr)
                        ys.append(med)
                        writer.writerow([mode, repr(float(snr)), repr(med)])
                    series[mode] = (xs, ys)
            svg_path = data_path[:-4] + ".svg"
            plotting.write_line_chart(
                svg_path, series, title=f"{label} vs SNR (rate {rate})",
                xlabel="SNR (dB)", ylabel=label)
            paths.extend([data_path, svg_path])
    return paths


# ---------------------------------------------------------------------------
# power allocation experiments

def cmd_power(cfg: ExperimentConfig):
    """Train the allocator per budget and compare against even split.

    Emits one summary row per budget plus a training-curve CSV, all from
    the same frozen trace set.
    """
    cfg.validate()
    _check_trainable(cfg)
    bundle = load_bundle(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    prompts = corpus.sample_prompts(cfg.power_prompts,
                                    derive_seed(cfg.seed, 21))
    # blocks per episode, as SeedTransmissionEnv.num_blocks counts them
    num_blocks = -(-metrics.symbol_count(
        "meg", cfg.image_shape, cfg.downsample, cfg.power_rate,
        cfg.latent_channels) // cfg.block_length)

    trace_path = os.path.join(
        cfg.out, f"eval_traces_{cfg.power_eval_traces}x{num_blocks}.csv")
    if not os.path.exists(trace_path):
        rng = as_rng(derive_seed(cfg.seed, 23))
        model = ch.ChannelModel(cfg.channel_kind, cfg.block_length)
        traces = [ch.sample_fading_trace(model, num_blocks, rng)
                  for _ in range(cfg.power_eval_traces)]
        ch.export_trace_set(traces, trace_path)
    frozen = ch.import_trace_set(trace_path)

    select_rng = as_rng(derive_seed(cfg.seed, 24))
    model = ch.ChannelModel(cfg.channel_kind, cfg.block_length)
    select_traces = [ch.sample_fading_trace(model, num_blocks, select_rng)
                     for _ in range(20)]

    chash = config_hash(cfg)
    summary_rows = []
    curve_paths = []
    agent_paths = []
    for b_idx, budget in enumerate(cfg.power_budgets):
        env = power_rl.SeedTransmissionEnv(
            bundle, prompts, cfg.power_rate, cfg.power_snr_db,
            p_max=budget, channel_kind=cfg.channel_kind,
            block_length=cfg.block_length,
            seed=derive_seed(cfg.seed, 25, b_idx))
        ppo_cfg = power_rl.PpoConfig(
            clip_range=cfg.ppo_clip, value_coef=cfg.ppo_value_coef,
            entropy_coef=cfg.ppo_entropy_coef, gamma=cfg.ppo_gamma,
            learning_rate=cfg.ppo_lr, epochs=cfg.ppo_epochs,
            episodes_per_batch=cfg.ppo_episodes_per_batch,
            update_rounds=cfg.ppo_update_rounds, hidden=cfg.ppo_hidden,
            seed=derive_seed(cfg.seed, 26, b_idx))
        agent, history = power_rl.train_agent(env, ppo_cfg, select_traces)
        agent_path = os.path.join(cfg.out, f"agent_p{budget!r}.bin")
        agent.save(agent_path, extra={"config_hash": chash,
                                      "p_max": budget})
        agent_paths.append(agent_path)

        curve_path = os.path.join(cfg.out, f"curve_p{budget!r}.csv")
        with open(curve_path, "w", newline="") as fh:
            fh.write(f"# {CURVE_SCHEMA}\n")
            writer = csv.writer(fh)
            writer.writerow(["config_hash", "episode", "mean_reward",
                             "surrogate", "value_loss", "entropy"])
            for row in history:
                writer.writerow([chash, row[0]]
                                + [repr(float(v)) for v in row[1:]])
        curve_paths.append(curve_path)

        drl = power_rl.evaluate(agent, env, frozen)
        uniform = power_rl.evaluate(power_rl.uniform_policy(num_blocks),
                                    env, frozen)
        summary_rows.append((budget, float(np.mean(-uniform)),
                             float(np.mean(-drl)), float(np.std(-drl)),
                             len(frozen)))

    summary_path = os.path.join(cfg.out, "power_summary.csv")
    with open(summary_path, "w", newline="") as fh:
        fh.write(f"# {POWER_SCHEMA}\n")
        writer = csv.writer(fh)
        writer.writerow(["config_hash", "p_max", "uniform_fid_mean",
                         "drl_fid_mean", "drl_fid_std", "n"])
        for row in summary_rows:
            writer.writerow([chash, repr(float(row[0]))]
                            + [repr(float(v)) for v in row[1:4]]
                            + [row[4]])
    xs = [r[0] for r in summary_rows]
    plotting.write_line_chart(
        os.path.join(cfg.out, "power_summary.svg"),
        {"uniform": (xs, [r[1] for r in summary_rows]),
         "drl": (xs, [r[2] for r in summary_rows])},
        title="Frechet proxy vs power budget", xlabel="p_max",
        ylabel="fid_proxy")
    return {"summary_csv": summary_path, "curves": curve_paths,
            "agents": agent_paths, "traces_csv": trace_path,
            "rows": summary_rows}


# ---------------------------------------------------------------------------
# arithmetic table and single-shot eval

@dataclass
class TableReport:
    symbol_rows: list        # (label, symbols)
    param_rows: list         # (model, layer label, params or None)
    total_params: int
    text: str


def cmd_table(cfg: ExperimentConfig) -> TableReport:
    """Transmission overhead and codec complexity, from metadata alone."""
    cfg.validate()
    symbol_rows = [
        ("centralized", metrics.symbol_count("centralized", cfg.image_shape,
                                             cfg.downsample)),
        ("raw_feature", metrics.symbol_count("raw_feature", cfg.image_shape,
                                             cfg.downsample,
                                             latent_channels=cfg.latent_channels)),
    ]
    for rate in cfg.codec_rates:
        symbol_rows.append(
            (f"meg f_c={rate!r}",
             metrics.symbol_count("meg", cfg.image_shape, cfg.downsample,
                                  rate, cfg.latent_channels)))
    ref_rate = 0.5 if 0.5 in cfg.codec_rates else cfg.codec_rates[0]
    seed_len = seedcodec.seed_length(cfg.latent_size, ref_rate)
    enc_rows, dec_rows = seedcodec.codec_descriptors(
        cfg.latent_size, seed_len, cfg.codec_hidden)
    param_rows = []
    total = 0
    for model, rows in (("encoder", enc_rows), ("decoder", dec_rows)):
        for label, desc in rows:
            count = nn.parameter_count([desc])
            param_rows.append((model, label, count if count else None))
            total += count

    lines = ["transmitted symbols per generation"]
    for label, count in symbol_rows:
        lines.append(f"  {label:<24} {count:>12,}")
    lines.append(f"codec layers at rate {ref_rate!r}")
    for model, label, count in param_rows:
        shown = f"{count:,}" if count else "-"
        lines.append(f"  {model:<8} {label:<28} {shown:>12}")
    lines.append(f"  {'total':<8} {'':<28} {total:>12,}")
    return TableReport(symbol_rows, param_rows, total, "\n".join(lines))


def cmd_eval(cfg: ExperimentConfig):
    """One end-to-end generation at the configured prompt/SNR/rate."""
    cfg.validate()
    bundle = load_bundle(cfg)
    prompts = [cfg.eval_prompt] + _eval_prompt_set(cfg)[:cfg.eval_prompts - 1]
    spec = RunSpec(prompts, cfg.eval_rate, cfg.eval_snr_db, cfg.channel_kind,
                   cfg.block_length, derive_seed(cfg.seed, 40),
                   config_hash=config_hash(cfg))
    report = run_end_to_end(bundle, spec)
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "eval.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "psnr_db", "fid_proxy", "mse", "symbols",
                         "config_hash"])
        for mode in spec.modes:
            r = report[mode].report
            writer.writerow([mode, repr(r.psnr_db), repr(r.fid_score),
                             repr(r.mse), r.symbols, r.config_hash])
    return {"eval_csv": path, "report": report}
