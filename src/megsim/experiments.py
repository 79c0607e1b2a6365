"""Experiment orchestration behind the command-line interface.

``cmd_train`` builds and caches the model bundle, ``cmd_sweep`` produces
the quality-versus-SNR comparison of the three transmission modes under
paired fading, ``cmd_power`` trains and scores the power allocator, and
``cmd_table`` prints the overhead/complexity arithmetic. Every artifact
is keyed by a hash of the configuration sections it depends on, so reruns
with an unchanged config never retrain.
"""

import itertools
import json
import os
import statistics
import struct
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from . import corpus, genmodel, metrics, nn, plotting, power_rl, seedcodec
from .config import ExperimentConfig, config_hash
from .errors import BundleError, ConfigError
from .protocol import (ModelBundle, RunSpec, rate_fixed, run_end_to_end,
                       serve_cells)
from .util import (derive_seed, derive_seeds, generators, replace_file,
                   sha256_file, write_csv)

SWEEP_SCHEMA = "megsim sweep v1"
POWER_SCHEMA = "megsim power v1"
CURVE_SCHEMA = "megsim curve v1"

_AE_SECTIONS = ("image", "corpus", "autoencoder")
_DN_SECTIONS = _AE_SECTIONS + ("diffusion", "denoiser")
_CODEC_SECTIONS = _DN_SECTIONS + ("codec", "channel")


def _codec_hash(cfg, rate):
    # a codec depends on its own rate and on its position in [codec] rates,
    # which seeds its training, not on which other rates exist
    k = cfg.codec_rates.index(rate)
    return config_hash(cfg, _CODEC_SECTIONS,
                       extra=f"rate={rate!r} position={k}",
                       drop_keys=("rates",))


def bundle_dir(cfg: ExperimentConfig) -> str:
    # keyed on the generator stages only, so codec-list edits reuse the
    # cached autoencoder and denoiser and train just the new codecs
    return os.path.join(cfg.out, f"bundle-{config_hash(cfg, _DN_SECTIONS)}")


def _codec_filename(rate):
    return f"codec_r{rate!r}.bin"


def _check_trainable(cfg):
    if cfg.preset == "paper-arithmetic":
        raise ConfigError(
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
    losses: dict        # retrained stage -> its loss history


def _bundle_files(cfg):
    """Each bundle file -> (the stage that trains it, the ``dep_hash`` it
    must carry), in training order."""
    ae_hash = config_hash(cfg, _AE_SECTIONS)
    files = {"ae_encoder.bin": ("autoencoder", ae_hash),
             "ae_decoder.bin": ("autoencoder", ae_hash),
             "denoiser.bin": ("denoiser", config_hash(cfg, _DN_SECTIONS))}
    for rate in cfg.codec_rates:
        files[_codec_filename(rate)] = (f"codec[{rate!r}]",
                                        _codec_hash(cfg, rate))
    return files


def _manifest_digests(out):
    """File -> SHA-256 in ``out``'s manifest; empty if it is unreadable."""
    try:
        with open(os.path.join(out, "manifest.json")) as fh:
            return dict(json.load(fh)["files"])
    except (OSError, ValueError, KeyError, TypeError):
        return {}


def bundle_status(cfg: ExperimentConfig) -> dict:
    """Each bundle file the config needs -> ``"ok"``, ``"missing"``,
    ``"stale"`` (intact, but its ``dep_hash`` names another config) or
    ``"corrupt"`` (unreadable, or its SHA-256 is not the one
    ``manifest.json`` records; an unreadable manifest verifies nothing)."""
    out = bundle_dir(cfg)
    digests = _manifest_digests(out)
    status = {}
    for name, (_, dep_hash) in _bundle_files(cfg).items():
        path = os.path.join(out, name)
        if not os.path.exists(path):
            status[name] = "missing"
            continue
        try:
            intact = digests.get(name) == sha256_file(path)
            fresh = nn.network_extra(path)["dep_hash"] == dep_hash
        except (OSError, ValueError, KeyError, struct.error):
            intact = fresh = False
        status[name] = ("ok" if fresh else "stale") if intact else "corrupt"
    return status


def _load(cfg, skip=(), encoder=False):
    """The config's bundle, built without rng draws and filled from its
    files; models of the stages in ``skip`` stay None, and the pixel
    encoder, which only training runs, is built only with ``encoder``."""
    pair = denoiser = None
    codecs = dict.fromkeys(cfg.codec_rates)
    nets = {}
    if "autoencoder" not in skip:
        pair = genmodel.AutoencoderPair(cfg, encoder=encoder)
        nets["ae_decoder.bin"] = pair.decoder
        if encoder:
            nets["ae_encoder.bin"] = pair.encoder
    if "denoiser" not in skip:
        denoiser = genmodel.Denoiser(cfg)
        nets["denoiser.bin"] = denoiser.net
    for rate in codecs:
        if f"codec[{rate!r}]" not in skip:
            codecs[rate] = seedcodec.CodecPair(cfg, rate)
            nets[_codec_filename(rate)] = codecs[rate].net
    for name, net in nets.items():
        nn.load_network(os.path.join(bundle_dir(cfg), name), net)
    return ModelBundle(pair, denoiser, codecs,
                       metrics.FeatureExtractor(cfg.pixel_count))


def _build_corpus(cfg):
    return corpus.build_corpus(cfg.corpus_size, *cfg.image_shape,
                               seed=derive_seed(cfg.seed, "corpus"))


def _generated_latents(cfg, bundle, prompts):
    """Latent dataset produced by the deployed generator itself."""
    noise = np.stack([rng.standard_normal(cfg.latent_shape).astype(np.float32)
                      for rng in generators(derive_seeds(
                          cfg.seed, "codec_latents",
                          indices=range(len(prompts))))])
    return genmodel.generate_latent(bundle.denoiser, prompts, noise)


def cmd_train(cfg: ExperimentConfig) -> TrainResult:
    """Train autoencoder, then denoiser, then one codec per rate.

    Each stage is cached on disk keyed by the hash of the config sections
    it depends on; a stage is retrained exactly when one of its files is
    not ``"ok"`` in :func:`bundle_status`.
    """
    _check_trainable(cfg)
    out = bundle_dir(cfg)
    os.makedirs(out, exist_ok=True)
    files = _bundle_files(cfg)
    status = bundle_status(cfg)
    retrain = {stage for name, (stage, _) in files.items()
               if status[name] != "ok"}
    bundle = _load(cfg, skip=retrain, encoder=True)
    losses = {}
    # every stage trains on the corpus or on its prompts
    prompts, images = _build_corpus(cfg) if retrain else (None, None)

    if "autoencoder" in retrain:
        pair, losses["autoencoder"] = genmodel.train_autoencoder(
            images, cfg, derive_seed(cfg.seed, "autoencoder"))
        bundle.autoencoder = pair
        meta = {"dep_hash": files["ae_encoder.bin"][1],
                "image_shape": list(cfg.image_shape),
                "latent_shape": list(cfg.latent_shape)}
        for name, net in (("ae_encoder.bin", pair.encoder),
                          ("ae_decoder.bin", pair.decoder)):
            nn.save_network(os.path.join(out, name), net, extra=meta)

    if "denoiser" in retrain:
        bundle.denoiser, losses["denoiser"] = genmodel.train_denoiser(
            bundle.autoencoder, list(zip(prompts, images)), cfg,
            derive_seed(cfg.seed, "denoiser"))
        nn.save_network(os.path.join(out, "denoiser.bin"),
                        bundle.denoiser.net,
                        extra={"dep_hash": files["denoiser.bin"][1],
                               "latent_shape": list(cfg.latent_shape)})

    latents = None
    for k, rate in enumerate(cfg.codec_rates):
        stage = f"codec[{rate!r}]"
        if stage not in retrain:
            continue
        if latents is None:
            latents = _generated_latents(cfg, bundle, prompts)
        codec, losses[stage] = seedcodec.train_codec(
            latents, cfg, rate, derive_seed(cfg.seed, "codec", k))
        name = _codec_filename(rate)
        codec.save(os.path.join(out, name),
                   extra={"dep_hash": files[name][1],
                          "corpus_seed": derive_seed(cfg.seed, "corpus")})
        bundle.codecs[rate] = codec

    digests = _manifest_digests(out)
    manifest = {"schema": 1, "config_hash": config_hash(cfg),
                "bundle_hash": config_hash(cfg, _CODEC_SECTIONS),
                "files": {f: sha256_file(os.path.join(out, f))
                          if f not in files or files[f][0] in retrain
                          else digests[f]
                          for f in os.listdir(out) if f.endswith(".bin")}}
    manifest_path = os.path.join(out, "manifest.json")
    with replace_file(manifest_path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    actions = {stage: "trained" if stage in retrain else "cached"
               for stage, _ in files.values()}
    return TrainResult(bundle, out, actions, manifest_path, losses)


def load_bundle(cfg: ExperimentConfig) -> ModelBundle:
    """Load a previously trained bundle or explain how to create one.

    Every file must be ``"ok"`` in :func:`bundle_status`. Otherwise this
    raises one error naming each other file and its status:
    ``FileNotFoundError`` when one is missing, else :class:`BundleError`.
    The encoder file is verified like every other, but its network is not
    built: ``sweep``, ``eval`` and ``power`` run only the decoder.
    """
    _check_trainable(cfg)
    status = bundle_status(cfg)
    bad = ", ".join(f"{name} {s}" for name, s in status.items() if s != "ok")
    if bad:
        error = FileNotFoundError if "missing" in status.values() \
            else BundleError
        raise error(f"model bundle under {bundle_dir(cfg)} is not usable "
                    f"({bad}); run `megsim train` with this config to "
                    f"retrain it")
    return _load(cfg)


# ---------------------------------------------------------------------------
# sweep

# sweeps run in the calling process; kept for callers that still clear it
_WORKER_CACHE = {}
# sweep cells received per run_end_to_end call, set by peak RSS: a desk
# sweep peaks at 46.0 MB one cell per call, 46.5 MB at 4 and 59.2 MB with
# all 25 cells in one chunk
SWEEP_CHUNK = 4
# sweep cells of one rate served per sampler batch (serve_cells), set by
# the sampler's cost per cell of 16 prompts: 1.19 ms alone, 0.61 ms at 4
# cells and 0.36 ms from 16 to 64, then 0.41 ms at 100; a 100-cell desk
# grid peaks at 46.0 MB at 4 cells per batch, 47.7 MB at 32, 50.3 MB at 64
SWEEP_SERVE = 32
# below this many prompts per cell each cell is served and received on its
# own: there a batch's flat sampler rows round unlike a cell's alone
# (run_end_to_end)
SWEEP_CHUNK_MIN_PROMPTS = 10


def _eval_prompt_set(cfg):
    return corpus.sample_prompts(cfg.eval_prompts,
                                 derive_seed(cfg.seed, "eval_prompts"))


def cell_seed(cfg, rate, snr_db, trial):
    """The seed of one sweep cell, keyed by what the cell is: the master
    seed, the rate as its seed-frame fixed-point value, the SNR as its
    float64 bits and the trial. A cell keeps its seed, and so its rows,
    when the grid around it grows or shrinks."""
    return derive_seed(cfg.seed, "sweep_cell", rate_fixed(rate),
                       int(np.float64(snr_db).view(np.uint64)), trial)


def agent_seed(cfg, budget):
    """The seed of the agent trained at ``budget``, keyed by its float64
    bits as :func:`cell_seed` keys an SNR, not by the other budgets."""
    return derive_seed(cfg.seed, "power_agent",
                       int(np.float64(budget).view(np.uint64)))


def cmd_sweep(cfg: ExperimentConfig):
    """Quality-versus-SNR grid over (mode, rate, SNR, trial).

    At the paper-arithmetic preset only the symbol column is filled; no
    full-scale model exists to simulate. Every cell runs in the calling
    process, whatever ``cfg.jobs`` says. The server serves up to
    ``SWEEP_SERVE`` consecutive cells of one rate in one sampler batch
    (:func:`protocol.serve_cells`), and the receivers take each batch in
    chunks of up to ``SWEEP_CHUNK`` cells; below
    ``SWEEP_CHUNK_MIN_PROMPTS`` prompts per cell both hold one cell. So
    the CSV does not depend on either size (see
    :func:`protocol.run_end_to_end`).
    Each cell runs on its :func:`cell_seed`, so its numbers do not depend
    on the rest of the grid either. Returns the output paths.
    """
    os.makedirs(cfg.out, exist_ok=True)
    sweep_path = os.path.join(cfg.out, "sweep.csv")
    chash = config_hash(cfg)
    grid = list(itertools.product(cfg.codec_rates, cfg.sweep_snrs_db,
                                  range(cfg.sweep_trials)))
    rows = []
    if cfg.preset == "paper-arithmetic":
        for (rate, snr, trial), mode in itertools.product(grid, metrics.MODES):
            symbols = metrics.symbol_count(mode, cfg.image_shape,
                                           cfg.downsample, rate,
                                           cfg.latent_channels)
            rows.append((mode, rate, snr, trial, "", "", "", symbols,
                         cfg.seed))
    else:
        bundle = load_bundle(cfg)
        prompts = _eval_prompt_set(cfg)
        serve, size = (SWEEP_SERVE, SWEEP_CHUNK) \
            if len(prompts) >= SWEEP_CHUNK_MIN_PROMPTS else (1, 1)
        for rate, cells in itertools.groupby(grid, lambda cell: cell[0]):
            cells = [(trial, RunSpec(snr, cfg.channel_kind,
                                     cell_seed(cfg, rate, snr, trial)))
                     for _, snr, trial in cells]
            for lo in range(0, len(cells), serve):
                batch = cells[lo:lo + serve]
                served = serve_cells(bundle, prompts, rate, cfg.block_length,
                                     [spec for _, spec in batch])
                for c in range(0, len(batch), size):
                    report = run_end_to_end(bundle, served[c:c + size])
                    for (cell, (trial, spec)), mode in itertools.product(
                            enumerate(batch[c:c + size]), metrics.MODES):
                        r = report[cell, mode].report
                        rows.append((mode, rate, spec.snr_db, trial,
                                     r.psnr_db, r.fid_score, r.mse,
                                     r.symbols, spec.seed))
                    # freed before the next chunk runs, not held through it
                    del report
    rows.sort(key=lambda r: (r[1], r[2], r[3], r[0]))
    write_csv(sweep_path, ["config_hash", "mode", "f_c", "snr_db", "trial",
                           "psnr_db", "fid_proxy", "mse", "symbols", "seed"],
              [(chash,) + row for row in rows], comment=SWEEP_SCHEMA)
    plot_paths = [] if cfg.preset == "paper-arithmetic" \
        else _sweep_plots(cfg, rows)
    return {"sweep_csv": sweep_path, "plots": plot_paths, "rows": rows}


def _sweep_plots(cfg, rows):
    paths = []
    for rate in cfg.codec_rates:
        for col, label in ((4, "psnr_db"), (5, "fid_proxy")):
            series, points = {}, []
            for mode in metrics.MODES:
                # statistics, not np.median: its first call imports numpy.ma
                ys = [statistics.median([r[col] for r in rows
                                         if r[0] == mode and r[1] == rate
                                         and r[2] == snr])
                      for snr in cfg.sweep_snrs_db]
                series[mode] = (list(cfg.sweep_snrs_db), ys)
                points += [(mode, snr, y)
                           for snr, y in zip(cfg.sweep_snrs_db, ys)]
            data_path = os.path.join(cfg.out, f"plot_{label}_r{rate!r}.csv")
            write_csv(data_path, ["series", "x", "y"], points)
            svg_path = data_path[:-4] + ".svg"
            plotting.write_line_chart(
                svg_path, series, title=f"{label} vs SNR (rate {rate})",
                xlabel="SNR (dB)", ylabel=label)
            paths.extend([data_path, svg_path])
    return paths


# ---------------------------------------------------------------------------
# power allocation experiments

def power_env(bundle, cfg):
    """The environment that ``megsim power`` runs every budget on: the
    ``power_prompts`` prompts on the ``power_env`` stream's seed."""
    return power_rl.SeedTransmissionEnv(
        bundle, cfg, corpus.sample_prompts(
            cfg.power_prompts, derive_seed(cfg.seed, "power_prompts")),
        derive_seed(cfg.seed, "power_env"))


def power_traces(cfg, num_blocks):
    """The traces that ``megsim power`` runs every budget on, each
    [n, num_blocks] of the config's channel kind: the ``power_eval_traces``
    frozen traces that score the agent and the even split, and the 20
    held-out traces that select the agent."""
    return tuple(ch.fading_gains(cfg.channel_kind, (n, num_blocks),
                                 derive_seed(cfg.seed, purpose))
                 for n, purpose in ((cfg.power_eval_traces, "frozen_traces"),
                                    (20, "select_traces")))


def cmd_power(cfg: ExperimentConfig):
    """Train the allocator per budget and compare it with the even split
    by :func:`power_rl.compare`.

    Emits one summary row per budget plus a training-curve CSV, all from
    the same frozen trace set.
    """
    bundle = load_bundle(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    env = power_env(bundle, cfg)

    # drawn from the seed on every run: a file left by another config is
    # overwritten, never scored
    trace_path = os.path.join(
        cfg.out, f"eval_traces_{cfg.power_eval_traces}x{env.num_blocks}.csv")
    frozen, select_traces = power_traces(cfg, env.num_blocks)
    ch.export_trace_set(frozen, cfg.block_length, trace_path)

    chash = config_hash(cfg)
    summary_rows, curve_paths, agent_paths = [], [], []
    for budget in cfg.power_budgets:
        agent, history, drl, even = power_rl.compare(
            env, cfg, budget, agent_seed(cfg, budget), frozen, select_traces)
        agent_path = os.path.join(cfg.out, f"agent_p{budget!r}.bin")
        agent.save(agent_path, extra={"config_hash": chash, "p_max": budget})
        agent_paths.append(agent_path)
        curve_path = os.path.join(cfg.out, f"curve_p{budget!r}.csv")
        write_csv(curve_path, ["config_hash", "episode", "mean_reward",
                               "surrogate", "value_loss", "entropy"],
                  [(chash,) + row for row in history],
                  comment=CURVE_SCHEMA)
        curve_paths.append(curve_path)
        summary_rows.append((budget, float(np.mean(-even)),
                             float(np.mean(-drl)), float(np.std(-drl)),
                             len(frozen)))

    summary_path = os.path.join(cfg.out, "power_summary.csv")
    write_csv(summary_path, ["config_hash", "p_max", "uniform_fid_mean",
                             "drl_fid_mean", "drl_fid_std", "n"],
              [(chash,) + row for row in summary_rows], comment=POWER_SCHEMA)
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
    layers = seedcodec.codec_layers(cfg.latent_size, seed_len,
                                    cfg.codec_hidden)
    param_rows = []
    for i, desc in enumerate(layers):
        if desc["kind"] == "dense":
            kind = "Linear" if desc["activation"] == "none" \
                else desc["activation"].title()
            label = f"{kind}({desc['in_features']}->{desc['out_features']})"
        else:
            kind = "LayerNorm" if desc["kind"] == "layernorm" else "Normalize"
            label = f"{kind}({desc['size']})"
        param_rows.append(("decoder" if i else "encoder", label,
                           nn.parameter_count([desc]) or None))
    total = nn.parameter_count(layers)

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
    """One end-to-end generation at the configured prompt/SNR/rate: a
    chunk of one cell."""
    bundle = load_bundle(cfg)
    prompts = [cfg.eval_prompt] + _eval_prompt_set(cfg)[:cfg.eval_prompts - 1]
    spec = RunSpec(cfg.eval_snr_db, cfg.channel_kind,
                   derive_seed(cfg.seed, "eval_cell"))
    report = run_end_to_end(bundle, serve_cells(
        bundle, prompts, cfg.eval_rate, cfg.block_length, [spec]))
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "eval.csv")
    chash = config_hash(cfg)
    reports = {mode: report[0, mode].report for mode in metrics.MODES}
    write_csv(path, ["mode", "psnr_db", "fid_proxy", "mse", "symbols",
                     "config_hash"],
              [(mode, r.psnr_db, r.fid_score, r.mse, r.symbols, chash)
               for mode, r in reports.items()])
    return {"eval_csv": path, "report": report}
