"""Experiment configuration: presets, the flat key-value file format, the
canonical form everything is hashed over, and cross-module dimension
validation.

A config file is INI-style with one section per module. The canonical
form renders sections and keys sorted with normalized scalar formatting;
the 12-hex-digit config hash is the SHA-256 of that text, so two configs
hash equal exactly when they mean the same experiment.
"""

import configparser
import hashlib
import os
from dataclasses import dataclass, replace

from .seedcodec import seed_length

ENV_PREFIX = "MEGSIM_"
PRESETS = ("desk", "paper-arithmetic")


@dataclass
class ExperimentConfig:
    # run
    preset: str = "desk"
    seed: int = 0
    out: str = "runs"
    jobs: int = 1
    # image geometry
    channels: int = 2
    height: int = 32
    width: int = 32
    downsample: int = 4
    latent_channels: int = 2
    # diffusion / embedding
    diffusion_steps: int = 10
    embed_dim: int = 32
    max_tokens: int = 8
    time_dim: int = 16
    # corpus
    corpus_size: int = 48
    # autoencoder training
    ae_steps: int = 700
    ae_batch: int = 16
    ae_lr: float = 1e-3
    ae_center_penalty: float = 1e-2
    ae_hidden: int = 256
    # denoiser training
    dn_steps: int = 1200
    dn_batch: int = 16
    dn_lr: float = 1e-3
    dn_hidden: int = 128
    # codec
    codec_rates: tuple = (0.5,)
    codec_epochs: int = 120
    codec_lr: float = 1e-3
    codec_batch: int = 16
    codec_train_snr_db: float = 20.0
    codec_hidden: int = 96
    # channel
    channel_kind: str = "rayleigh_block"
    block_length: int = 16
    # sweep
    sweep_snrs_db: tuple = (-10.0, 0.0, 10.0, 20.0, 30.0)
    sweep_trials: int = 5
    eval_prompts: int = 16
    # power / ppo
    power_budgets: tuple = (0.5, 2.0, 8.0)
    power_snr_db: float = 0.0
    power_rate: float = 0.5
    power_prompts: int = 16
    power_eval_traces: int = 100
    ppo_clip: float = 0.2
    ppo_value_coef: float = 0.5
    ppo_entropy_coef: float = 0.01
    ppo_gamma: float = 1.0
    ppo_lr: float = 3e-3
    ppo_epochs: int = 8
    ppo_episodes_per_batch: int = 16
    ppo_update_rounds: int = 160
    ppo_hidden: int = 32
    # single-shot eval command
    eval_prompt: str = "large rings center"
    eval_snr_db: float = 10.0
    eval_rate: float = 0.5

    # -- derived geometry ---------------------------------------------------

    @property
    def image_shape(self):
        return (self.channels, self.height, self.width)

    @property
    def latent_shape(self):
        return (self.latent_channels, self.height // self.downsample,
                self.width // self.downsample)

    @property
    def latent_size(self):
        c, h, w = self.latent_shape
        return c * h * w

    @property
    def pixel_count(self):
        return self.channels * self.height * self.width

    def validate(self):
        """Check every cross-module dimension contract before running."""
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}")
        if self.downsample < 2:
            raise ValueError("downsample factor must be > 1")
        if self.height % self.downsample or self.width % self.downsample:
            raise ValueError("image dims must be divisible by the "
                             "downsample factor")
        if self.latent_size >= self.pixel_count:
            raise ValueError("latent must be strictly smaller than the image")
        budget = self.pixel_count / self.downsample ** 2
        for rate in self.codec_rates:
            n = seed_length(self.latent_size, rate)
            if not 0 < n < budget:
                raise ValueError(
                    f"seed length {n} at rate {rate} violates the "
                    f"overhead bound {budget}")
        if self.power_rate not in self.codec_rates:
            raise ValueError("power experiments need a codec at power_rate")
        if self.block_length < 1:
            raise ValueError("block length must be >= 1")
        if self.sweep_trials < 1 or self.eval_prompts < 2:
            raise ValueError("sweeps need >= 1 trial and >= 2 eval prompts")
        return self


# section -> [(key, attribute, type)] where type drives parse/format
_SCHEMA = {
    "run": [("preset", "preset", str), ("seed", "seed", int),
            ("out", "out", str), ("jobs", "jobs", int)],
    "image": [("channels", "channels", int), ("height", "height", int),
              ("width", "width", int), ("downsample", "downsample", int),
              ("latent_channels", "latent_channels", int)],
    "diffusion": [("steps", "diffusion_steps", int),
                  ("embed_dim", "embed_dim", int),
                  ("max_tokens", "max_tokens", int),
                  ("time_dim", "time_dim", int)],
    "corpus": [("size", "corpus_size", int)],
    "autoencoder": [("steps", "ae_steps", int), ("batch", "ae_batch", int),
                    ("lr", "ae_lr", float),
                    ("center_penalty", "ae_center_penalty", float),
                    ("hidden", "ae_hidden", int)],
    "denoiser": [("steps", "dn_steps", int), ("batch", "dn_batch", int),
                 ("lr", "dn_lr", float), ("hidden", "dn_hidden", int)],
    "codec": [("rates", "codec_rates", "floats"),
              ("epochs", "codec_epochs", int), ("lr", "codec_lr", float),
              ("batch", "codec_batch", int),
              ("train_snr_db", "codec_train_snr_db", float),
              ("hidden", "codec_hidden", int)],
    "channel": [("kind", "channel_kind", str),
                ("block_length", "block_length", int)],
    "sweep": [("snrs_db", "sweep_snrs_db", "floats"),
              ("trials", "sweep_trials", int),
              ("eval_prompts", "eval_prompts", int)],
    "power": [("budgets", "power_budgets", "floats"),
              ("snr_db", "power_snr_db", float),
              ("rate", "power_rate", float),
              ("prompts", "power_prompts", int),
              ("eval_traces", "power_eval_traces", int)],
    "ppo": [("clip", "ppo_clip", float),
            ("value_coef", "ppo_value_coef", float),
            ("entropy_coef", "ppo_entropy_coef", float),
            ("gamma", "ppo_gamma", float), ("lr", "ppo_lr", float),
            ("epochs", "ppo_epochs", int),
            ("episodes_per_batch", "ppo_episodes_per_batch", int),
            ("update_rounds", "ppo_update_rounds", int),
            ("hidden", "ppo_hidden", int)],
    "eval": [("prompt", "eval_prompt", str),
             ("snr_db", "eval_snr_db", float), ("rate", "eval_rate", float)],
}


def _format_value(value, kind):
    if kind == "floats":
        return ",".join(repr(float(v)) for v in value)
    if kind is float:
        return repr(float(value))
    return str(value)


def _parse_value(text, kind):
    if kind == "floats":
        return tuple(float(v) for v in text.split(",") if v.strip())
    if kind is float:
        return float(text)
    if kind is int:
        return int(text)
    return text


# where results land and the job count (accepted, but sweeps run in one
# process) are execution context, not part of the experiment's identity
_EXECUTION_KEYS = {"out", "jobs"}


def render_config(cfg: ExperimentConfig, include_execution=True) -> str:
    lines = []
    for section in sorted(_SCHEMA):
        keys = [entry for entry in sorted(_SCHEMA[section])
                if include_execution or entry[0] not in _EXECUTION_KEYS]
        if not keys:
            continue
        lines.append(f"[{section}]")
        for key, attr, kind in keys:
            lines.append(f"{key} = {_format_value(getattr(cfg, attr), kind)}")
        lines.append("")
    return "\n".join(lines)


def canonical_form(cfg: ExperimentConfig) -> str:
    """Sorted, normalized key-value text; the basis of the config hash."""
    return render_config(cfg, include_execution=False)


def config_hash(cfg: ExperimentConfig, sections=None, extra="",
                drop_keys=()) -> str:
    """12-hex-digit digest of the canonical form.

    With ``sections`` it keys one cached artifact instead: the lines of
    those sections less ``drop_keys``, then the seed and ``extra``.
    """
    text = canonical_form(cfg)
    if sections is not None:
        keep, current = [], None
        for line in text.splitlines():
            if line.startswith("["):
                current = line.strip("[]")
            if current in sections and not any(
                    line.startswith(f"{k} = ") for k in drop_keys):
                keep.append(line)
        text = "\n".join(keep + [f"seed = {cfg.seed}", extra])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def write_config(cfg: ExperimentConfig, path):
    with open(path, "w") as fh:
        fh.write(render_config(cfg))


def read_config_file(path, base: ExperimentConfig) -> ExperimentConfig:
    """Overlay a key-value file on top of a base config."""
    parser = configparser.ConfigParser()
    with open(path) as fh:
        parser.read_string(fh.read())
    updates = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValueError(f"unknown config section [{section}]")
        known = {key: (attr, kind) for key, attr, kind in _SCHEMA[section]}
        for key, value in parser.items(section):
            if key not in known:
                raise ValueError(f"unknown key {key!r} in [{section}]")
            attr, kind = known[key]
            updates[attr] = _parse_value(value, kind)
    return replace(base, **updates)


def desk_config() -> ExperimentConfig:
    """CPU-friendly default: everything trains in seconds to minutes."""
    return ExperimentConfig()


def paper_arithmetic_config() -> ExperimentConfig:
    """Full-scale geometry for symbol and parameter arithmetic only.

    No model is ever trained at this preset; it exists so overhead tables
    and sweep symbol columns can be produced at the published dimensions.
    """
    return ExperimentConfig(
        preset="paper-arithmetic",
        channels=4, height=512, width=512, downsample=8, latent_channels=4,
        diffusion_steps=50,
        codec_rates=(0.1, 0.3, 0.5, 0.7, 0.9),
        codec_hidden=9000,
        power_rate=0.5,
    )


def preset_config(name: str) -> ExperimentConfig:
    if name == "desk":
        return desk_config()
    if name == "paper-arithmetic":
        return paper_arithmetic_config()
    raise ValueError(f"unknown preset {name!r}")


def load_config(path=None, preset=None, overrides=None) -> ExperimentConfig:
    """Resolve a config from preset defaults, an optional file, environment
    variables (MEGSIM_SEED and friends), then explicit overrides."""
    env = {k[len(ENV_PREFIX):].lower(): v for k, v in os.environ.items()
           if k.startswith(ENV_PREFIX)}
    path = path or env.get("config")
    preset = preset or env.get("preset")
    if path and not preset:
        # the file may pick its own preset as the base for its overrides
        preset = read_config_file(path, ExperimentConfig()).preset
    cfg = preset_config(preset or "desk")
    if path:
        cfg = read_config_file(path, cfg)
    updates = {}
    for key in ("seed", "jobs"):
        if key in env:
            updates[key] = int(env[key])
    if "out" in env:
        updates["out"] = env["out"]
    for key, value in (overrides or {}).items():
        if value is not None:
            updates[key] = value
    if preset:
        updates["preset"] = preset
    if updates:
        cfg = replace(cfg, **updates)
    return cfg.validate()
