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
import math
import os
from dataclasses import dataclass, field, fields, replace

from .channel import KINDS
from .protocol import rate_fixed
from .seedcodec import seed_length

ENV_PREFIX = "MEGSIM_"
PRESETS = ("desk", "paper-arithmetic")


def _key(section, default):
    """A config field and the file section that declares it."""
    return field(default=default, metadata={"section": section})


@dataclass(frozen=True)
class ExperimentConfig:
    """Every config key, each declared once with its file section; the
    file key is the attribute less the section's prefix (``_PREFIX``).
    Immutable, and checked by :meth:`validate` whenever one is built,
    ``dataclasses.replace`` included."""

    preset: str = _key("run", "desk")
    seed: int = _key("run", 0)
    out: str = _key("run", "runs")
    jobs: int = _key("run", 1)
    channels: int = _key("image", 2)
    height: int = _key("image", 32)
    width: int = _key("image", 32)
    downsample: int = _key("image", 4)
    latent_channels: int = _key("image", 2)
    diffusion_steps: int = _key("diffusion", 10)
    embed_dim: int = _key("diffusion", 32)
    max_tokens: int = _key("diffusion", 8)
    time_dim: int = _key("diffusion", 16)
    corpus_size: int = _key("corpus", 48)
    ae_steps: int = _key("autoencoder", 700)
    ae_batch: int = _key("autoencoder", 16)
    ae_lr: float = _key("autoencoder", 1e-3)
    ae_center_penalty: float = _key("autoencoder", 1e-2)
    ae_hidden: int = _key("autoencoder", 256)
    ae_encoder_hidden: int = _key("autoencoder", 64)
    dn_steps: int = _key("denoiser", 1200)
    dn_batch: int = _key("denoiser", 16)
    dn_lr: float = _key("denoiser", 1e-3)
    dn_hidden: int = _key("denoiser", 128)
    codec_rates: tuple = _key("codec", (0.5,))
    codec_epochs: int = _key("codec", 120)
    codec_lr: float = _key("codec", 1e-3)
    codec_batch: int = _key("codec", 16)
    codec_train_snr_db: float = _key("codec", 20.0)
    codec_hidden: int = _key("codec", 96)
    channel_kind: str = _key("channel", "rayleigh_block")
    block_length: int = _key("channel", 16)
    sweep_snrs_db: tuple = _key("sweep", (-10.0, 0.0, 10.0, 20.0, 30.0))
    sweep_trials: int = _key("sweep", 5)
    eval_prompts: int = _key("sweep", 16)
    power_budgets: tuple = _key("power", (0.5, 2.0, 8.0))
    power_snr_db: float = _key("power", 0.0)
    power_rate: float = _key("power", 0.5)
    power_prompts: int = _key("power", 16)
    power_eval_traces: int = _key("power", 100)
    ppo_clip: float = _key("ppo", 0.2)
    ppo_value_coef: float = _key("ppo", 0.5)
    ppo_entropy_coef: float = _key("ppo", 0.01)
    ppo_gamma: float = _key("ppo", 1.0)
    ppo_lr: float = _key("ppo", 3e-3)
    ppo_epochs: int = _key("ppo", 8)
    ppo_episodes_per_batch: int = _key("ppo", 16)
    ppo_update_rounds: int = _key("ppo", 160)
    ppo_hidden: int = _key("ppo", 32)
    eval_prompt: str = _key("eval", "large rings center")
    eval_snr_db: float = _key("eval", 10.0)
    eval_rate: float = _key("eval", 0.5)

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

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Check every cross-module dimension contract; returns self."""
        for f in fields(self):
            section, key = _file_key(f)
            value = getattr(self, f.name)
            if f.type is tuple and not value:
                raise ValueError(f"[{section}] {key} needs at least one value")
            # every count is positive, the seed feeds numpy's generators,
            # and a batch Frechet score needs two prompts
            low = {"seed": 0, "eval_prompts": 2, "power_prompts": 2}.get(
                f.name, 1)
            if f.type is int and value < low:
                raise ValueError(f"[{section}] {key} must be >= {low}")
            # None (a clean codec training channel) has nothing to check
            floats = value if f.type is tuple else (value,)
            if f.type in (float, tuple) and not all(
                    v is None or math.isfinite(v) for v in floats):
                raise ValueError(f"[{section}] {key} must be finite")
        # megsim's seeding reads the seed as one 64-bit int (util)
        if self.seed >= 2 ** 64:
            raise ValueError("[run] seed must be < 2**64")
        if min(self.power_budgets) <= 0.0:
            raise ValueError("[power] budgets must be positive")
        if not self.eval_prompt.split():
            raise ValueError("[eval] prompt must hold at least one word")
        # consumers split it into words: one spelling per experiment
        if self.eval_prompt != " ".join(self.eval_prompt.split()):
            raise ValueError("[eval] prompt must be single-spaced words")
        # a line break would end the value in a config file
        if "\n" in self.out or "\r" in self.out:
            raise ValueError("[run] out must not hold a line break")
        # a file's value is read back with its edge whitespace stripped
        if self.out != self.out.strip():
            raise ValueError("[run] out must not start or end with "
                             "whitespace")
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}")
        if self.channel_kind not in KINDS:
            raise ValueError(f"[channel] kind {self.channel_kind!r} is not "
                             f"one of {', '.join(KINDS)}")
        if not 0.0 < self.ppo_clip < 1.0:
            raise ValueError("[ppo] clip must lie in (0, 1)")
        if not 0.0 < self.ppo_gamma <= 1.0:
            raise ValueError("[ppo] gamma must lie in (0, 1]")
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
        # a seed frame names its codec's rate in 1/65536ths; each rate is
        # in (0, 1) by now, so the product is finite
        if len(set(map(rate_fixed, self.codec_rates))) < len(self.codec_rates):
            raise ValueError("[codec] rates repeats a rate at the seed "
                             "frame's 1/65536 precision")
        for name, rate in (("power", self.power_rate),
                           ("eval", self.eval_rate)):
            if rate not in self.codec_rates:
                raise ValueError(f"[{name}] rate {rate!r} is not one of "
                                 f"[codec] rates")
        return self


# the prefix a section's attributes carry and its file keys drop
_PREFIX = {"autoencoder": "ae_", "denoiser": "dn_"}


def _file_key(f):
    section = f.metadata["section"]
    return section, f.name.removeprefix(_PREFIX.get(section, section + "_"))


def _schema():
    """section -> [(key, attribute, type)]; the field's type drives
    parse/format, a tuple being a comma list of floats."""
    schema = {}
    for f in fields(ExperimentConfig):
        section, key = _file_key(f)
        schema.setdefault(section, []).append((key, f.name, f.type))
    return schema


_SCHEMA = _schema()


def _format_value(value, kind):
    if kind is tuple:
        return ",".join(repr(float(v)) for v in value)
    if kind is float:
        return repr(float(value))
    return str(value)


def _parse_value(text, kind, where):
    """``text`` read as ``kind``; a bad value raises a ValueError that
    names ``where`` it was set."""
    try:
        if kind is tuple:
            return tuple(float(v) for v in text.split(",") if v.strip())
        return kind(text)
    except ValueError as exc:
        raise ValueError(f"{where} = {text!r}: {exc}") from exc


# where results land and the job count (accepted, but sweeps run in one
# process) are execution context, not part of the experiment's identity
_EXECUTION_KEYS = {"out", "jobs"}


def _section_lines(cfg, sections, skip=()):
    """Each of ``sections`` in sorted order as its ``[section]`` header,
    its ``key = value`` lines sorted by key less the keys in ``skip``,
    and a blank line."""
    lines = []
    for section in sorted(sections):
        lines.append(f"[{section}]")
        lines += [f"{key} = {_format_value(getattr(cfg, attr), kind)}"
                  for key, attr, kind in sorted(_SCHEMA[section])
                  if key not in skip]
        lines.append("")
    return lines


def render_config(cfg: ExperimentConfig) -> str:
    return "\n".join(_section_lines(cfg, _SCHEMA))


def canonical_form(cfg: ExperimentConfig) -> str:
    """Sorted, normalized key-value text; the basis of the config hash."""
    return "\n".join(_section_lines(cfg, _SCHEMA, _EXECUTION_KEYS))


def config_hash(cfg: ExperimentConfig, sections=None, extra="",
                drop_keys=()) -> str:
    """12-hex-digit digest of the canonical form.

    With ``sections`` it keys one cached artifact instead: the lines of
    those sections less ``drop_keys``, then the seed and ``extra``.
    """
    if sections is None:
        text = canonical_form(cfg)
    else:
        text = "\n".join(_section_lines(
            cfg, sections, _EXECUTION_KEYS.union(drop_keys))
            + [f"seed = {cfg.seed}", extra])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def read_config_file(path) -> dict:
    """A UTF-8 key-value file's settings as ``{attribute: value}``, each
    value read literally (no ``%`` interpolation). A file that
    configparser cannot read raises a ValueError of one line naming it."""
    parser = configparser.ConfigParser(interpolation=None)
    with open(path, encoding="utf-8") as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            raise ValueError(" ".join(str(exc).split())) from exc
    updates = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValueError(f"unknown config section [{section}]")
        known = {key: (attr, kind) for key, attr, kind in _SCHEMA[section]}
        for key, value in parser.items(section):
            if key not in known:
                raise ValueError(f"unknown key {key!r} in [{section}]")
            attr, kind = known[key]
            updates[attr] = _parse_value(value, kind, f"[{section}] {key}")
    return updates


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
    variables (MEGSIM_SEED and friends), then explicit overrides. The
    preset is the argument's, else the environment's, else the file's;
    any other MEGSIM_* variable is refused, as an unknown file key is."""
    env = {k[len(ENV_PREFIX):].lower(): v for k, v in os.environ.items()
           if k.startswith(ENV_PREFIX)}
    known = ["config"] + [key for key, _, _ in _SCHEMA["run"]]
    for name in sorted(os.environ):
        if name.startswith(ENV_PREFIX) and \
                name[len(ENV_PREFIX):].lower() not in known:
            raise ValueError(f"unknown environment variable {name}; megsim "
                             f"reads {ENV_PREFIX}CONFIG and the [run] keys")
    path = path or env.get("config")
    updates = read_config_file(path) if path else {}
    updates.update({attr: _parse_value(env[key], kind,
                                       ENV_PREFIX + key.upper())
                    for key, attr, kind in _SCHEMA["run"] if key in env})
    updates.update({key: value for key, value in (overrides or {}).items()
                    if value is not None})
    updates["preset"] = preset or updates.get("preset", "desk")
    return replace(preset_config(updates["preset"]), **updates)
