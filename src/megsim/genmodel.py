"""Latent generation stack: prompt embedding, pixel autoencoder,
noise schedule, conditional denoiser, and the deterministic reverse
sampler that turns (prompt, initial noise) into a latent feature.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import nn
from .errors import BundleError, DimensionError, ScheduleError, TrainingError
from .util import as_rng, stable_word_seed


# ---------------------------------------------------------------------------
# prompt embedding

@lru_cache(maxsize=4096)
def _token_vector(token, embed_dim):
    """Unit vector of one token; memoized, so the array is read-only."""
    rng = as_rng(stable_word_seed(token, "embed"))
    v = rng.standard_normal(embed_dim)
    v = (v / np.linalg.norm(v)).astype(np.float32)
    v.flags.writeable = False
    return v


@lru_cache(maxsize=4096)
def _pooled_prompt(text, max_tokens, embed_dim):
    """:func:`embed_prompt`'s row; memoized, so the array is read-only."""
    tokens = text.lower().split()
    if not tokens:
        raise ValueError("prompt is empty after trimming")
    values = np.zeros((max_tokens, embed_dim), dtype=np.float32)
    for i, tok in enumerate(tokens[:max_tokens]):
        values[i] = _token_vector(tok, embed_dim)
    pooled = values.mean(axis=0)
    pooled.flags.writeable = False
    return pooled


def embed_prompt(text, max_tokens, embed_dim):
    """The denoiser's prompt input [embed_dim], owned by the caller: the
    mean over ``max_tokens`` rows of the tokens' fixed unit vectors, padding
    rows zero and tokens past ``max_tokens`` dropped; a token is hashed to
    its vector, so the result is deterministic per text."""
    return _pooled_prompt(text, max_tokens, embed_dim).copy()


# ---------------------------------------------------------------------------
# noise schedule and diffusion algebra

@dataclass
class NoiseSchedule:
    """Per-step noise variances and their running products.

    ``betas[t-1]`` is the variance added at step t; ``alpha_bars[t]`` is the
    cumulative product of (1 - beta) with ``alpha_bars[0] == 1``. The
    reverse sampler is deterministic (DDIM with zero step noise).
    """
    betas: np.ndarray
    alpha_bars: np.ndarray

    @property
    def steps(self):
        return len(self.betas)

    def __post_init__(self):
        b = self.betas
        if len(b) < 1 or b[0] <= 0 or b[-1] >= 1 or np.any(np.diff(b) < 0):
            raise ScheduleError("betas must be nondecreasing within (0, 1)")
        if self.alpha_bars[0] != 1.0 or np.any(np.diff(self.alpha_bars) >= 0):
            raise ScheduleError("alpha_bars must start at 1 and strictly decrease")


def make_schedule(steps, beta_start=None, beta_end=None):
    """Linear variance schedule; the endpoints rescale with step count so a
    short schedule destroys as much signal as the 50-step reference."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if beta_start is None:
        beta_start = 1e-4 * (50.0 / steps)
    if beta_end is None:
        beta_end = 0.02 * (50.0 / steps)
    betas = np.linspace(beta_start, beta_end, steps, dtype=np.float64)
    alpha_bars = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
    return NoiseSchedule(betas, alpha_bars)


def diffuse_forward(z0, t, noise, schedule: NoiseSchedule):
    """Closed-form jump to step t: sqrt(abar_t) z0 + sqrt(1 - abar_t) noise.
    ``t`` is one step, or a vector of steps with one per row of ``z0``."""
    steps = np.asarray(t)
    if np.any((steps < 0) | (steps > schedule.steps)):
        raise ValueError(f"step {t} outside [0, {schedule.steps}]")
    z0 = np.asarray(z0)
    noise = np.asarray(noise)
    if noise.shape != z0.shape:
        raise DimensionError("noise shape must match z0")
    abar = schedule.alpha_bars[t]
    if steps.ndim:
        abar = abar[:, None]
    return np.sqrt(abar) * z0 + np.sqrt(1.0 - abar) * noise


def ddim_step(denoiser, z_t, t, pooled, schedule: NoiseSchedule, out=None):
    """One deterministic reverse step z_t -> z_{t-1}: the denoised estimate
    plus the predicted noise direction, in float64. The step is computed
    in ``out``, a float64 array shaped like ``z_t``, if one is given."""
    if t < 1:
        raise ValueError("reverse step requires t >= 1")
    abar_prev = schedule.alpha_bars[t - 1]
    eps = denoiser.predict(z_t, t, pooled)
    abar = schedule.alpha_bars[t]
    # z0 = (z_t - sqrt(1 - abar) eps) / sqrt(abar), and the step is
    # sqrt(abar_prev) z0 + sqrt(1 - abar_prev) eps: the same ops in place
    out = np.multiply(np.sqrt(1.0 - abar), eps, out=out)
    np.subtract(z_t, out, out=out)
    out /= np.sqrt(abar)
    out *= np.sqrt(abar_prev)
    out += np.sqrt(1.0 - abar_prev) * eps
    return out


def generate_latent(denoiser, prompts, initial_noise):
    """Run the denoiser's reverse chain from t = T down to 1 for a list of
    P prompts and their noise [P, *latent_shape], sampled as one batch; a
    pure function of (denoiser, prompts, noise). Each step is computed in
    one float64 buffer and rounded to the float32 latents in place.
    """
    pooled = np.stack([embed_prompt(text, denoiser.max_tokens,
                                    denoiser.embed_dim) for text in prompts])
    z = np.array(initial_noise, dtype=np.float32)
    step = np.empty(z.shape)
    for t in range(denoiser.schedule.steps, 0, -1):
        z[...] = ddim_step(denoiser, z, t, pooled, denoiser.schedule, step)
    return z


def time_embedding(t, dim):
    """Sinusoidal embedding of an integer step index."""
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    ang = t * freqs
    emb = np.empty(dim, dtype=np.float32)
    emb[0::2] = np.sin(ang)
    emb[1::2] = np.cos(ang[:dim - half])
    return emb


# ---------------------------------------------------------------------------
# denoiser

class Denoiser:
    """Dense noise-prediction network conditioned on step and prompt, with
    the geometry, ``dn_hidden`` width and ``[diffusion] steps`` of the
    experiment config ``cfg``: the one schedule it trains and samples on.

    Input is the flattened noisy latent concatenated with a sinusoidal
    step embedding and the pooled prompt embedding; output has the latent
    shape.
    """

    def __init__(self, cfg, rng=None):
        rng = None if rng is None else as_rng(rng)
        self.latent_shape = cfg.latent_shape
        self.latent_size = cfg.latent_size
        self.time_dim = cfg.time_dim
        self.max_tokens = cfg.max_tokens
        self.embed_dim = cfg.embed_dim
        self.schedule = make_schedule(cfg.diffusion_steps)
        self.time_table = np.stack([time_embedding(t, self.time_dim)
                                    for t in range(self.schedule.steps + 1)])
        in_dim = self.latent_size + self.time_dim + self.embed_dim
        hidden = cfg.dn_hidden
        self.net = nn.Network([
            nn.DenseLayer(in_dim, hidden, "relu", rng, "h1"),
            nn.DenseLayer(hidden, hidden, "relu", rng, "h2"),
            nn.DenseLayer(hidden, self.latent_size, "none", rng, "out"),
        ], name="denoiser")

    def predict(self, z_t, t, pooled):
        """Noise estimate shaped like ``z_t`` at step ``t`` in [0, T], for
        P latents and their pooled prompt rows [P, embed_dim]."""
        if not 0 <= t < len(self.time_table):
            raise ValueError(f"step {t} outside [0, {self.schedule.steps}]")
        z_t = np.asarray(z_t)
        rows = len(pooled)
        if z_t.size != rows * self.latent_size:
            raise DimensionError(f"{z_t.size} latent values for {rows} rows")
        feats = np.concatenate([
            z_t.reshape(rows, -1).astype(np.float32),
            np.broadcast_to(self.time_table[t], (rows, self.time_dim)),
            pooled], axis=1)
        out = self.net.forward(feats, cache=False)
        return out.reshape(z_t.shape)


def denoiser_batch(denoiser, latents, pooled, idx, ts, eps):
    """Inputs [B, latent + time_dim + embed_dim] of ``denoiser``, a batch.

    Row j is the latent ``latents[idx[j]]`` diffused on the denoiser's
    schedule to step ``ts[j]`` with noise ``eps[j]``, then the step's row
    of its time table and the prompt's row of ``pooled``.
    """
    z_t = diffuse_forward(latents[idx], ts, eps, denoiser.schedule)
    return np.concatenate([z_t.astype(np.float32), denoiser.time_table[ts],
                           pooled[idx]], axis=1)


def train_denoiser(pair, dataset, cfg, seed):
    """Fit the noise predictor of :class:`Denoiser` ``(cfg)`` on corpus
    (prompt, image) pairs encoded by ``pair``, with the ``dn_*`` settings
    of the experiment config ``cfg``.

    For each sample a step t is drawn uniformly from [1, T], the encoded
    latent is diffused to z_t with fresh Gaussian noise, and the network
    regresses that noise. Returns (denoiser, per-step loss history).
    """
    if not dataset:
        raise ValueError("dataset is empty")
    rng = as_rng(seed)
    denoiser = Denoiser(cfg, rng)
    # a stack of batches of one, not one batch: each image keeps the
    # arithmetic of a call of its own, which the pinned weights depend on
    images = np.stack([img for _, img in dataset])
    latents = pair.encode(images[:, None]).reshape(len(dataset), -1)
    pooled = np.stack([embed_prompt(p, denoiser.max_tokens, denoiser.embed_dim)
                       for p, _ in dataset])
    opt = nn.Adam(cfg.dn_lr)
    history = []
    for _ in range(cfg.dn_steps):
        idx = rng.integers(0, len(dataset), size=cfg.dn_batch)
        ts = rng.integers(1, cfg.diffusion_steps + 1, size=cfg.dn_batch)
        eps = rng.standard_normal((cfg.dn_batch, denoiser.latent_size))
        feats = denoiser_batch(denoiser, latents, pooled, idx, ts, eps)
        pred = denoiser.net.forward(feats, cache=True)
        diff = pred - eps.astype(np.float32)
        loss = float(np.mean(diff * diff))
        if not np.isfinite(loss):
            raise TrainingError("denoiser loss is not finite")
        history.append(loss)
        g = (2.0 / diff.size) * diff
        denoiser.net.backward(g, input_grad=False)
        opt.step(*nn.network_vectors([denoiser.net]))
    denoiser.net.release_grad()
    return denoiser, history


# ---------------------------------------------------------------------------
# pixel <-> latent autoencoder

class AutoencoderPair:
    """Dense encoder (pixels -> latent) and decoder (latent -> pixels) with
    the geometry and ``ae_*`` widths of the experiment config ``cfg``;
    only training runs the encoder, so its hidden width may differ, and a
    pair built with ``encoder=False`` holds the decoder alone."""

    def __init__(self, cfg, rng=None, encoder=True):
        rng = None if rng is None else as_rng(rng)
        self.image_shape = cfg.image_shape
        self.latent_shape = cfg.latent_shape
        pixels, latent = cfg.pixel_count, cfg.latent_size
        # built first, so a trained pair draws the encoder's initial
        # weights before the decoder's
        self.encoder = nn.Network([
            nn.DenseLayer(pixels, cfg.ae_encoder_hidden, "relu", rng, "e1"),
            nn.DenseLayer(cfg.ae_encoder_hidden, latent, "none", rng, "e2"),
        ], name="encoder") if encoder else None
        self.decoder = nn.Network([
            nn.DenseLayer(latent, cfg.ae_hidden, "relu", rng, "d1"),
            nn.DenseLayer(cfg.ae_hidden, pixels, "none", rng, "d2"),
        ], name="decoder")

    @staticmethod
    def _apply(net, x, in_shape, out_shape):
        """``net`` on a batch [P, *in_shape] or a stack of batches
        [S, B, *in_shape]."""
        x = np.asarray(x, dtype=np.float32)
        lead = x.ndim - len(in_shape)
        if not 1 <= lead <= 2 or x.shape[lead:] != in_shape:
            raise DimensionError(f"input shape {x.shape} is not a batch of "
                                 f"{in_shape} or a stack of batches")
        rows = x.shape[:lead] + (int(np.prod(in_shape)),)
        out = net.forward(x.reshape(rows), cache=False)
        return out.reshape(x.shape[:lead] + out_shape)

    def encode(self, images):
        """Map images (a batch or a stack) into latent space."""
        if self.encoder is None:
            raise BundleError("this autoencoder holds only the decoder, as "
                              "load_bundle builds it; encode with the "
                              "bundle that cmd_train returns")
        return self._apply(self.encoder, images, self.image_shape,
                           self.latent_shape)

    def decode(self, latent):
        """Map latents (a batch or a stack) to pixels clamped to 0..1."""
        out = self._apply(self.decoder, latent, self.latent_shape,
                          self.image_shape)
        return np.clip(out, 0.0, 1.0, out=out)


def train_autoencoder(images, cfg, seed):
    """Minimize reconstruction MSE plus a small penalty on latent energy
    (``ae_center_penalty``, which pulls latents toward zero mean), for
    images [N, *image_shape] and with the ``ae_*`` settings of the
    experiment config ``cfg``.

    Returns (pair, per-step loss history). The decoder is trained on its
    raw output; clamping to [0, 1] happens only at inference.
    """
    images = np.asarray(images, dtype=np.float32)
    if images.shape[1:] != cfg.image_shape or not len(images):
        raise DimensionError(f"images of shape {images.shape} are not a "
                             f"non-empty batch [N, *{cfg.image_shape}]")
    rng = as_rng(seed)
    pair = AutoencoderPair(cfg, rng)
    flat = images.reshape(images.shape[0], -1)
    opt = nn.Adam(cfg.ae_lr)
    history = []
    lam = cfg.ae_center_penalty
    for _ in range(cfg.ae_steps):
        idx = rng.integers(0, flat.shape[0], size=cfg.ae_batch)
        x = flat[idx]
        z = pair.encoder.forward(x, cache=True)
        recon = pair.decoder.forward(z, cache=True)
        diff = recon - x
        loss = float(np.mean(diff * diff) + lam * np.mean(z * z))
        if not np.isfinite(loss):
            raise TrainingError("autoencoder loss is not finite")
        history.append(loss)
        g_recon = (2.0 / diff.size) * diff
        g_z_dec, _ = pair.decoder.backward(g_recon)
        g_z = g_z_dec + (2.0 * lam / z.size) * z
        pair.encoder.backward(g_z, input_grad=False)
        opt.step(*nn.network_vectors([pair.encoder, pair.decoder]))
    for net in (pair.encoder, pair.decoder):
        net.release_grad()
    return pair, history
