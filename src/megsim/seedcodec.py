"""Learned compression coding between latent features and channel seeds.

The encoder flattens a latent and projects it to the seed length; the
decoder is a three-layer relu stack with normalization between layers and
a residual connection from its first projection. :func:`codec_layers` is
the one description of these layers: the networks are built from it and
``megsim table`` counts it. One pair is trained per (compression rate,
training SNR) because the optimal weights change with both.
"""

import numpy as np

from . import nn
from .channel import fading_gains, snr_to_noise_std
from .errors import CodecError, DimensionError, TrainingError
from .util import as_rng


def seed_length(latent_size, rate) -> int:
    """Seed symbols for a latent of ``latent_size`` at a compression rate.

    Round-to-nearest of rate * latent_size; the result must stay strictly
    between 0 and the latent size.
    """
    if not 0.0 < rate < 1.0:
        raise ValueError(f"compression rate {rate} outside (0, 1)")
    n = int(round(rate * latent_size))
    if not 0 < n < latent_size:
        raise ValueError(
            f"rate {rate} degenerates for latent size {latent_size}")
    return n


def codec_layers(latent_size, seed_len, hidden):
    """The codec's layers in network order, as the ``descriptor()`` dicts
    its network file holds: the encoder ``enc``, then the decoder stack
    ``d1 n1 d2 n2 d3 ln``. :class:`CodecPair` builds these and ``megsim
    table`` counts them; the decoder's residual add is in ``decode_flat``."""
    def dense(name, n_in, n_out, activation):
        return {"kind": "dense", "in_features": n_in, "out_features": n_out,
                "activation": activation, "name": name}

    def norm(kind, name, size):
        return {"kind": kind, "size": size, "epsilon": 1e-6, "name": name}

    n, L, h = latent_size, seed_len, hidden
    return [dense("enc", n, L, "none"), dense("d1", L, n, "relu"),
            norm("normalize", "n1", n), dense("d2", n, h, "relu"),
            norm("normalize", "n2", h), dense("d3", h, n, "relu"),
            norm("layernorm", "ln", n)]


class CodecPair:
    """Encoder/decoder networks at one compression ``rate``, with the latent
    geometry, ``codec_hidden`` width and training SNR of the experiment
    config ``cfg``."""

    def __init__(self, cfg, rate, rng=None):
        rng = None if rng is None else as_rng(rng)
        self.latent_shape = cfg.latent_shape
        self.latent_size = cfg.latent_size
        self.rate = float(rate)
        self.hidden = cfg.codec_hidden
        self.train_snr_db = cfg.codec_train_snr_db
        self.seed_len = seed_length(self.latent_size, rate)
        self.net = nn.Network(
            [nn.layer_from_descriptor(desc, rng) for desc in codec_layers(
                self.latent_size, self.seed_len, self.hidden)], name="codec")
        self.enc, self.d1, self.n1, self.d2, self.n2, self.d3, self.ln = \
            self.net.layers

    # -- forward maps ------------------------------------------------------

    def decode_flat(self, symbols, cache=False):
        """Decoder stack with the residual add of its first projection."""
        h1 = self.d1.forward(symbols, cache=cache)
        x = self.n1.forward(h1, cache=cache)
        x = self.d2.forward(x, cache=cache)
        x = self.n2.forward(x, cache=cache)
        x = self.d3.forward(x, cache=cache)
        x = self.ln.forward(x, cache=cache)
        return x + h1

    def _decode_backward(self, upstream):
        """Gradients through decode_flat; returns (grad_symbols, param grads)."""
        g_ln, g_gain, g_offset = self.ln.backward(upstream)
        g_d3, gw3, gb3 = self.d3.backward(g_ln)
        (g_n2,) = self.n2.backward(g_d3)
        g_d2, gw2, gb2 = self.d2.backward(g_n2)
        (g_n1,) = self.n1.backward(g_d2)
        g_h1 = g_n1 + upstream          # residual branch
        g_sym, gw1, gb1 = self.d1.backward(g_h1)
        return g_sym, [gw1, gb1, gw2, gb2, gw3, gb3, g_gain, g_offset]

    # -- public codec operations --------------------------------------------

    def compress(self, latents):
        """Encode latents [P, *latent_shape], or a stack of batches [S, P,
        *latent_shape] with each batch encoded as a call of its own, at
        unit mean symbol power. Returns the seeds in row order: float32
        symbols [N, seed_len] and the float64 scales [N] that undo the
        normalization."""
        z = np.asarray(latents, dtype=np.float32)
        lead = z.ndim - len(self.latent_shape)
        if lead not in (1, 2) or z.shape[lead:] != self.latent_shape:
            raise DimensionError(
                f"latent batch shape {z.shape} is not [P, "
                f"*{self.latent_shape}] or a stack of such batches")
        raw = self.enc.forward(z.reshape(z.shape[:lead] + (-1,)),
                               cache=False).reshape(-1, self.seed_len)
        scales = np.sqrt(np.mean(raw.astype(np.float64) ** 2, axis=1))
        if not scales.all():
            raise CodecError("encoder produced a zero-power seed")
        return raw / scales.astype(np.float32)[:, None], scales

    def decompress(self, received, scale):
        """Undo the power normalization, decode, and reshape to the latent.
        P seeds [P, seed_len] and P scales give [P, *latent_shape], each row
        rescaled in the symbols' dtype and decoded as a batch of one."""
        x = np.asarray(received)
        if x.ndim != 2 or x.shape[1] != self.seed_len:
            raise CodecError(f"received symbols of shape {x.shape}, codec "
                             f"expects [P, {self.seed_len}]")
        scales = np.reshape(scale, (-1, 1, 1)).astype(np.result_type(x, 1.0))
        u = (x[:, None] * scales).astype(np.float32)
        z = self.decode_flat(u, cache=False)
        return z.reshape((len(x),) + self.latent_shape)

    # -- persistence ---------------------------------------------------------

    def save(self, path, extra=None):
        meta = {"rate": self.rate, "hidden": self.hidden,
                "latent_shape": list(self.latent_shape),
                "train_snr_db": self.train_snr_db}
        meta.update(extra or {})
        nn.save_network(path, self.net, extra=meta)


# ---------------------------------------------------------------------------
# end-to-end training through the channel

def _transmission_forward(pair: CodecPair, z_flat, eff_noise, cache):
    """Shared forward pass for loss and gradients.

    ``eff_noise`` is the receiver-referred noise per sample, i.e. channel
    noise divided by gain and power amplitude. The decoder then sees
    ``x + scale * eff_noise`` because normalization and equalization cancel
    everywhere except on the noise term.
    """
    raw = pair.enc.forward(z_flat, cache=cache)
    power = np.mean(raw.astype(np.float64) ** 2, axis=1, keepdims=True)
    scale = np.sqrt(np.maximum(power, 1e-24)).astype(raw.dtype)
    u = raw + scale * eff_noise.astype(raw.dtype)
    z_hat = pair.decode_flat(u, cache=cache)
    diff = z_hat - z_flat
    loss = float(np.mean(diff.astype(np.float64) ** 2))
    return loss, raw, scale, diff


def transmission_loss(pair: CodecPair, latents, eff_noise):
    """Per-element MSE of latents recovered through the noisy channel."""
    z = np.asarray(latents).reshape(len(latents), -1)
    loss, _, _, _ = _transmission_forward(pair, z, eff_noise, cache=False)
    return loss


def transmission_gradients(pair: CodecPair, latents, eff_noise):
    """Analytic gradients of :func:`transmission_loss` into ``pair.net.grad``.

    The fading gain and noise draw are treated as constants; the
    per-sample normalization scale is differentiated exactly.
    """
    z = np.asarray(latents).reshape(len(latents), -1)
    pair.net.bind_grad()
    loss, raw, scale, diff = _transmission_forward(pair, z, eff_noise,
                                                   cache=True)
    if not np.isfinite(loss):
        raise TrainingError("codec loss is not finite")
    g_zhat = (2.0 / diff.size) * diff
    g_u, dec_grads = pair._decode_backward(g_zhat)
    # u = raw + scale(raw) * noise, with scale the per-row RMS of raw
    inner = np.sum(g_u * eff_noise, axis=1, keepdims=True)
    g_raw = g_u + inner * raw / (raw.shape[1] * scale)
    _, gw_enc, gb_enc = pair.enc.backward(g_raw, input_grad=False)
    return loss, [gw_enc, gb_enc] + dec_grads


def train_codec(latents, cfg, rate, seed):
    """Joint encoder/decoder training of :class:`CodecPair` ``(cfg, rate)``
    through the fading channel, for latents [N, *latent_shape], with the
    ``codec_*`` and ``channel_kind`` settings of the experiment config
    ``cfg``.

    Fresh fading and noise are drawn for every batch at the configured
    training SNR; a ``codec_train_snr_db`` of None trains against a clean
    channel, reducing the codec to a plain autoencoder on latents.
    Returns (pair, per-epoch mean loss history).
    """
    latents = np.asarray(latents, dtype=np.float32)
    if latents.shape[1:] != cfg.latent_shape or not len(latents):
        raise DimensionError(f"latents of shape {latents.shape} are not a "
                             f"non-empty batch [N, *{cfg.latent_shape}]")
    rng = as_rng(seed)
    pair = CodecPair(cfg, rate, rng)
    flat = latents.reshape(latents.shape[0], -1)
    snr_db = cfg.codec_train_snr_db
    noise_std = 0.0 if snr_db is None else snr_to_noise_std(snr_db)
    opt = nn.Adam(cfg.codec_lr)
    history = []
    for _ in range(cfg.codec_epochs):
        order = rng.permutation(flat.shape[0])
        epoch_losses = []
        for start in range(0, len(order), cfg.codec_batch):
            batch = flat[order[start:start + cfg.codec_batch]]
            shape = (batch.shape[0], pair.seed_len)
            if noise_std > 0:
                gains = np.maximum(fading_gains(cfg.channel_kind,
                                                (batch.shape[0], 1), rng),
                                   1e-3)
                eff_noise = rng.normal(0.0, noise_std, size=shape) / gains
            else:
                eff_noise = np.zeros(shape)
            loss, _ = transmission_gradients(pair, batch, eff_noise)
            epoch_losses.append(loss)
            opt.step(*nn.network_vectors([pair.net]))
        history.append(float(np.mean(epoch_losses)))
    pair.net.release_grad()
    return pair, history
