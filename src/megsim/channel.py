"""Point-to-point link simulation: block fading, additive noise, power
scaling, and zero-forcing equalization at the receiver.

The baseband is real-valued; one positive gain per coherence block stands
in for the fading magnitude, and allocated power enters as an amplitude
factor sqrt(p) so that transmitted energy scales linearly with p.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ChannelErasure
from .util import as_rng, write_csv

KINDS = ("awgn", "rayleigh_block")


def snr_to_noise_std(snr_db, signal_power=1.0):
    """Noise standard deviation realizing an SNR against a known signal power."""
    if signal_power <= 0:
        raise ValueError("signal power must be positive")
    return float(np.sqrt(signal_power / 10.0 ** (snr_db / 10.0)))


@dataclass
class ChannelModel:
    kind: str = "rayleigh_block"
    block_length: int = 16

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.block_length < 1:
            raise ValueError("block length must be >= 1")


@dataclass
class FadingTrace:
    """Per-block channel magnitudes; unit average power for Rayleigh fading."""
    gains: np.ndarray
    block_length: int

    def __post_init__(self):
        self.gains = np.asarray(self.gains, dtype=np.float64)
        if np.any(self.gains <= 0):
            raise ValueError("all block gains must be positive")

    def __len__(self):
        return len(self.gains)


def sample_fading_trace(model: ChannelModel, num_blocks, rng) -> FadingTrace:
    """Draw per-block gains: all ones for AWGN, Rayleigh magnitudes with
    E[h^2] = 1 for block fading."""
    if num_blocks < 1:
        raise ValueError("num_blocks must be >= 1")
    rng = as_rng(rng)
    if model.kind == "awgn":
        gains = np.ones(num_blocks)
    else:
        # Rayleigh scale 1/sqrt(2) gives E[h^2] = 2 * scale^2 = 1
        gains = rng.rayleigh(scale=1.0 / np.sqrt(2.0), size=num_blocks)
        gains = np.maximum(gains, 1e-12)
    return FadingTrace(gains, model.block_length)


def block_count(symbols, block_length):
    """Coherence blocks that ``symbols`` fill; the last may be short."""
    return -(-symbols // block_length)


def transmit(symbols, gain, power, noise_std, rng):
    """Symbols over the link: y = h * sqrt(p) * x + n.

    ``gain`` and ``power`` are scalars for one block or per-symbol arrays
    that broadcast against ``symbols``; the noise is one draw of the
    symbols' shape.
    """
    if np.any(np.asarray(power) < 0):
        raise ValueError("power must be >= 0")
    x = np.asarray(symbols, dtype=np.float64)
    y = gain * np.sqrt(power) * x
    if noise_std > 0:
        y += as_rng(rng).normal(0.0, noise_std, size=x.shape)
    return y


def equalize(received, gain, power):
    """Zero-forcing estimate x_hat = y / (h * sqrt(p)); ``gain``/``power``
    may be per-symbol arrays, as in :func:`transmit`.

    Raises :class:`ChannelErasure` when any effective gain is zero: such
    a block carries nothing to estimate, so callers leave it out.
    """
    eff = gain * np.sqrt(power) if np.all(np.asarray(power) > 0) else 0.0
    if np.any(eff <= 0):
        raise ChannelErasure("block transmitted with zero effective gain")
    return np.asarray(received, dtype=np.float64) / eff


def export_trace_set(traces, path):
    """Write many traces to one CSV as (trace, block, gain) rows."""
    write_csv(path, ["trace", "block", "gain"],
              ((t, i, h) for t, trace in enumerate(traces)
               for i, h in enumerate(trace.gains)),
              comment=f"megsim fading trace set v1 "
                      f"block_length={traces[0].block_length}")

