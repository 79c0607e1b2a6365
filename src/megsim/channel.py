"""Point-to-point link simulation: block fading, additive noise, power
scaling, and zero-forcing equalization at the receiver.

The baseband is real-valued; one positive gain per coherence block stands
in for the fading magnitude, and allocated power enters as an amplitude
factor sqrt(p) so that transmitted energy scales linearly with p; a block
sent at zero power is erased, and the receiver reads it as zeros.
"""

import numpy as np

from .util import as_rng, write_csv

KINDS = ("awgn", "rayleigh_block")


def snr_to_noise_std(snr_db):
    """Noise standard deviation realizing an SNR against unit signal power."""
    return float(np.sqrt(1.0 / 10.0 ** (snr_db / 10.0)))


def fading_gains(kind, shape, rng):
    """Per-block gains of ``shape``, filled in row order: all ones for
    AWGN, Rayleigh magnitudes with E[h^2] = 1 for block fading. One draw
    of [E, B] equals E draws of [B] from the same generator."""
    if kind not in KINDS:
        raise ValueError(f"unknown channel kind {kind!r}")
    if kind == "awgn":
        return np.ones(shape)
    # Rayleigh scale 1/sqrt(2) gives E[h^2] = 2 * scale^2 = 1
    return np.maximum(as_rng(rng).rayleigh(1.0 / np.sqrt(2.0), shape), 1e-12)


def block_count(symbols, block_length):
    """Coherence blocks that ``symbols`` fill; the last may be short."""
    if block_length < 1:
        raise ValueError("block length must be >= 1")
    return -(-symbols // block_length)


def transmit(symbols, gain, power, noise):
    """Symbols over the link: y = h * sqrt(p) * x + n.

    ``gain`` and ``power`` are scalars for one block or per-symbol arrays
    that broadcast against ``symbols``; ``noise`` is the drawn noise n,
    of the symbols' shape, or 0.0 for a noiseless link.
    """
    if not np.all(np.asarray(power) >= 0):
        raise ValueError("power must be >= 0")
    y = gain * np.sqrt(power) * np.asarray(symbols, dtype=np.float64)
    y += noise
    return y


def equalize(received, gain, power):
    """Zero-forcing estimate x_hat = y / (h * sqrt(p)); ``gain``/``power``
    may be per-symbol arrays, as in :func:`transmit`.

    Where the effective gain h * sqrt(p) is zero the symbol was erased and
    reads as +0.0; a negative or NaN effective gain raises ValueError.
    """
    eff = gain * np.sqrt(power)
    if not np.all(eff >= 0):
        raise ValueError("effective gain must be >= 0")
    received = np.asarray(received, dtype=np.float64)
    out = np.zeros(np.broadcast_shapes(received.shape, np.shape(eff)))
    np.divide(received, eff, out=out, where=eff > 0)
    return out


def export_trace_set(gains, block_length, path):
    """Write traces of gains [n, blocks] to one CSV as (trace, block,
    gain) rows."""
    write_csv(path, ["trace", "block", "gain"],
              ((t, i, h) for t, row in enumerate(gains)
               for i, h in enumerate(row)),
              comment=f"megsim fading trace set v1 "
                      f"block_length={block_length}")
