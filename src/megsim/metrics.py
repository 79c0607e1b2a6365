"""Image quality and transmission cost metrics.

The Frechet score uses a frozen random-weight feature extractor instead
of a pretrained classifier, so it is reported everywhere as a proxy: it
preserves the distance machinery and relative ordering, not absolute
published magnitudes. The distance is exact and closed-form: its cross
term is the nuclear norm of the product of the two centered feature
batches, so no covariance matrix or matrix square root is formed.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import nn
from .errors import DimensionError
from .seedcodec import seed_length
from .util import as_rng

EXTRACTOR_SEED = 0xFEED
MODES = ("centralized", "raw_feature", "meg")


def mse(generated, reference):
    """Mean squared per-pixel difference (all channels)."""
    a = np.asarray(generated, dtype=np.float64)
    b = np.asarray(reference, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    d = a - b
    return float(np.mean(d * d))


def psnr(generated, reference, peak):
    """10 log10(peak^2 / MSE) in dB; identical inputs give +inf."""
    if peak <= 0:
        raise ValueError("peak value must be positive")
    err = mse(generated, reference)
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / err)


@lru_cache(maxsize=16)
def _frozen_network(input_size, feature_dim, hidden, seed):
    """The extractor's network, built once per process and read-only."""
    rng = as_rng(seed)
    net = nn.Network([
        nn.DenseLayer(input_size, hidden, "tanh", rng, "f1"),
        nn.DenseLayer(hidden, feature_dim, "tanh", rng, "f2"),
    ], name="extractor")
    for array in [net.flat] + net.params():
        array.flags.writeable = False
    return net


class FeatureExtractor:
    """Frozen tanh network mapping an image to a fixed-length feature vector.

    Parameters are drawn from a fixed seed once per process, at first use,
    and never trained, so the same image always maps to the same features.
    """

    def __init__(self, input_size, feature_dim=64, hidden=128,
                 seed=EXTRACTOR_SEED):
        self.input_size = int(input_size)
        self.feature_dim = int(feature_dim)
        self.hidden = int(hidden)
        self.seed = seed

    @cached_property
    def net(self):
        return _frozen_network(self.input_size, self.feature_dim, self.hidden,
                               self.seed)

    def extract(self, images):
        """Features [N, feature_dim] (float64) of a batch of images [N, ...],
        or [S, N, feature_dim] of a stack of batches [S, N, C, H, W]. The
        first layer runs on a stack's flat rows [S·N, n], the last one
        batch by batch, as a network call of its own (see ``nn``)."""
        batch = np.asarray(images, dtype=np.float32)
        lead = batch.shape[:2 if batch.ndim == 5 else 1]
        rows = batch.reshape(math.prod(lead), -1)
        if rows.shape[1] != self.input_size:
            raise DimensionError(
                f"extractor built for {self.input_size} values per image, "
                f"got {rows.shape[1]}")
        first, last = self.net.layers
        hidden = first.forward(rows, cache=False)
        return last.forward(hidden.reshape(lead + (-1,)), cache=False) \
            .astype(np.float64)


def frechet_distance(features_a, features_b):
    """Frechet distance between Gaussian fits of two feature batches.

    Covariances use 1/(n-1) normalization. With the centered batches
    A = a - mu_a [n, F] and B = b - mu_b [m, F], the nonzero eigenvalues
    of C_b^1/2 C_a C_b^1/2 are those of A B^T B A^T / ((n-1)(m-1)), so its
    trace square root is the nuclear norm (sum of singular values) of
    A B^T, scaled, and the distance is exactly

        |mu_a - mu_b|^2 + |A|_F^2 / (n-1) + |B|_F^2 / (m-1)
            - 2 |A B^T|_* / sqrt((n-1)(m-1))

    No F x F matrix is formed and no eigenvalue is clamped. A side with
    more rows than features is first reduced to the R factor of its QR
    decomposition (an orthogonal factor leaves the singular values of the
    product unchanged), so the SVD is at most min(n, F) x min(m, F)
    whatever the batch sizes; a side with n <= F rows enters as it is.

    ``features_a`` may also be a stack of E batches [E, n, F]; the result
    is then an array of E distances, each against ``features_b``, whose
    fit is computed once, or, when ``features_b`` is a stack [E, m, F]
    too, each against its own reference batch.
    """
    a = np.asarray(features_a, dtype=np.float64)
    b = np.asarray(features_b, dtype=np.float64)
    if a.ndim not in (2, 3) or b.ndim not in (2, a.ndim):
        raise ValueError("feature batches must be 2-d [N, F] (the first "
                         "may be a stack [E, N, F], and then the second "
                         "too)")
    stacked = a.ndim == 3
    if b.ndim == 3 and len(b) != len(a):
        raise ValueError(f"{len(a)} batches against {len(b)} references")
    # [E, n, F] against [1, m, F] (one reference) or [E, m, F]
    a, b = a.reshape((-1,) + a.shape[-2:]), b.reshape((-1,) + b.shape[-2:])
    if a.shape[1] < 2 or b.shape[1] < 2:
        raise ValueError("each batch needs at least 2 samples")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise FloatingPointError("feature batches hold NaN or infinity")
    n, m = a.shape[1], b.shape[1]
    mu_a, mu_b = a.mean(axis=1), b.mean(axis=1)
    centered_a, centered_b = a - mu_a[:, None], b - mu_b[:, None]
    diff = mu_a - mu_b
    factor_a, factor_b = (np.linalg.qr(c, mode="r")
                          if c.shape[1] > c.shape[2] else c
                          for c in (centered_a, centered_b))
    nuclear = np.linalg.svd(factor_a @ factor_b.swapaxes(1, 2),
                            compute_uv=False).sum(axis=-1)
    scale = math.sqrt((n - 1) * (m - 1))
    values = (np.einsum("ei,ei->e", diff, diff)
              + np.einsum("eij,eij->e", centered_a, centered_a) / (n - 1)
              + np.einsum("eij,eij->e", centered_b, centered_b) / (m - 1)
              - 2.0 * nuclear / scale)
    if not np.isfinite(values).all():
        raise FloatingPointError("Frechet distance is not finite")
    values = np.maximum(values, 0.0)
    return values if stacked else float(values[0])


def fid(batch_generated, batch_reference, extractor: FeatureExtractor,
        reference_features=None):
    """Frechet distance between the feature clouds of two image batches.

    A reference batch scored many times can pass its features once
    extracted, ``extractor.extract(batch_reference)``, as
    ``reference_features``; ``batch_reference`` is then not read.
    ``batch_generated`` is one batch of images [n, C, H, W] or a stack of
    E batches [E, n, C, H, W], which returns an array of E distances. A
    stack scored against one reference is extracted in one call on its
    flat rows; against a stack of E references (a stack of E batches or
    their features [E, m, F]) both are extracted batch by batch, so each
    distance is the one its batch scores alone.
    """
    if reference_features is None:
        reference_features = extractor.extract(batch_reference)
    generated = np.asarray(batch_generated)
    if generated.ndim == 5 and np.ndim(reference_features) == 2:
        flat = generated.reshape((-1,) + generated.shape[2:])
        features = extractor.extract(flat).reshape(
            generated.shape[:2] + (-1,))
    else:
        features = extractor.extract(generated)
    return frechet_distance(features, reference_features)


def symbol_count(mode, image_shape, downsample, rate=None, latent_channels=None):
    """Real symbols on the wire for one generation.

    ``centralized`` sends every pixel value; ``raw_feature`` sends the
    latent; ``meg`` sends the compressed seed. ``latent_channels`` defaults
    to the image channel count.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    channels, height, width = image_shape
    if mode == "centralized":
        return channels * height * width
    z_ch = channels if latent_channels is None else latent_channels
    latent = z_ch * (height // downsample) * (width // downsample)
    if mode == "raw_feature":
        return latent
    if rate is None:
        raise ValueError("meg mode needs a compression rate")
    return seed_length(latent, rate)


@dataclass
class MetricReport:
    """Quality and cost numbers for one end-to-end generation."""
    psnr_db: float
    fid_score: float
    mse: float
    symbols: int

    def __post_init__(self):
        for name in ("fid_score", "mse"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if math.isnan(self.psnr_db):
            raise ValueError("psnr_db may be +inf but not NaN")
