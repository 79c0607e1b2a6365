"""Edge-inferencing protocol: the edge server's and the receiver's sides,
the binary seed frame, and the end-to-end driver: :func:`serve_cells`
serves sweep cells in one batch, and :func:`run_end_to_end` receives a
chunk of them from their seed frames, each cell one generation (plus the
two benchmark deliveries, see ``metrics.MODES``) over its own fading.

Seed frame layout (little endian)::

    offset  size  field
    0       4     magic "MGSF"
    4       1     format version (1)
    5       2     compression rate, unsigned 0.16 fixed point
    7       6     latent shape, three u16 dims
    13      4     payload length in symbols, u32
    17      4     coherence block length, u32
    21      8     power normalization scale, f64
    29      4     CRC32 of bytes 0..29
    33      ...   payload, float32 symbols

Only the payload ever crosses the noisy channel; the header is control
information and is assumed delivered intact.
"""

import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from . import genmodel, metrics
from .errors import DimensionError, FrameError, ProtocolError
from .seedcodec import CodecPair
from .util import as_rng

FRAME_MAGIC = b"MGSF"
FRAME_VERSION = 1
_HEADER = "<4sBH3HIId"
_HEADER_LEN = 29
RATE_FIXED_ONE = 1 << 16


def rate_fixed(rate):
    """A codec rate as the seed frame's unsigned 0.16 fixed-point value."""
    return int(round(rate * RATE_FIXED_ONE))


# ---------------------------------------------------------------------------
# wire format

@dataclass(eq=False)
class SeedFrame:
    """One seed frame. Compare frames by their ``encode_frame`` bytes:
    ``==`` is identity."""
    rate_fixed: int
    latent_shape: tuple
    block_length: int
    scale: float
    payload: np.ndarray


def encode_frame(frame: SeedFrame) -> bytes:
    header = struct.pack(_HEADER, FRAME_MAGIC, FRAME_VERSION,
                         frame.rate_fixed, *frame.latent_shape,
                         frame.payload.size, frame.block_length, frame.scale)
    crc = zlib.crc32(header)
    return header + crc.to_bytes(4, "little") + frame.payload.tobytes()


def decode_frame(data: bytes) -> SeedFrame:
    if len(data) < _HEADER_LEN + 4:
        raise FrameError("frame shorter than its header")
    header = data[:_HEADER_LEN]
    magic, version, fixed, d0, d1, d2, payload_len, block_len, scale = \
        struct.unpack(_HEADER, header)
    if magic != FRAME_MAGIC:
        raise FrameError("bad frame magic")
    if version != FRAME_VERSION:
        raise FrameError(f"unsupported frame version {version}")
    crc = int.from_bytes(data[_HEADER_LEN:_HEADER_LEN + 4], "little")
    if crc != zlib.crc32(header):
        raise FrameError("header checksum mismatch")
    body = data[_HEADER_LEN + 4:]
    if len(body) != payload_len * 4:
        raise FrameError(
            f"payload of {len(body)} bytes, header says {payload_len * 4}")
    payload = np.frombuffer(body, dtype="<f4").copy()
    return SeedFrame(fixed, (d0, d1, d2), block_len, scale, payload)


# ---------------------------------------------------------------------------
# bundles and results

@dataclass
class ModelBundle:
    """Everything both endpoints need to run generations."""
    autoencoder: genmodel.AutoencoderPair
    denoiser: genmodel.Denoiser
    schedule: genmodel.NoiseSchedule
    codecs: dict
    extractor: metrics.FeatureExtractor

    def codec_for(self, rate) -> CodecPair:
        if rate not in self.codecs:
            raise ProtocolError(f"no codec trained for rate {rate}")
        return self.codecs[rate]


def es_handle_request(bundle: ModelBundle, prompts, noise, rate,
                      block_length: int, cells=1):
    """Server side: embed, generate, compress, frame. A non-empty list of
    N prompts is served as one batch at one codec ``rate``, each prompt's
    sampler starting from its row of ``noise`` [N, *latent_shape]; returns
    (frames, latents), one SeedFrame per prompt and the sampled latents
    [N, *latent_shape], in prompt order. The batch may hold ``cells``
    equal groups of consecutive prompts, one per sweep cell, as
    :func:`serve_cells` sends all of a sweep batch's cells: the sampler
    runs on every row at once and the codec encoder group by group, as
    each group alone (see ``nn``)."""
    shape = bundle.autoencoder.latent_shape
    if not prompts or np.shape(noise) != (len(prompts),) + shape:
        raise ProtocolError(f"expected at least one prompt and a noise "
                            f"row {shape} per prompt, got {len(prompts)} "
                            f"prompts and noise {np.shape(noise)}")
    if len(prompts) % cells:
        raise ProtocolError(f"{len(prompts)} prompts do not split into "
                            f"{cells} equal groups")
    codec = bundle.codec_for(rate)
    latents = genmodel.generate_latent(bundle.denoiser, prompts, noise,
                                       bundle.schedule)
    symbols, scales = codec.compress(latents.reshape((cells, -1) + shape))
    fixed = rate_fixed(codec.rate)
    frames = [SeedFrame(fixed, codec.latent_shape, int(block_length),
                        float(scale), np.ascontiguousarray(row, dtype="<f4"))
              for row, scale in zip(symbols, scales)]
    return frames, latents


@dataclass
class GenerationResult:
    images: list
    report: metrics.MetricReport
    degraded: bool = False    # read by perfbench's protocol.degraded_share


@dataclass
class EndToEndReport:
    """One chunk of S cells of P prompts: ``results[cell, mode]`` is a
    GenerationResult; ground truths [S, P, C, H, W] and each cell's
    fading gains [S, blocks]."""
    results: dict
    ground_truths: np.ndarray
    gains: np.ndarray

    def __getitem__(self, key):
        return self.results[key]


# ---------------------------------------------------------------------------
# transmission helpers

def transmit_stream(payloads, gains, block_length, noise_std, rng):
    """Send payloads [P, N] at unit power over a trace of per-block
    ``gains``, every row on the same blocks; returns (received, gains)
    per symbol. One noise draw of the payloads' shape equals drawing each
    row in turn."""
    x = np.asarray(payloads)
    if x.ndim != 2:
        raise DimensionError(f"payloads must be a stack [P, N], got {x.shape}")
    n = x.shape[1]
    nb = ch.block_count(n, block_length)
    gains = np.asarray(gains, dtype=np.float64)[:nb]
    if len(gains) < nb or not np.all(gains > 0):
        raise ValueError(f"{n} symbols need {nb} blocks of positive gain")
    gains = np.repeat(gains, block_length)[:n]
    noise = as_rng(rng).normal(0.0, noise_std, x.shape) if noise_std > 0 \
        else 0.0
    return ch.transmit(x, gains, 1.0, noise), gains


def recover_stream(received, gains):
    """Zero-forcing estimate of what :func:`transmit_stream` sent."""
    return ch.equalize(received, gains, 1.0)


def ue_receive(bundle: ModelBundle, wire_frames, received):
    """Receiver side for a batch of seed deliveries.

    ``wire_frames`` holds one encoded frame per prompt, at least one, all
    at one codec rate that a deployed codec serves and of its latent shape,
    and ``received`` what :func:`transmit_stream` returned for their
    stacked payloads, one row per frame, or None when the perfect channel
    carried the payloads intact; else ProtocolError. Returns the decoded
    images [P, C, H, W], one per frame.
    """
    frames = [decode_frame(data) for data in wire_frames]
    if not frames or (received and len(received[0]) != len(frames)):
        raise ProtocolError(f"need at least one frame and one received row "
                            f"per frame, got {len(frames)} frames")
    if len({frame.rate_fixed for frame in frames}) > 1:
        raise ProtocolError("a received batch must share one codec rate")
    symbols = recover_stream(*received) if received is not None \
        else [frame.payload.astype(np.float64) for frame in frames]
    # the deployed rate with the header's fixed-point value; each UE decodes
    # its frame as a batch of one in a stack that holds every frame
    rates = {rate_fixed(rate): rate for rate in bundle.codecs}
    fixed = frames[0].rate_fixed
    if fixed not in rates:
        raise ProtocolError(f"no deployed codec serves the frames' rate "
                            f"{fixed / RATE_FIXED_ONE:.6g}")
    codec = bundle.codec_for(rates[fixed])
    if any(frame.latent_shape != codec.latent_shape for frame in frames):
        raise ProtocolError("a frame's latent shape is not its codec's")
    latents = codec.decompress(np.stack(symbols), [f.scale for f in frames])
    return bundle.autoencoder.decode(latents[:, None])[:, 0]


def batch_report(images, ground_truths, extractor, symbols,
                 reference_features=None):
    """One MetricReport per batch of a stack [S, P, C, H, W]: PSNR/MSE
    averaged over the batch plus its Frechet score against its own
    ground truths [S, P, C, H, W], whose features [S, P, F], if already
    extracted, are ``reference_features`` (see :func:`metrics.fid`)."""
    a, b = np.asarray(images), np.asarray(ground_truths)
    if a.shape != b.shape or a.ndim != 5:
        raise DimensionError(f"shapes {a.shape} and {b.shape} are not one "
                             f"stack of batches [S, P, C, H, W]")
    fids = metrics.fid(a, b, extractor, reference_features)
    reports = []
    # one float64 difference buffer for every batch
    d = np.empty((a.shape[1], a[0, 0].size))
    for x, y, fid_score in zip(a, b, fids):
        # per-image means over contiguous rows, as metrics.mse takes them
        np.subtract(x.reshape(d.shape), y.reshape(d.shape), out=d,
                    dtype=np.float64)
        mean_mse = float(np.mean(np.mean(np.square(d, out=d), axis=1)))
        psnr_db = math.inf if mean_mse == 0.0 \
            else 10.0 * math.log10(1.0 / mean_mse)
        reports.append(metrics.MetricReport(psnr_db, float(fid_score),
                                            mean_mse, symbols))
    return reports


# ---------------------------------------------------------------------------
# end-to-end driver

@dataclass
class RunSpec:
    """One paired trial, a sweep cell: every mode rides the same fading
    trace, and the cell draws everything from one generator of ``seed``."""
    snr_db: float | None          # None is the perfect channel
    channel_kind: str
    seed: int = 0


def serve_cells(bundle: ModelBundle, prompts, rate, block_length, specs):
    """The server phase for every cell of ``specs`` at once: each cell's
    generator draws its server noise [P, *latent_shape], and one
    :func:`es_handle_request` serves all S cells, its sampler on their
    S·P flat rows and its codec encoder cell by cell (see ``nn``).
    Returns one (spec, generator, P seed frames, latents [P,
    *latent_shape]) tuple per cell, so a slice of the list is the phase
    for those cells alone."""
    if not specs or not prompts:
        raise ValueError("at least one cell and one prompt are required")
    cells, count = len(specs), len(prompts)
    shape = bundle.autoencoder.latent_shape
    rngs = [as_rng(spec.seed) for spec in specs]
    frames, latents = es_handle_request(
        bundle, list(prompts) * cells,
        np.concatenate([rng.standard_normal((count,) + shape)
                        for rng in rngs]), rate, block_length, cells)
    return [(spec, rng, frames[c * count:(c + 1) * count],
             latents[c * count:(c + 1) * count])
            for c, (spec, rng) in enumerate(zip(specs, rngs))]


def run_end_to_end(bundle: ModelBundle, served) -> EndToEndReport:
    """The receiver phase of a chunk of cells, a slice of what
    :func:`serve_cells` returned: decode the ground truths and extract
    their features, run each cell's link at its spec's SNR and channel
    kind, its frame round trip and batch-of-one UE decodes, and score.
    Rate and block length come from the seed frames' headers, as a UE
    reads them; a chunk's cells must share both (else ProtocolError). A
    served list is received once: the receiver draws on its generators.

    Each cell draws everything from one generator of its seed, in this
    order: its server noise [P, *latent_shape] in one draw, its fading
    trace, then each mode's link noise in ``metrics.MODES`` order. The
    sampler runs on the served batch's flat rows, the decodes of the
    ground truths and of the raw-feature latents and the feature
    extractor's first layer on the chunk's, and the codec encoder and the
    extractor's last layer on stacks of cells (see ``nn``). So a cell's
    results are bit for bit those of a chunk of one only where the BLAS
    rounds each cell's share of the flat rows as it rounds that cell
    alone: at desk layer widths on OpenBLAS 0.3.31, from 10 prompts per
    cell (checked end to end at 10 to 64 for chunks of 2 to 4 cells and
    server batches of up to 40), but not at 9 or fewer, where the
    sampler's latents already differ; so ``megsim sweep`` serves and
    receives such cells one at a time.
    """
    if not served:
        raise ValueError("at least one served cell is required")
    specs, rngs, frames, latents = zip(*served)
    headers = {(frame.rate_fixed, frame.block_length)
               for cell in frames for frame in cell}
    if len(headers) > 1:
        raise ProtocolError("a chunk's cells must share one codec rate and "
                            "block length")
    ((_, block_length),) = headers
    image_shape = bundle.autoencoder.image_shape
    latent_shape = bundle.autoencoder.latent_shape
    latents = np.stack(latents)
    stack = latents.shape[:2]
    truths = bundle.autoencoder.decode(
        latents.reshape((-1,) + latent_shape)).reshape(stack + image_shape)
    # every mode of a cell is scored against the cell's ground truths
    reference = bundle.extractor.extract(truths)

    counts = {"centralized": int(np.prod(image_shape)),
              "raw_feature": int(np.prod(latent_shape)),
              "meg": frames[0][0].payload.size}
    blocks = ch.block_count(max(counts.values()), block_length)
    gains = np.stack([ch.fading_gains(spec.channel_kind, blocks, rng)
                      for spec, rng in zip(specs, rngs)])

    results = {}
    for mode in metrics.MODES:
        source = latents if mode == "raw_feature" else truths
        # the received images, or the latents that raw_feature receives
        batch = np.empty(source.shape, np.float32)
        for cell, (spec, rng) in enumerate(zip(specs, rngs)):
            noise_std = None if spec.snr_db is None \
                else ch.snr_to_noise_std(spec.snr_db, 1.0)
            if mode == "meg":
                sent = None if noise_std is None else transmit_stream(
                    np.stack([frame.payload for frame in frames[cell]]),
                    gains[cell], block_length, noise_std, rng)
                batch[cell] = ue_receive(
                    bundle, [encode_frame(frame) for frame in frames[cell]],
                    sent)
                continue
            payloads = source[cell].reshape(stack[1], -1).astype(np.float64)
            if noise_std is not None:
                # each row is sent at unit RMS power and rescaled on receipt
                scale = np.sqrt(np.mean(payloads ** 2, axis=1, keepdims=True))
                scale = np.where(scale > 0, scale, 1.0)
                payloads /= scale
                payloads = recover_stream(*transmit_stream(
                    payloads, gains[cell], block_length, noise_std, rng))
                payloads *= scale
            if mode == "centralized":
                np.clip(payloads, 0.0, 1.0, out=payloads)
            batch[cell] = payloads.reshape(source.shape[1:])
        if mode == "raw_feature":
            batch = bundle.autoencoder.decode(
                batch.reshape((-1,) + latent_shape)).reshape(
                    stack + image_shape)
        reports = batch_report(batch, truths, bundle.extractor, counts[mode],
                               reference)
        for cell, report in enumerate(reports):
            results[cell, mode] = GenerationResult(list(batch[cell]), report)
    return EndToEndReport(results, truths, gains)
