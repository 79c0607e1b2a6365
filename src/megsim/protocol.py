"""Edge-inferencing protocol: the edge server's and the receiver's sides,
the binary seed frame, and the end-to-end driver that runs one
generation (plus the two benchmark deliveries, see ``metrics.MODES``)
over a shared fading trace.

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
from .seedcodec import CodecPair, Seed, seed_length
from .util import as_rng, derive_seed

FRAME_MAGIC = b"MGSF"
FRAME_VERSION = 1
_HEADER = "<4sBH3HIId"
_HEADER_LEN = 29
RATE_FIXED_ONE = 1 << 16


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

    @property
    def rate(self):
        return self.rate_fixed / RATE_FIXED_ONE


def frame_from_seed(seed: Seed, block_length: int) -> SeedFrame:
    """Wrap a seed for the wire; checks the payload/rate contract."""
    if len(seed.latent_shape) != 3:
        raise FrameError("latent shape must have three dimensions")
    expected = seed_length(int(np.prod(seed.latent_shape)), seed.rate)
    if seed.symbols.size != expected:
        raise FrameError(
            f"seed has {seed.symbols.size} symbols, rate implies {expected}")
    return SeedFrame(int(round(seed.rate * RATE_FIXED_ONE)),
                     tuple(seed.latent_shape), int(block_length),
                     float(seed.scale),
                     np.ascontiguousarray(seed.symbols, dtype="<f4"))


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
    magic, version, rate_fixed, d0, d1, d2, payload_len, block_len, scale = \
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
    return SeedFrame(rate_fixed, (d0, d1, d2), block_len, scale, payload)


# ---------------------------------------------------------------------------
# requests, bundles, results

@dataclass
class GenerationRequest:
    prompt: str
    rate: float
    image_shape: tuple
    noise_seed: int


@dataclass
class ModelBundle:
    """Everything both endpoints need to run generations."""
    autoencoder: genmodel.AutoencoderPair
    denoiser: genmodel.Denoiser
    schedule: genmodel.NoiseSchedule
    codecs: dict
    extractor: metrics.FeatureExtractor
    image_shape: tuple
    latent_shape: tuple

    def codec_for(self, rate) -> CodecPair:
        if rate not in self.codecs:
            raise ProtocolError(f"no codec trained for rate {rate}")
        return self.codecs[rate]


@dataclass
class EsResult:
    seed: Seed
    frame: SeedFrame
    latent: np.ndarray


def es_handle_request(bundle: ModelBundle, requests, block_length: int):
    """Server side: embed, generate, compress, frame. A non-empty list of
    requests sharing a rate is served as one batch and gives one EsResult
    per request, each noise drawn from its request's ``noise_seed``."""
    if not isinstance(requests, list) or not requests or not all(
            isinstance(r, GenerationRequest) for r in requests):
        raise ProtocolError("expected a non-empty list of GenerationRequest")
    if len({(r.rate, tuple(r.image_shape)) for r in requests}) > 1:
        raise ProtocolError("batched requests must share rate and dims")
    if tuple(requests[0].image_shape) != tuple(bundle.image_shape):
        raise ProtocolError(f"request dims {requests[0].image_shape} do not "
                            f"match deployed model dims {bundle.image_shape}")
    codec = bundle.codec_for(requests[0].rate)
    noise = np.stack([as_rng(r.noise_seed).standard_normal(bundle.latent_shape)
                      for r in requests]).astype(np.float32)
    latents = genmodel.generate_latent(
        bundle.denoiser, [r.prompt for r in requests], noise, bundle.schedule)
    seeds = codec.compress(latents)
    return [EsResult(seed, frame_from_seed(seed, block_length), latent)
            for seed, latent in zip(seeds, latents)]


@dataclass
class GenerationResult:
    images: list
    report: metrics.MetricReport
    degraded: bool = False    # read by perfbench's protocol.degraded_share


@dataclass
class EndToEndReport:
    results: dict
    ground_truths: list
    latents: list
    trace: ch.FadingTrace

    def __getitem__(self, mode):
        return self.results[mode]


# ---------------------------------------------------------------------------
# transmission helpers

def transmit_stream(payloads, trace: ch.FadingTrace, noise_std, rng):
    """Send payloads [P, N] over a trace at unit power, every row on the
    same blocks; returns (received, gains) per symbol. One noise draw of
    the payloads' shape equals drawing each row in turn."""
    x = np.asarray(payloads)
    if x.ndim != 2:
        raise DimensionError(f"payloads must be a stack [P, N], got {x.shape}")
    n, block = x.shape[1], trace.block_length
    nb = ch.block_count(n, block)
    if len(trace) < nb:
        raise ValueError(f"{n} symbols need {nb} blocks of gain")
    gains = np.repeat(trace.gains[:nb], block)[:n]
    return ch.transmit(x, gains, 1.0, noise_std, rng), gains


def recover_stream(received, gains):
    """Zero-forcing estimate of what :func:`transmit_stream` sent."""
    return ch.equalize(received, gains, 1.0)


def ue_receive(bundle: ModelBundle, wire_frames, received, ground_truths,
               config_hash="", reference_features=None):
    """Receiver side for a batch of seed deliveries.

    ``wire_frames`` holds one encoded frame per prompt, all at one codec
    rate (a mixed batch raises ProtocolError), and ``received`` what
    :func:`transmit_stream` returned for their stacked payloads, or None
    when the perfect channel carried the payloads intact. Returns a
    GenerationResult with quality metrics against the ground-truth batch
    (whose features, if already extracted, are ``reference_features``).
    """
    frames = [decode_frame(data) for data in wire_frames]
    if len({frame.rate_fixed for frame in frames}) > 1:
        raise ProtocolError("a received batch must share one codec rate")
    symbols = recover_stream(*received) if received is not None \
        else [frame.payload.astype(np.float64) for frame in frames]
    # each UE decodes its frame at the deployed rate nearest the header's, as
    # a batch of one in a stack that holds every frame
    rate = min(bundle.codecs, key=lambda r: abs(r - frames[0].rate))
    latents = bundle.codec_for(rate).decompress(
        np.stack(symbols), [frame.scale for frame in frames])
    images = bundle.autoencoder.decode(latents[:, None])[:, 0]
    report = batch_report(images, ground_truths, bundle.extractor,
                          symbols=frames[0].payload.size,
                          config_hash=config_hash,
                          reference_features=reference_features)
    return GenerationResult(list(images), report)


def batch_report(images, ground_truths, extractor, symbols, config_hash="",
                 reference_features=None):
    """PSNR/MSE averaged over a batch [P, C, H, W] plus its Frechet score;
    see :func:`metrics.fid` for ``reference_features``."""
    a, b = np.asarray(images), np.asarray(ground_truths)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    # per-image means over contiguous rows, as metrics.mse takes them
    d = np.subtract(a, b, dtype=np.float64).reshape(len(a), -1)
    mean_mse = float(np.mean(np.mean(d * d, axis=1)))
    psnr_db = math.inf if mean_mse == 0.0 else 10.0 * math.log10(1.0 / mean_mse)
    fid_score = metrics.fid(a, b, extractor, reference_features)
    return metrics.MetricReport(psnr_db, fid_score, mean_mse, symbols,
                                config_hash)


# ---------------------------------------------------------------------------
# end-to-end driver

@dataclass
class RunSpec:
    """One paired trial: every mode rides the same fading trace."""
    prompts: list
    rate: float
    snr_db: float | None          # None is the perfect channel
    channel_kind: str = "rayleigh_block"
    block_length: int = 16
    seed: int = 0
    config_hash: str = ""


def run_end_to_end(bundle: ModelBundle, spec: RunSpec) -> EndToEndReport:
    """Generate, transmit under every mode, decode, and score."""
    if not spec.prompts:
        raise ValueError("at least one prompt is required")
    es_results = es_handle_request(bundle, [
        GenerationRequest(prompt, spec.rate, bundle.image_shape,
                          derive_seed(spec.seed, 0, i))
        for i, prompt in enumerate(spec.prompts)], spec.block_length)
    latents = [res.latent for res in es_results]
    truths = bundle.autoencoder.decode(np.stack(latents))

    counts = {"centralized": int(np.prod(bundle.image_shape)),
              "raw_feature": int(np.prod(bundle.latent_shape)),
              "meg": es_results[0].seed.symbols.size}
    model = ch.ChannelModel(spec.channel_kind, spec.block_length)
    trace = ch.sample_fading_trace(
        model, ch.block_count(max(counts.values()), spec.block_length),
        derive_seed(spec.seed, 1))
    perfect = spec.snr_db is None
    noise_std = None if perfect else ch.snr_to_noise_std(spec.snr_db, 1.0)
    # every mode is scored against the same ground truths
    reference = bundle.extractor.extract(truths)

    results = {}
    for mode_idx, mode in enumerate(metrics.MODES):
        noise_rng = as_rng(derive_seed(spec.seed, 2, mode_idx))
        if mode == "meg":
            sent = None if perfect else transmit_stream(
                np.stack([res.frame.payload for res in es_results]), trace,
                noise_std, noise_rng)
            results[mode] = ue_receive(
                bundle, [encode_frame(res.frame) for res in es_results],
                sent, truths, spec.config_hash, reference)
            continue
        source = truths if mode == "centralized" else np.stack(latents)
        payloads = source.reshape(len(source), -1).astype(np.float64)
        if not perfect:
            # each row is sent at unit RMS power and rescaled on receipt
            scale = np.sqrt(np.mean(payloads ** 2, axis=1, keepdims=True))
            scale = np.where(scale > 0, scale, 1.0)
            symbols = recover_stream(*transmit_stream(
                payloads / scale, trace, noise_std, noise_rng))
            payloads = symbols * scale
        batch = (np.clip(payloads, 0.0, 1.0).astype(np.float32)
                 .reshape(source.shape) if mode == "centralized"
                 else bundle.autoencoder.decode(
                     payloads.astype(np.float32).reshape(source.shape)))
        report = batch_report(batch, truths, bundle.extractor,
                              counts[mode], spec.config_hash, reference)
        results[mode] = GenerationResult(list(batch), report)
    return EndToEndReport(results, list(truths), latents, trace)
