import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from megsim import channel as ch
from megsim import config, corpus, experiments, genmodel, metrics, protocol
from megsim.errors import DimensionError, FrameError, ProtocolError
from megsim.protocol import (RunSpec, decode_frame, encode_frame,
                             es_handle_request, recover_stream,
                             run_end_to_end, serve_cells, transmit_stream)
from megsim.seedcodec import CodecPair
from megsim.util import as_rng


def chunk_seed(symbols, block_length):
    """Split a symbol vector into contiguous blocks; the last may be short."""
    if block_length < 1:
        raise ValueError("block length must be >= 1")
    x = np.asarray(symbols)
    return [x[i:i + block_length] for i in range(0, len(x), block_length)]


def random_frame(rng):
    shape = tuple(int(rng.integers(1, 6)) for _ in range(3))
    payload = rng.standard_normal(int(rng.integers(1, 200))).astype("<f4")
    return protocol.SeedFrame(int(rng.integers(1, 65536)), shape,
                              int(rng.integers(1, 64)),
                              float(rng.standard_normal()), payload)


class TestSeedFrame:
    def test_encode_decode_equality(self, rng):
        frame = random_frame(rng)
        data = encode_frame(frame)
        back = decode_frame(data)
        assert encode_frame(back) == data
        assert np.array_equal(back.payload, frame.payload)
        assert (back.rate_fixed, back.latent_shape, back.block_length,
                back.scale) == (frame.rate_fixed, frame.latent_shape,
                                frame.block_length, frame.scale)

    @given(st.integers(1, 65535), st.integers(0, 2 ** 31),
           st.tuples(*[st.integers(0, 65535)] * 3),
           st.lists(st.one_of(st.integers(0, 2 ** 32 - 1), st.sampled_from([
               0x7FC00000, 0x7FC00001, 0xFFBFFFFF, 0x7F800001,  # NaNs
               0x7F800000, 0xFF800000, 0x80000000,  # +-inf, -0.0
               0x00000001, 0x807FFFFF])),  # subnormals
               min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_bytes_identical(self, rate_fixed, scale_bits,
                                        latent_shape, payload_bits):
        # any u16 latent shape and any float32 bit pattern in the payload
        payload = np.array(payload_bits, dtype="<u4").view("<f4")
        frame = protocol.SeedFrame(rate_fixed, latent_shape, 16,
                                   float(scale_bits) / 65536.0, payload)
        data = encode_frame(frame)
        back = decode_frame(data)
        assert encode_frame(back) == data
        assert back.latent_shape == latent_shape
        assert back.payload.tobytes() == payload.tobytes()

    def test_checksum_detects_header_corruption(self, rng):
        data = bytearray(encode_frame(random_frame(rng)))
        data[8] ^= 0xFF
        with pytest.raises(FrameError, match="checksum"):
            decode_frame(bytes(data))

    def test_bad_magic(self):
        with pytest.raises(FrameError, match="magic"):
            decode_frame(b"NOPE" + bytes(40))

    def test_truncated_payload(self, rng):
        data = encode_frame(random_frame(rng))
        with pytest.raises(FrameError):
            decode_frame(data[:-4])


class TestChunking:
    def test_single_chunk_when_block_large(self, rng):
        x = rng.standard_normal(10)
        chunks = chunk_seed(x, 32)
        assert len(chunks) == 1 and np.array_equal(chunks[0], x)

    def test_sizes_with_ragged_tail(self, rng):
        chunks = chunk_seed(rng.standard_normal(10), 3)
        assert [len(c) for c in chunks] == [3, 3, 3, 1]

    @given(st.integers(1, 50), st.integers(1, 20))
    @settings(max_examples=100, deadline=None)
    def test_concat_reproduces_seed(self, n, block):
        x = np.arange(n, dtype=np.float32)
        assert np.array_equal(np.concatenate(chunk_seed(x, block)), x)


class TestEsSide:
    def _serve(self, bundle, seed=1):
        """One prompt, served as a batch of one; returns its frame."""
        (frame,), _ = es_handle_request(bundle, ["large blob left"],
                                        noise_rows(bundle, [seed]), 0.5, 16)
        return frame

    def test_payload_length_matches_rate(self, tiny_bundle):
        frame = self._serve(tiny_bundle)
        assert frame.payload.size == tiny_bundle.codec_for(0.5).seed_len

    def test_identical_requests_byte_equal(self, tiny_bundle):
        a = self._serve(tiny_bundle)
        b = self._serve(tiny_bundle)
        assert encode_frame(a) == encode_frame(b)

    def test_header_round_trip(self, tiny_bundle):
        data = encode_frame(self._serve(tiny_bundle))
        assert encode_frame(decode_frame(data)) == data

    def test_unknown_rate_rejected(self, tiny_bundle):
        with pytest.raises(ProtocolError, match="rate"):
            es_handle_request(tiny_bundle, ["blob"],
                              noise_rows(tiny_bundle, [0]), 0.25, 16)


def noise_rows(bundle, seeds):
    """One server noise row [*latent_shape] per seed, each the first draw
    of a generator of its own."""
    return np.stack([as_rng(seed).standard_normal(
        bundle.autoencoder.latent_shape) for seed in seeds])


def reference_es_handle_request(bundle, prompt, noise, rate, block_length):
    """The one-prompt server path: sample one latent from ``noise``
    [*latent_shape] as a batch of one, encode the flat vector and divide
    by its RMS, frame. Returns (frame, latent)."""
    codec = bundle.codec_for(rate)
    (latent,) = genmodel.generate_latent(bundle.denoiser, [prompt],
                                         noise[None].astype(np.float32))
    raw = codec.enc.forward(latent.reshape(1, -1), cache=False)[0]
    scale = float(np.sqrt(np.mean(raw.astype(np.float64) ** 2)))
    frame = protocol.SeedFrame(round(codec.rate * 2 ** 16),
                               codec.latent_shape, block_length, scale,
                               (raw / scale).astype("<f4"))
    return frame, latent


class TestEsBatch:
    PROMPTS = ["large blob left", "tiny stripes top", "rings center", "blob"]
    SEEDS = [10, 11, 12, 13]

    def test_batch_matches_single_requests(self, tiny_bundle):
        noise = noise_rows(tiny_bundle, self.SEEDS)
        frames, latents = es_handle_request(tiny_bundle, self.PROMPTS, noise,
                                            0.5, 16)
        assert isinstance(frames, list) and len(frames) == len(self.PROMPTS)
        assert latents.shape == (len(self.PROMPTS),) \
            + tiny_bundle.autoencoder.latent_shape
        for prompt, row, got, latent in zip(self.PROMPTS, noise, frames,
                                            latents):
            (want,), (want_latent,) = es_handle_request(
                tiny_bundle, [prompt], row[None], 0.5, 16)
            assert np.max(np.abs(latent - want_latent)) \
                <= 1e-5 * np.max(np.abs(want_latent))
            assert np.max(np.abs(got.payload - want.payload)) <= 1e-5
            assert abs(got.scale - want.scale) <= 1e-5 * want.scale
            assert got.payload.size == want.payload.size

    def test_one_request_equals_the_reference(self, tiny_bundle):
        prompt, noise = self.PROMPTS[0], noise_rows(tiny_bundle,
                                                    self.SEEDS[:1])
        want, want_latent = reference_es_handle_request(tiny_bundle, prompt,
                                                        noise[0], 0.5, 16)
        (got,), (latent,) = es_handle_request(tiny_bundle, [prompt], noise,
                                              0.5, 16)
        assert np.array_equal(latent, want_latent)
        assert np.array_equal(got.payload, want.payload)
        assert got.scale == want.scale
        assert encode_frame(got) == encode_frame(want)

    def test_each_prompt_starts_from_its_noise_row(self, tiny_bundle,
                                                   monkeypatch):
        seen = []
        generate = genmodel.generate_latent
        monkeypatch.setattr(genmodel, "generate_latent",
                            lambda den, prompts, noise:
                            seen.append(np.array(noise, np.float32))
                            or generate(den, prompts, noise))
        seeds = [5, 9, 5, 2]
        frames, _ = es_handle_request(tiny_bundle, self.PROMPTS,
                                      noise_rows(tiny_bundle, seeds), 0.5, 16)
        (noise,) = seen
        for seed, row in zip(seeds, noise):
            want = as_rng(seed).standard_normal(
                tiny_bundle.autoencoder.latent_shape)
            assert np.array_equal(row, want.astype(np.float32))
        # prompts 0 and 2 share a noise seed, so they share a noise row
        assert np.array_equal(noise[0], noise[2])
        assert len(frames) == len(self.PROMPTS)

    @pytest.mark.parametrize("cells", [1, 2])
    def test_frames_carry_the_codec_rows(self, tiny_bundle, cells):
        # each frame holds its compress row and scale bit for bit, the rate
        # and shapes the receiver reads, and crosses the wire unchanged
        codec = tiny_bundle.codec_for(0.5)
        frames, latents = es_handle_request(
            tiny_bundle, self.PROMPTS, noise_rows(tiny_bundle, self.SEEDS),
            0.5, 8, cells=cells)
        symbols, scales = codec.compress(
            latents.reshape((cells, -1) + codec.latent_shape))
        assert len(frames) == len(symbols) == 4
        for frame, row, scale in zip(frames, symbols, scales):
            assert frame.payload.tobytes() == row.tobytes()
            assert frame.scale == scale
            assert frame.rate_fixed == round(0.5 * 2 ** 16)
            assert frame.latent_shape == tiny_bundle.autoencoder.latent_shape
            assert frame.block_length == 8
            data = encode_frame(frame)
            assert encode_frame(decode_frame(data)) == data

    def test_cells_split_into_equal_groups(self, tiny_bundle):
        with pytest.raises(ProtocolError, match="3 equal groups"):
            es_handle_request(tiny_bundle, self.PROMPTS,
                              noise_rows(tiny_bundle, self.SEEDS), 0.5, 16,
                              cells=3)

    def test_mixed_or_malformed_batches_rejected(self, tiny_bundle):
        one_row_each = "at least one prompt and a noise row"
        noise = noise_rows(tiny_bundle, self.SEEDS)
        for prompts, rows, rate, match in (
                (["blob"], noise[:1], 0.25, "no codec trained for rate 0.25"),
                ([], noise[:0], 0.5, one_row_each),
                (self.PROMPTS, noise[:3], 0.5, one_row_each),
                (self.PROMPTS[:1], noise[:2], 0.5, one_row_each),
                (self.PROMPTS[:1], noise[:1, 0], 0.5, one_row_each)):
            with pytest.raises(ProtocolError, match=match):
                es_handle_request(tiny_bundle, prompts, rows, rate, 16)


class TestBatchReport:
    """One per-row mean over the stacked difference equals the per-image
    ``metrics.mse`` loop bit for bit."""

    @pytest.mark.parametrize("p", [1, 2, 16])
    def test_mse_equals_per_image_loop(self, tiny_bundle, monkeypatch, p):
        # the Frechet term needs two images; the mse does not
        monkeypatch.setattr(metrics, "fid", lambda *args: [0.0])
        rng = np.random.default_rng(p)
        shape = (p,) + tiny_bundle.autoencoder.image_shape
        for _ in range(50):
            images = list(rng.random(shape, dtype=np.float32))
            truths = list(rng.random(shape, dtype=np.float32))
            (got,) = protocol.batch_report([images], [truths],
                                           tiny_bundle.extractor, 64)
            want = float(np.mean([metrics.mse(img, ref)
                                  for img, ref in zip(images, truths)]))
            assert got.mse == want
            assert got.psnr_db == 10.0 * math.log10(1.0 / want)

    def test_shape_mismatch_rejected(self, tiny_bundle, monkeypatch):
        monkeypatch.setattr(metrics, "fid", lambda *args: [0.0])
        images = [np.zeros(tiny_bundle.autoencoder.image_shape,
                           np.float32)] * 3
        for truths in (images[:2], [np.zeros((1, 2, 2), np.float32)] * 3):
            with pytest.raises(DimensionError):
                protocol.batch_report([images], [truths],
                                      tiny_bundle.extractor, 64)
        # one batch, not a stack of batches
        with pytest.raises(DimensionError):
            protocol.batch_report(images, images, tiny_bundle.extractor, 64)


class TestEndToEnd:
    @staticmethod
    def _run(bundle, prompts, **kw):
        base = dict(snr_db=None, channel_kind="awgn", seed=3)
        base.update(kw)
        return run_end_to_end(bundle, serve_cells(bundle, prompts, 0.5, 16,
                                                  [RunSpec(**base)]))

    def test_perfect_channel_matches_local_pipeline(self, tiny_bundle):
        prompts = ["large blob left", "tiny stripes top"]
        report = self._run(tiny_bundle, prompts)
        codec = tiny_bundle.codec_for(0.5)
        # the cell generator's first draw is its server noise, a row a prompt
        noise = as_rng(3).standard_normal(
            (len(prompts),) + tiny_bundle.autoencoder.latent_shape)
        for i, prompt in enumerate(prompts):
            (frame,), _ = es_handle_request(
                tiny_bundle, [prompt], noise[i:i + 1], 0.5, 16)
            (local,) = tiny_bundle.autoencoder.decode(
                codec.decompress(frame.payload[None], [frame.scale]))
            remote = report[0, "meg"].images[i]
            assert np.max(np.abs(local - remote)) < 1e-6

    def test_perfect_channel_raw_feature_sentinel(self, tiny_bundle):
        report = self._run(tiny_bundle, ["blob left", "rings top"])
        assert report[0, "raw_feature"].report.psnr_db == float("inf")

    def test_metrics_match_external_computation(self, tiny_bundle):
        report = self._run(tiny_bundle, ["blob left", "rings top"],
                           snr_db=5.0, channel_kind="rayleigh_block")
        meg = report[0, "meg"]
        want_mse = float(np.mean([metrics.mse(img, ref) for img, ref in
                                  zip(meg.images, report.ground_truths[0])]))
        want_fid = metrics.fid(np.stack(meg.images),
                               np.stack(report.ground_truths[0]),
                               tiny_bundle.extractor)
        assert abs(meg.report.mse - want_mse) < 1e-12
        assert abs(meg.report.fid_score - want_fid) < 1e-9

    def test_symbol_counts_match_accounting(self, tiny_bundle, tiny_cfg):
        report = self._run(tiny_bundle, ["blob left", "rings top"],
                           snr_db=10.0)
        shape = tiny_cfg.image_shape
        fd = tiny_cfg.downsample
        z = tiny_cfg.latent_channels
        assert report[0, "centralized"].report.symbols == \
            metrics.symbol_count("centralized", shape, fd)
        assert report[0, "raw_feature"].report.symbols == \
            metrics.symbol_count("raw_feature", shape, fd, latent_channels=z)
        assert report[0, "meg"].report.symbols == \
            metrics.symbol_count("meg", shape, fd, 0.5, z)

    def test_noisy_awgn_near_local_pipeline_at_zero_noise(self, tiny_bundle):
        # sigma = 0 over the literal normalize/transmit/equalize chain
        # leaves only float residue
        report = self._run(tiny_bundle, ["blob left", "rings top"],
                           snr_db=200.0)
        assert report[0, "raw_feature"].report.psnr_db > 100.0


class TestChunk:
    """A chunk of cells gives every cell the bits of a chunk of one, at the
    desk preset's 16 prompts per cell (see ``TestChunkLayers``)."""
    PROMPTS = corpus.sample_prompts(16, 1)
    # (snr_db, channel kind, cell seed): mixed SNRs, the perfect channel and
    # both channel kinds
    CELLS = ((None, "awgn", 3), (0.0, "rayleigh_block", 4),
             (-10.0, "rayleigh_block", 5), (20.0, "awgn", 6),
             (None, "rayleigh_block", 7))

    def _specs(self):
        return [RunSpec(snr, kind, seed) for snr, kind, seed in self.CELLS]

    def _run(self, bundle, specs, block_length=16):
        """The chunk served and received in one go, with its served
        latents [S, P, *latent_shape]."""
        served = serve_cells(bundle, self.PROMPTS, 0.5, block_length, specs)
        return run_end_to_end(bundle, served), \
            np.stack([latents for *_, latents in served])

    def test_chunk_equals_one_cell_chunks(self, tiny_bundle):
        specs = self._specs()
        chunk, latents = self._run(tiny_bundle, specs)
        assert set(chunk.results) == {(cell, mode)
                                      for cell in range(len(specs))
                                      for mode in metrics.MODES}
        for cell, spec in enumerate(specs):
            alone, alone_latents = self._run(tiny_bundle, [spec])
            assert chunk.ground_truths[cell].tobytes() \
                == alone.ground_truths[0].tobytes()
            assert latents[cell].tobytes() == alone_latents[0].tobytes()
            assert chunk.gains[cell].tobytes() == alone.gains[0].tobytes()
            for mode in metrics.MODES:
                got, want = chunk[cell, mode], alone[0, mode]
                assert got.report == want.report
                assert len(got.images) == len(want.images) == 16
                assert all(a.tobytes() == b.tobytes()
                           for a, b in zip(got.images, want.images))

    def test_served_batch_received_in_chunks(self, tiny_bundle):
        # one server batch of every cell, received in chunks of 2 and 3,
        # equals the chunk served and received in one call
        specs = self._specs()
        whole, latents = self._run(tiny_bundle, specs)
        served = serve_cells(tiny_bundle, self.PROMPTS, 0.5, 16, specs)
        parts = [run_end_to_end(tiny_bundle, served[lo:hi])
                 for lo, hi in ((0, 2), (2, 5))]
        located = [(parts[0], 0), (parts[0], 1), (parts[1], 0),
                   (parts[1], 1), (parts[1], 2)]
        for cell, (part, at) in enumerate(located):
            assert served[cell][3].tobytes() == latents[cell].tobytes()
            assert part.gains[at].tobytes() == whole.gains[cell].tobytes()
            for mode in metrics.MODES:
                assert part[at, mode].report == whole[cell, mode].report
                assert all(a.tobytes() == b.tobytes() for a, b in
                           zip(part[at, mode].images, whole[cell, mode].images))

    def test_block_length_read_from_the_frames(self, tiny_bundle):
        # the receiver takes its block length from the frame headers: a
        # cell served at 8 draws a trace of twice the blocks at 16
        spec = self._specs()[1]
        eight, _ = self._run(tiny_bundle, [spec], block_length=8)
        sixteen, _ = self._run(tiny_bundle, [spec])
        assert eight.gains.shape[1] == 2 * sixteen.gains.shape[1]

    def test_chunk_of_mixed_block_lengths_or_rates_refused(self, tiny_bundle,
                                                           tiny_cfg):
        specs = self._specs()[:2]
        sixteen = serve_cells(tiny_bundle, self.PROMPTS, 0.5, 16, specs[:1])
        eight = serve_cells(tiny_bundle, self.PROMPTS, 0.5, 8, specs[1:])
        for served in (sixteen + eight, eight + sixteen):
            with pytest.raises(ProtocolError, match="share one codec rate "
                                                    "and block length"):
                run_end_to_end(tiny_bundle, served)
        codec = CodecPair(replace(tiny_cfg, codec_hidden=16), 0.25, rng=5)
        bundle = replace(tiny_bundle,
                         codecs={**tiny_bundle.codecs, 0.25: codec})
        quarter = serve_cells(bundle, self.PROMPTS, 0.25, 16, specs[1:])
        with pytest.raises(ProtocolError, match="share one codec rate"):
            run_end_to_end(bundle, sixteen + quarter)

    def test_empty_chunk_refused(self, tiny_bundle):
        for prompts, specs in ((self.PROMPTS, []), ([], self._specs()[:1])):
            with pytest.raises(ValueError, match="at least one cell and one "
                                                 "prompt"):
                serve_cells(tiny_bundle, prompts, 0.5, 16, specs)
        with pytest.raises(ValueError, match="at least one served cell"):
            run_end_to_end(tiny_bundle, [])


class TestChunkLayers:
    """The networks a sweep chunk runs on flat rows [S·P, n] give each
    cell's rows the bits of a call on that cell alone, at the desk
    preset's layer shapes (a BLAS whose kernels round by row count fails
    here, naming the network)."""

    @staticmethod
    def _forward(name):
        """The network's or layer's uncached forward and its input width."""
        cfg = config.desk_config()
        if name == "extractor_first_layer":
            layer = metrics.FeatureExtractor(cfg.pixel_count).net.layers[0]
            return layer.forward, layer.in_features
        net = genmodel.Denoiser(cfg, rng=1).net if name == "denoiser" \
            else genmodel.AutoencoderPair(cfg, rng=2, encoder=False).decoder
        return net.forward, net.layers[0].in_features

    @pytest.mark.parametrize("cells", [2, experiments.SWEEP_CHUNK, 25])
    @pytest.mark.parametrize("name", ["denoiser", "autoencoder_decoder",
                                      "extractor_first_layer"])
    def test_flat_chunk_rows_equal_per_cell_calls(self, name, cells):
        forward, width = self._forward(name)
        rows = config.desk_config().eval_prompts
        x = np.random.default_rng(cells).standard_normal(
            (cells * rows, width)).astype(np.float32)
        flat = forward(x, cache=False)
        for cell in range(cells):
            part = x[cell * rows:(cell + 1) * rows]
            assert flat[cell * rows:(cell + 1) * rows].tobytes() \
                == forward(part, cache=False).tobytes(), (name, cell)


def reference_ue_images(bundle, frames, symbols):
    """The per-frame UE loop, kept as the oracle of ``ue_receive``: each
    frame decoded alone by the deployed codec whose rate has its header's
    fixed-point value."""
    images = []
    for frame, x in zip(frames, symbols):
        (rate,) = [r for r in bundle.codecs
                   if protocol.rate_fixed(r) == frame.rate_fixed]
        images.append(bundle.autoencoder.decode(
            bundle.codec_for(rate).decompress(x[None], [frame.scale]))[0])
    return images


class TestUeReceive:
    PROMPTS = ["blob left", "rings top", "tiny stripes top", "large blob",
               "rings left"]

    @staticmethod
    def _serve(bundle, prompts, rate):
        frames, _ = es_handle_request(
            bundle, prompts, noise_rows(bundle, range(7, 7 + len(prompts))),
            rate, 16)
        return frames

    @staticmethod
    def _check(bundle, served, received, symbols=None):
        wire = [encode_frame(frame) for frame in served]
        got = protocol.ue_receive(bundle, wire, received)
        frames = [decode_frame(data) for data in wire]
        if symbols is None:
            symbols = [frame.payload.astype(np.float64) for frame in frames]
        want = reference_ue_images(bundle, frames, symbols)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b)

    def test_noisy_link_matches_per_frame_loop(self, tiny_bundle):
        served = self._serve(tiny_bundle, self.PROMPTS, 0.5)
        gains = ch.fading_gains("rayleigh_block", 8, 3)
        sent = transmit_stream(np.stack([frame.payload for frame in served]),
                               gains, 16, 0.3, np.random.default_rng(2))
        self._check(tiny_bundle, served, sent, recover_stream(*sent))

    def test_perfect_channel_matches_per_frame_loop(self, tiny_bundle):
        served = self._serve(tiny_bundle, self.PROMPTS, 0.5)
        self._check(tiny_bundle, served, None)

    def test_rate_that_no_codec_serves_refused(self, tiny_bundle):
        # a 0.503 frame holds 64 symbols at the desk latent size, as a 0.5
        # frame does, but no deployed codec serves its rate
        served = self._serve(tiny_bundle, self.PROMPTS[:2], 0.5)
        for frame in served:
            frame.rate_fixed = protocol.rate_fixed(0.503)
        wire = [encode_frame(frame) for frame in served]
        with pytest.raises(ProtocolError, match="serves the frames' rate "
                                                "0.503"):
            protocol.ue_receive(tiny_bundle, wire, None)

    def test_latent_shape_not_the_codecs_refused(self, tiny_bundle):
        # the header's latent shape must be the one the rate's codec
        # decodes to, even where the payload length fits that codec
        served = self._serve(tiny_bundle, self.PROMPTS[:2], 0.5)
        c, h, w = served[1].latent_shape
        served[1].latent_shape = (2 * c, h // 2, w)
        wire = [encode_frame(frame) for frame in served]
        with pytest.raises(ProtocolError, match="latent shape is not its "
                                                "codec's"):
            protocol.ue_receive(tiny_bundle, wire, None)

    def test_received_rows_not_one_per_frame_refused(self, tiny_bundle):
        # two received rows for one frame would decode an image that no
        # frame sent; one row for two frames would lose one
        served = self._serve(tiny_bundle, self.PROMPTS[:2], 0.5)
        gains = ch.fading_gains("rayleigh_block", 8, 3)
        sent = transmit_stream(np.stack([frame.payload for frame in served]),
                               gains, 16, 0.3, np.random.default_rng(2))
        wire = [encode_frame(frame) for frame in served]
        for frames, rows in ((wire[:1], sent), (wire, (sent[0][:1], sent[1]))):
            with pytest.raises(ProtocolError, match="one received row per "
                                                    "frame"):
                protocol.ue_receive(tiny_bundle, frames, rows)

    def test_no_frame_refused(self, tiny_bundle):
        for received in (None, (np.zeros((0, 64)), np.ones(64))):
            with pytest.raises(ProtocolError, match="at least one frame"):
                protocol.ue_receive(tiny_bundle, [], received)

    def test_mixed_rates_rejected(self, tiny_bundle, tiny_cfg):
        # a second, untrained codec with another seed length: one received
        # batch shares one rate, in either frame order
        codec = CodecPair(replace(tiny_cfg, codec_hidden=16), 0.25, rng=5)
        bundle = replace(tiny_bundle,
                         codecs={**tiny_bundle.codecs, 0.25: codec})
        half = self._serve(bundle, self.PROMPTS[:2], 0.5)
        quarter = self._serve(bundle, self.PROMPTS[:2], 0.25)
        for served in (half + quarter, quarter + half):
            wire = [encode_frame(frame) for frame in served]
            with pytest.raises(ProtocolError, match="one codec rate"):
                protocol.ue_receive(bundle, wire, None)
        self._check(bundle, quarter, None)


# -- the per-block link at unit power, kept as the reference of the batched
# one --

@dataclass
class ReceivedBlock:
    values: np.ndarray
    gain: float


def reference_transmit(symbols, gain, noise_std, rng):
    y = gain * np.asarray(symbols, dtype=np.float64)
    if noise_std > 0:
        y = y + as_rng(rng).normal(0.0, noise_std, size=y.shape)
    return y


def reference_transmit_stream(symbols, gains, block_length, noise_std, rng):
    return [ReceivedBlock(reference_transmit(block, gains[i], noise_std,
                                             rng), float(gains[i]))
            for i, block in enumerate(chunk_seed(symbols, block_length))]


def reference_recover_stream(blocks, expected_len):
    flat = np.concatenate([np.asarray(blk.values, dtype=np.float64)
                           / blk.gain for blk in blocks])
    if flat.size != expected_len:
        raise FrameError(
            f"recovered {flat.size} symbols, expected {expected_len}")
    return flat


class TestBatchedLink:
    @pytest.mark.parametrize("kind", ["awgn", "rayleigh_block"])
    @pytest.mark.parametrize("prompts", [1, 16])
    @pytest.mark.parametrize("noise_std", [0.0, 0.4])
    def test_matches_per_block_reference(self, kind, prompts, noise_std):
        n, block = 70, 16              # a ragged last block of 6 symbols
        gains = ch.fading_gains(kind, 6, 9)
        payloads = np.random.default_rng(prompts).standard_normal(
            (prompts, n)).astype("<f4")
        ref_rng, got_rng = np.random.default_rng(5), np.random.default_rng(5)
        ref_rx, ref_sym = [], []
        for row in payloads:
            blocks = reference_transmit_stream(row, gains, block, noise_std,
                                               ref_rng)
            ref_rx.append(np.concatenate([b.values for b in blocks]))
            ref_sym.append(reference_recover_stream(blocks, n))
        sent = transmit_stream(payloads, gains, block, noise_std, got_rng)
        assert np.array_equal(sent[0], np.stack(ref_rx))
        assert np.array_equal(recover_stream(*sent), np.stack(ref_sym))
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_only_a_stack_of_payloads_accepted(self):
        # one payload is a stack of one row [1, N]
        gains = ch.fading_gains("rayleigh_block", 5, 2)
        x = np.arange(18, dtype=np.float64)
        for bad in (x, x[None, None], np.float64(1.0)):
            with pytest.raises(DimensionError, match=r"\[P, N\]"):
                transmit_stream(bad, gains, 4, 0.2, np.random.default_rng(1))
        assert transmit_stream(x[None], gains, 4, 0.2, 1)[0].shape == (1, 18)

    def test_too_short_trace_rejected(self):
        # 18 symbols fill 5 blocks of 4; a trace of 4 blocks is one short
        gains = ch.fading_gains("awgn", 4, 2)
        with pytest.raises(ValueError, match="18 symbols need 5 blocks"):
            transmit_stream(np.zeros((1, 18)), gains, 4, 0.0, 0)
        assert transmit_stream(np.zeros((1, 16)), gains, 4, 0.0, 0)[0].shape \
            == (1, 16)

    def test_non_positive_gain_or_block_length_rejected(self):
        # a zero, negative or NaN gain on a block sent is refused
        x = np.zeros((1, 16))
        for gains in ([1.0, 0.0, 1.0, 1.0], [1.0, 1.0, 1.0, -0.5],
                      [1.0, np.nan, 1.0, 1.0]):
            with pytest.raises(ValueError, match="blocks of positive gain"):
                transmit_stream(x, gains, 4, 0.0, 0)
        with pytest.raises(ValueError, match="block length must be"):
            transmit_stream(x, np.ones(4), 0, 0.0, 0)

    def test_run_end_to_end_matches_per_prompt_reference(self, tiny_bundle,
                                                         monkeypatch):
        spec = RunSpec(0.0, "rayleigh_block", seed=4)
        extracted, decoded = [], []
        extract = metrics.FeatureExtractor.extract
        monkeypatch.setattr(metrics.FeatureExtractor, "extract",
                            lambda self, images:
                            extracted.append(np.shape(images)[:-3])
                            or extract(self, images))
        decode = genmodel.AutoencoderPair.decode
        monkeypatch.setattr(genmodel.AutoencoderPair, "decode",
                            lambda self, z: decoded.append(np.shape(z))
                            or decode(self, z))
        served = serve_cells(
            tiny_bundle, ["blob left", "rings top", "tiny stripes top"], 0.5,
            16, [spec])
        ((*_, latents),) = served
        report = run_end_to_end(tiny_bundle, served)
        monkeypatch.undo()
        # the ground truths once, then each mode's images, each a stack of
        # one cell
        assert extracted == [(1, 3)] * (1 + len(metrics.MODES))
        # ground truths and raw_feature rows as batches; the UEs' frames as
        # one stack of batches of one
        latent = tiny_bundle.autoencoder.latent_shape
        assert decoded == [(3,) + latent] * 2 + [(3, 1) + latent]
        codec = tiny_bundle.codec_for(0.5)
        # the server compresses the stacked latents in one call, as
        # production does; the link below stays per prompt
        symbols, scales = codec.compress(latents)
        # the cell's one generator: its server noise, its trace, then each
        # mode's link noise in turn
        rng = as_rng(spec.seed)
        rng.standard_normal(latents.shape)
        assert np.array_equal(ch.fading_gains(
            spec.channel_kind, report.gains.shape[1], rng), report.gains[0])
        for mode in metrics.MODES:
            noise_std = ch.snr_to_noise_std(spec.snr_db)
            images, received = [], []
            for truth, latent, seed, scale in zip(report.ground_truths[0],
                                                  latents, symbols,
                                                  scales):
                if mode == "meg":
                    blocks = reference_transmit_stream(
                        seed, report.gains[0], 16, noise_std, rng)
                    flat = reference_recover_stream(blocks, seed.size)
                    images.append(tiny_bundle.autoencoder.decode(
                        codec.decompress(flat[None], [scale]))[0])
                else:
                    payload = (truth if mode == "centralized" else latent) \
                        .reshape(-1).astype(np.float64)
                    scale = float(np.sqrt(np.mean(payload ** 2)))
                    blocks = reference_transmit_stream(
                        payload / scale, report.gains[0], 16, noise_std, rng)
                    flat = reference_recover_stream(blocks, payload.size)
                    x = flat * scale
                    if mode == "centralized":
                        images.append(np.clip(x, 0.0, 1.0).reshape(truth.shape)
                                      .astype(np.float32))
                    else:
                        received.append(x.astype(np.float32)
                                        .reshape(latent.shape))
            if mode == "raw_feature":
                # the received latents are decoded together, as production
                # does
                images = list(tiny_bundle.autoencoder.decode(
                    np.stack(received)))
            got = report[0, mode]
            assert all(np.array_equal(a, b)
                       for a, b in zip(got.images, images))
            (want,) = protocol.batch_report([images], report.ground_truths,
                                            tiny_bundle.extractor,
                                            got.report.symbols)
            assert (got.report.psnr_db, got.report.fid_score,
                    got.report.mse) == (want.psnr_db, want.fid_score,
                                        want.mse)
