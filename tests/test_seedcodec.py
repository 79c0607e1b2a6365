from dataclasses import replace

import numpy as np
import pytest

from gradcheck import clone_codec, numeric_gradient
from megsim import config, nn, seedcodec
from megsim.errors import CodecError, DimensionError


def latent_config(channels, side, **settings):
    """The desk config with latents [channels, side, side], its 32 x 32
    images downsampled to ``side``, and the given settings."""
    return replace(config.desk_config(), latent_channels=channels,
                   downsample=32 // side, **settings)


def codec_cfg(**settings):
    """A config with latents [2, 4, 4] and the given settings."""
    return latent_config(2, 4, **settings)


@pytest.fixture(scope="module")
def small_pair():
    return seedcodec.CodecPair(codec_cfg(codec_hidden=24), 0.5, rng=3)


class TestSeedLength:
    @pytest.mark.parametrize("rate,want", [
        (0.1, 1638), (0.3, 4915), (0.5, 8192), (0.7, 11469), (0.9, 14746),
    ])
    def test_reference_values(self, rate, want):
        assert seedcodec.seed_length(16384, rate) == want

    @pytest.mark.parametrize("rate", [0.0, 1.0, -0.2, 1.5])
    def test_rate_out_of_range(self, rate):
        with pytest.raises(ValueError):
            seedcodec.seed_length(128, rate)

    def test_degenerate_rounding_rejected(self):
        with pytest.raises(ValueError):
            seedcodec.seed_length(128, 0.001)
        with pytest.raises(ValueError):
            seedcodec.seed_length(128, 0.999)

    def test_overhead_bound_for_desk_pairs(self):
        # seed stays below the downsampled pixel budget for every rate
        pixel_count, downsample, latent = 2 * 32 * 32, 4, 128
        for rate in (0.1, 0.3, 0.5, 0.7, 0.9):
            n = seedcodec.seed_length(latent, rate)
            assert 0 < n < pixel_count / downsample ** 2


class TestCompressDecompress:
    def test_length_and_power_contract(self, small_pair, rng):
        z = rng.standard_normal((1,) + small_pair.latent_shape) \
            .astype(np.float32)
        (symbols,), _ = small_pair.compress(z)
        assert symbols.size == seedcodec.seed_length(32, 0.5)
        assert abs(np.mean(symbols.astype(np.float64) ** 2) - 1.0) < 1e-5

    def test_deterministic(self, small_pair, rng):
        z = rng.standard_normal((1,) + small_pair.latent_shape) \
            .astype(np.float32)
        a, a_scales = small_pair.compress(z)
        b, b_scales = small_pair.compress(z)
        assert np.array_equal(a, b) and np.array_equal(a_scales, b_scales)

    def test_shape_mismatch(self, small_pair):
        for bad in ((1, 3, 4, 4), small_pair.latent_shape, (32,)):
            with pytest.raises(DimensionError):
                small_pair.compress(np.zeros(bad, dtype=np.float32))

    def test_round_trip_shape(self, small_pair, rng):
        z = rng.standard_normal((1,) + small_pair.latent_shape) \
            .astype(np.float32)
        symbols, scales = small_pair.compress(z)
        back = small_pair.decompress(symbols, scales)
        assert back.shape == (1,) + small_pair.latent_shape

    def test_zero_symbols_decode_finite(self, small_pair):
        out = small_pair.decompress(np.zeros((1, small_pair.seed_len)), [1.0])
        assert np.all(np.isfinite(out))

    def test_wrong_length_rejected(self, small_pair):
        for bad in (np.zeros((1, small_pair.seed_len + 1)),
                    np.zeros(small_pair.seed_len)):
            with pytest.raises(CodecError):
                small_pair.decompress(bad, [1.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stacked_seeds_equal_single_calls(self, small_pair, rng, dtype):
        x = rng.standard_normal((5, small_pair.seed_len)).astype(dtype)
        scales = rng.random(5) + 0.5
        got = small_pair.decompress(x, scales)
        assert got.shape == (5,) + small_pair.latent_shape
        for row, scale, latent in zip(x, scales, got):
            one = small_pair.decompress(row[None], [scale])
            # one seed: one decoder forward, rescaled in the symbols' dtype
            want = small_pair.decode_flat(
                (row[None] * float(scale)).astype(np.float32))
            assert np.array_equal(one[0],
                                  want.reshape(small_pair.latent_shape))
            assert np.array_equal(latent, one[0])
        with pytest.raises(CodecError):
            small_pair.decompress(x[None], scales)

    def test_zero_power_seed_rejected(self):
        pair = seedcodec.CodecPair(latent_config(1, 2, codec_hidden=8), 0.5,
                                   rng=0)
        pair.enc.weights[...] = 0
        pair.enc.bias[...] = 0
        with pytest.raises(CodecError):
            pair.compress(np.zeros((1, 1, 2, 2), dtype=np.float32))


def reference_compress(pair, z):
    """The one-latent compression: encode the flat vector, divide by its
    RMS. Returns (symbols, scale)."""
    raw = pair.enc.forward(z.reshape(1, -1), cache=False)[0]
    scale = float(np.sqrt(np.mean(raw.astype(np.float64) ** 2)))
    return (raw / scale).astype(np.float32), scale


class TestCompressBatch:
    def test_batch_matches_single_calls(self, small_pair, rng):
        z = rng.standard_normal((6,) + small_pair.latent_shape) \
            .astype(np.float32)
        symbols, scales = small_pair.compress(z)
        assert symbols.shape == (6, small_pair.seed_len)
        assert scales.shape == (6,)
        for row, got, scale in zip(z, symbols, scales):
            (one,), (one_scale,) = small_pair.compress(row[None])
            assert np.max(np.abs(got - one)) <= 1e-5
            assert abs(scale - one_scale) <= 1e-5 * one_scale

    def test_one_latent_and_one_row_batch_equal_the_reference(self,
                                                               small_pair,
                                                               rng):
        z = rng.standard_normal(small_pair.latent_shape).astype(np.float32)
        symbols, scale = reference_compress(small_pair, z)
        got, scales = small_pair.compress(z[None])
        assert got.shape == (1, small_pair.seed_len)
        assert got.dtype == np.float32 and scales.dtype == np.float64
        assert np.array_equal(got[0], symbols)
        assert scales[0] == scale

    def test_stack_encodes_each_batch_as_its_own_call(self, small_pair, rng):
        z = rng.standard_normal((3, 5) + small_pair.latent_shape) \
            .astype(np.float32)
        symbols, scales = small_pair.compress(z)
        want = [small_pair.compress(batch) for batch in z]
        assert symbols.shape == (15, small_pair.seed_len)
        assert symbols.tobytes() == np.concatenate(
            [one for one, _ in want]).tobytes()
        assert np.array_equal(scales,
                              np.concatenate([one for _, one in want]))

    def test_zero_power_row_rejected(self):
        pair = seedcodec.CodecPair(latent_config(1, 2, codec_hidden=8), 0.5,
                                   rng=0)
        pair.enc.bias[...] = 0
        z = np.stack([np.ones((1, 2, 2)), np.zeros((1, 2, 2))])
        with pytest.raises(CodecError):
            pair.compress(z.astype(np.float32))


@pytest.fixture(scope="module")
def latents():
    return np.random.default_rng(0).standard_normal(
        (60, 2, 4, 4)).astype(np.float32)


class TestTraining:

    def test_loss_decreases(self, latents):
        cfg = codec_cfg(codec_epochs=30, codec_hidden=24,
                        codec_train_snr_db=10.0)
        _, hist = seedcodec.train_codec(latents, cfg, rate=0.5, seed=1)
        assert hist[-1] < hist[0]

    def test_latents_of_another_shape_refused(self, latents):
        for bad in (latents.reshape(60, 2, 2, 8), latents[:0], latents[0]):
            with pytest.raises(DimensionError, match=r"\[N, \*\(2, 4, 4\)\]"):
                seedcodec.train_codec(bad, codec_cfg(), rate=0.5, seed=1)

    def test_unknown_channel_kind_refused(self, latents):
        with pytest.raises(ValueError, match=r"\[channel\] kind 'foo'"):
            seedcodec.train_codec(latents, codec_cfg(channel_kind="foo"),
                                  rate=0.5, seed=1)

    def test_noiseless_training_overfits(self):
        latents = np.random.default_rng(0).standard_normal(
            (100, 2, 8, 8)).astype(np.float32)
        cfg = latent_config(2, 8, codec_epochs=800, codec_lr=3e-3,
                            codec_train_snr_db=None)
        pair, hist = seedcodec.train_codec(latents, cfg, rate=0.5, seed=1)
        assert hist[-1] < 0.1 * float(np.var(latents))

    def test_snr_matched_training_wins(self, latents):
        def held_out_loss(pair, test_snr_db, n=200):
            tr = np.random.default_rng(9)
            std = np.sqrt(10 ** (-test_snr_db / 10.0))
            flat = latents.reshape(len(latents), -1)
            total = 0.0
            for i in range(n):
                gain = max(tr.rayleigh(1 / np.sqrt(2)), 1e-3)
                eff = tr.normal(0, std, pair.seed_len) / gain
                total += seedcodec.transmission_loss(
                    pair, flat[i % len(flat)][None, :], eff[None, :])
            return total / n

        low, _ = seedcodec.train_codec(latents, codec_cfg(
            codec_epochs=60, codec_hidden=24, codec_train_snr_db=0.0),
            rate=0.5, seed=2)
        high, _ = seedcodec.train_codec(latents, codec_cfg(
            codec_epochs=60, codec_hidden=24, codec_train_snr_db=40.0),
            rate=0.5, seed=2)
        assert held_out_loss(low, 0.0) < held_out_loss(high, 0.0)

    def test_trained_beats_untrained_noiseless(self, latents):
        cfg = codec_cfg(codec_epochs=60, codec_hidden=24,
                        codec_train_snr_db=None)
        trained, _ = seedcodec.train_codec(latents, cfg, rate=0.5, seed=3)
        untrained = seedcodec.CodecPair(codec_cfg(codec_hidden=24), 0.5,
                                        rng=77)

        def recon_err(pair):
            total = 0.0
            for z, symbols, scale in zip(latents[:20],
                                         *pair.compress(latents[:20])):
                (back,) = pair.decompress(symbols[None], [scale])
                total += float(np.mean((back - z) ** 2))
            return total

        assert recon_err(trained) < recon_err(untrained)


class TestGradients:
    def test_composition_matches_finite_differences(self, rng):
        pair = clone_codec(seedcodec.CodecPair(codec_cfg(codec_hidden=24),
                                               0.5, rng=rng), np.float64)
        z = rng.standard_normal((3, 32))
        noise = rng.standard_normal((3, pair.seed_len)) * 0.3
        _, grads = seedcodec.transmission_gradients(pair, z, noise)

        def loss():
            return seedcodec.transmission_loss(pair, z, noise)

        numeric = numeric_gradient(loss, pair.net.params())
        for a, n in zip(grads, numeric):
            rel = np.max(np.abs(a - n) / np.maximum(np.abs(n), 1e-6))
            assert rel < 1e-3


class TestReferenceArchitecture:
    def test_full_scale_parameter_total(self):
        layers = seedcodec.codec_layers(16384, 8192, 9000)
        assert nn.parameter_count(layers) == 563_430_184

    def test_save_load_round_trip(self, small_pair, tmp_path, rng):
        path = tmp_path / "codec.bin"
        small_pair.save(path, extra={"note": 1})
        # a skeleton filled from the file, as the bundle loader does
        loaded = seedcodec.CodecPair(codec_cfg(codec_hidden=24), 0.5)
        meta = nn.load_network(path, loaded.net)
        assert meta["note"] == 1 and meta["rate"] == 0.5
        z = rng.standard_normal((2,) + small_pair.latent_shape) \
            .astype(np.float32)
        assert np.array_equal(small_pair.compress(z)[0],
                              loaded.compress(z)[0])
