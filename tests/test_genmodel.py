from dataclasses import replace

import numpy as np
import pytest

from megsim import config, corpus, genmodel, metrics
from megsim.errors import DimensionError, ScheduleError

DESK = config.desk_config()


def embed(text):
    """The desk denoiser's prompt input."""
    return genmodel.embed_prompt(text, DESK.max_tokens, DESK.embed_dim)


def geometry(channels, side, downsample, latent_channels, **settings):
    """A desk config for images [channels, side, side] and latents
    [latent_channels, side / downsample, side / downsample]."""
    return replace(DESK, channels=channels, height=side, width=side,
                   downsample=downsample, latent_channels=latent_channels,
                   **settings)


class ExactNoiseOracle:
    """Denoiser stub returning the exact noise used to corrupt z0."""
    max_tokens, embed_dim = 8, 32

    def __init__(self, eps):
        self.eps = np.asarray(eps)

    def predict(self, z_t, t, embedding):
        return self.eps


class ZeroDenoiser(ExactNoiseOracle):
    def predict(self, z_t, t, embedding):
        return np.zeros_like(np.asarray(z_t))


class TestPromptEmbedding:
    def test_deterministic(self):
        a = embed("large rings center")
        b = embed("large rings center")
        assert a.shape == (32,) and np.array_equal(a, b)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            embed("   ")

    def test_distinct_words_not_collinear(self):
        a = genmodel._token_vector("blob", 32)
        b = genmodel._token_vector("stripes", 32)
        cos = float(a @ b)
        assert cos < 1.0 - 1e-3

    def test_unit_rows_and_zero_padding(self):
        two, words = (genmodel._token_vector(t, 32) for t in ("two", "words"))
        assert np.allclose(np.linalg.norm([two, words], axis=1), 1.0,
                           atol=1e-5)
        # the mean over max_tokens rows, the padding rows zero
        padded = np.zeros((5, 32), np.float32)
        padded[:2] = two, words
        assert np.array_equal(genmodel.embed_prompt("two words", 5, 32),
                              padded.mean(axis=0))

    def test_truncation_flag(self):
        # tokens past max_tokens are dropped
        assert np.array_equal(genmodel.embed_prompt("a b c d", 2, 32),
                              genmodel.embed_prompt("a b", 2, 32))

    def test_embedding_is_a_writable_copy_of_the_memoized_row(self):
        text = "large rings center"
        row = genmodel._pooled_prompt(text, 8, 32)
        assert genmodel._pooled_prompt(text, 8, 32) is row
        assert not row.flags.writeable
        emb = embed(text)
        assert emb.flags.writeable and not np.shares_memory(emb, row)
        # bit-equal to the row and to the mean it memoizes
        reference = np.zeros((8, 32), np.float32)
        for i, token in enumerate(text.split()):
            reference[i] = genmodel._token_vector(token, 32)
        assert emb.tobytes() == row.tobytes() \
            == reference.mean(axis=0).tobytes()


class TestSchedule:
    def test_alpha_bars_strictly_decreasing(self):
        s = genmodel.make_schedule(10)
        assert s.alpha_bars[0] == 1.0
        assert np.all(np.diff(s.alpha_bars) < 0)

    def test_bad_schedules_rejected(self):
        with pytest.raises(ScheduleError):
            genmodel.NoiseSchedule(np.array([0.5, 0.1]),
                                   np.array([1.0, 0.5, 0.45]))
        with pytest.raises(ScheduleError):
            genmodel.NoiseSchedule(np.array([0.1, 0.5]),
                                   np.array([1.0, 0.9, 0.9]))


class TestDiffusionAlgebra:
    def test_step_zero_is_identity(self, rng):
        s = genmodel.make_schedule(8)
        z0 = rng.standard_normal(16)
        assert np.array_equal(genmodel.diffuse_forward(z0, 0, np.zeros(16), s),
                              z0)

    def test_zero_noise_scales_signal(self, rng):
        s = genmodel.make_schedule(8)
        z0 = rng.standard_normal(16)
        zt = genmodel.diffuse_forward(z0, 5, np.zeros(16), s)
        assert np.allclose(zt, np.sqrt(s.alpha_bars[5]) * z0)

    def test_marginal_variance_monte_carlo(self, rng):
        s = genmodel.make_schedule(10)
        t = 6
        noise = rng.standard_normal(100_000)
        zt = genmodel.diffuse_forward(np.zeros(100_000), t, noise, s)
        want = 1.0 - s.alpha_bars[t]
        assert abs(np.var(zt) / want - 1.0) < 0.02

    def test_out_of_range_step(self):
        s = genmodel.make_schedule(4)
        with pytest.raises(ValueError):
            genmodel.diffuse_forward(np.zeros(2), 5, np.zeros(2), s)
        # a vector of steps, one per row, is checked step by step
        rows = np.zeros((2, 3))
        with pytest.raises(ValueError):
            genmodel.diffuse_forward(rows, np.array([1, 5]), rows, s)
        with pytest.raises(ValueError):
            genmodel.diffuse_forward(rows, np.array([-1, 2]), rows, s)
        assert genmodel.diffuse_forward(rows, np.array([0, 4]), rows,
                                        s).shape == rows.shape


class TestDdim:
    def test_deterministic_when_sigma_zero(self, rng):
        s = genmodel.make_schedule(6)
        den = ExactNoiseOracle(rng.standard_normal(8))
        zt = rng.standard_normal(8)
        a = genmodel.ddim_step(den, zt, 4, None, s)
        b = genmodel.ddim_step(den, zt, 4, None, s)
        assert np.array_equal(a, b)

    def test_full_reverse_recovers_z0(self, rng):
        s = genmodel.make_schedule(12)
        z0 = rng.standard_normal(10)
        eps = rng.standard_normal(10)
        z = genmodel.diffuse_forward(z0, 12, eps, s)
        den = ExactNoiseOracle(eps)
        for t in range(12, 0, -1):
            z = genmodel.ddim_step(den, z, t, None, s)
        assert np.max(np.abs(z - z0)) < 1e-5

    def test_single_step_schedule_hand_algebra(self, rng):
        s = genmodel.make_schedule(1)
        z1 = rng.standard_normal(6)
        out = genmodel.ddim_step(ZeroDenoiser(None), z1, 1, None, s)
        assert np.allclose(out, z1 / np.sqrt(s.alpha_bars[1]))


class TestAutoencoder:
    def test_trained_beats_untrained(self, tiny_bundle, tiny_cfg):
        prompts, images = corpus.build_corpus(8, *tiny_cfg.image_shape, seed=5)
        pair = tiny_bundle.autoencoder
        random_pair = genmodel.AutoencoderPair(tiny_cfg, rng=99)
        def recon_mse(p):
            out = p.decode(p.encode(images))
            return metrics.mse(out, images)
        assert recon_mse(pair) < recon_mse(random_pair)

    def test_encoder_and_decoder_widths_are_independent(self):
        def widths(net):
            return [(d["in_features"], d["out_features"])
                    for d in net.descriptors()]

        pair = genmodel.AutoencoderPair(
            geometry(2, 8, 4, 2, ae_hidden=24, ae_encoder_hidden=6), rng=0)
        assert widths(pair.encoder) == [(128, 6), (6, 8)]
        assert widths(pair.decoder) == [(8, 24), (24, 128)]

    def test_overfits_two_images_with_identity_sized_latent(self):
        images = corpus.build_corpus(2, 1, 8, 8, seed=3)[1]
        # a latent [1, 4, 4]: a config refuses one as large as the image,
        # and two images need far fewer dimensions than 16
        cfg = geometry(1, 8, 2, 1, ae_steps=2500, ae_batch=2, ae_lr=3e-3,
                       ae_center_penalty=0.0, ae_hidden=96,
                       ae_encoder_hidden=96)
        pair, _ = genmodel.train_autoencoder(images, cfg, seed=1)
        out = pair.decode(pair.encode(images))
        assert metrics.mse(out, images) < 1e-3

    def test_center_penalty_pulls_latents_toward_zero_center(self):
        images = corpus.build_corpus(12, 1, 16, 16, seed=3)[1]
        cfg = geometry(1, 16, 4, 1, ae_steps=400, ae_batch=8, ae_hidden=64,
                       ae_encoder_hidden=64)

        def train(lam):
            return genmodel.train_autoencoder(
                images, replace(cfg, ae_center_penalty=lam), seed=2)[0]

        before = genmodel.AutoencoderPair(cfg, rng=2)
        center_before = abs(float(np.mean(before.encode(images))))
        center_after = abs(float(np.mean(train(0.1).encode(images))))
        assert center_after < center_before
        # and the penalty keeps latent energy below unpenalized training
        energy_pen = float(np.mean(train(0.1).encode(images) ** 2))
        energy_free = float(np.mean(train(0.0).encode(images) ** 2))
        assert energy_pen < energy_free

    def test_shape_round_trip_and_clamp(self, tiny_bundle, tiny_cfg, rng):
        pair = tiny_bundle.autoencoder
        img = rng.random((1,) + pair.image_shape).astype(np.float32)
        out = pair.decode(pair.encode(img))
        assert out.shape == img.shape
        # force a raw output above 1 and check the clamp
        pair_hot = genmodel.AutoencoderPair(
            replace(tiny_cfg, ae_hidden=8, ae_encoder_hidden=8), rng=0)
        pair_hot.decoder.layers[-1].bias[...] = 5.0
        decoded = pair_hot.decode(np.zeros((1,) + pair.latent_shape,
                                           np.float32))
        assert decoded.max() <= 1.0 and decoded.min() >= 0.0

    def test_psnr_trained_beats_random(self, tiny_bundle, tiny_cfg):
        _, images = corpus.build_corpus(6, *tiny_cfg.image_shape, seed=8)
        pair = tiny_bundle.autoencoder
        random_pair = genmodel.AutoencoderPair(tiny_cfg, rng=123)
        img = images[:1]
        good = metrics.psnr(pair.decode(pair.encode(img)), img, 1.0)
        bad = metrics.psnr(random_pair.decode(random_pair.encode(img)), img,
                           1.0)
        assert good > bad


class TestDenoiserTraining:
    def test_loss_decreases(self, tiny_cfg, tiny_bundle):
        prompts, images = corpus.build_corpus(8, *tiny_cfg.image_shape, seed=5)
        cfg = replace(config.desk_config(), dn_steps=300, dn_hidden=48,
                      diffusion_steps=6)
        _, hist = genmodel.train_denoiser(tiny_bundle.autoencoder,
                                          list(zip(prompts, images)), cfg,
                                          seed=0)
        tail = float(np.mean(hist[-max(1, len(hist) // 10):]))
        assert tail < hist[0]

    def test_vectorized_batch_equals_per_sample_composition(self, rng):
        prompts, images = corpus.build_corpus(7, 3, 16, 16, seed=2)
        pair = genmodel.AutoencoderPair(
            geometry(3, 16, 4, 2, ae_hidden=24, ae_encoder_hidden=24), rng=3)
        time_dim = 16
        den = genmodel.Denoiser(geometry(3, 16, 4, 2, dn_hidden=8,
                                         time_dim=time_dim,
                                         diffusion_steps=9), rng=0)
        sched = genmodel.make_schedule(9)
        latents = np.stack([pair.encode(img[None]).reshape(-1)
                            for img in images])
        pooled = np.stack([embed(p) for p in prompts])
        idx = rng.integers(0, len(prompts), size=32)
        ts = rng.integers(1, sched.steps + 1, size=32)
        eps = rng.standard_normal((32, latents.shape[1]))
        want = np.stack([np.concatenate([
            genmodel.diffuse_forward(latents[i], int(t), e, sched)
            .astype(np.float32),
            genmodel.time_embedding(int(t), time_dim),
            embed(prompts[i])]) for i, t, e in zip(idx, ts, eps)])
        got = genmodel.denoiser_batch(den, latents, pooled, idx, ts, eps)
        assert got.dtype == want.dtype == np.float32
        assert np.array_equal(got, want)

    def test_oracle_denoiser_has_zero_loss(self, rng):
        s = genmodel.make_schedule(5)
        z0 = [rng.standard_normal(6) for _ in range(4)]
        eps = [rng.standard_normal(6) for _ in range(4)]
        ts = [1, 2, 3, 4]
        loss = 0.0
        for z, e, t in zip(z0, eps, ts):
            pred = ExactNoiseOracle(e).predict(None, t, None)
            loss += float(np.mean((pred - e) ** 2))
        assert loss == 0.0

    def test_trained_beats_zero_baseline(self, tiny_cfg, tiny_bundle):
        prompts, images = corpus.build_corpus(10, *tiny_cfg.image_shape,
                                              seed=6)
        den = tiny_bundle.denoiser
        sched = den.schedule
        pair = tiny_bundle.autoencoder
        rng = np.random.default_rng(11)
        embs = [embed(p) for p in prompts]
        z0s = [pair.encode(img[None]).reshape(-1) for img in images]
        ts = rng.integers(1, sched.steps + 1, size=40)
        noises = rng.standard_normal((40, z0s[0].size))
        trained, zero = 0.0, 0.0
        for k in range(40):
            i = k % len(z0s)
            zt = genmodel.diffuse_forward(z0s[i], int(ts[k]), noises[k], sched)
            err = den.predict(zt, int(ts[k]), embs[i][None]) \
                - noises[k]
            trained += float(np.mean(err * err))
            zero += float(np.mean(noises[k] ** 2))
        assert trained < zero


class TestGeneration:
    def test_deterministic_given_noise(self, tiny_bundle, rng):
        noise = rng.standard_normal(
            (1,) + tiny_bundle.autoencoder.latent_shape).astype(np.float32)
        a = genmodel.generate_latent(tiny_bundle.denoiser, ["large blob left"],
                                     noise)
        b = genmodel.generate_latent(tiny_bundle.denoiser, ["large blob left"],
                                     noise)
        assert np.array_equal(a, b)

    def test_different_noise_differs(self, tiny_bundle, rng):
        shape = (1,) + tiny_bundle.autoencoder.latent_shape
        n1 = rng.standard_normal(shape).astype(np.float32)
        n2 = rng.standard_normal(shape).astype(np.float32)
        a = genmodel.generate_latent(tiny_bundle.denoiser, ["blob"], n1)
        b = genmodel.generate_latent(tiny_bundle.denoiser, ["blob"], n2)
        assert np.max(np.abs(a - b)) > 0

    def test_single_step_schedule_is_one_ddim_step(self, tiny_cfg,
                                                   tiny_bundle, rng):
        # the tiny denoiser's weights, on a schedule of one step
        den = genmodel.Denoiser(replace(tiny_cfg, diffusion_steps=1))
        den.net.flat[...] = tiny_bundle.denoiser.net.flat
        s1 = genmodel.make_schedule(1)
        noise = rng.standard_normal(
            (1,) + tiny_bundle.autoencoder.latent_shape).astype(np.float32)
        pooled = embed("blob")[None]
        got = genmodel.generate_latent(den, ["blob"], noise)
        want = genmodel.ddim_step(den, noise, 1, pooled, s1)
        assert np.allclose(got, want.astype(np.float32))

    def test_three_step_denoiser_samples_in_three_ddim_steps(self, tiny_cfg,
                                                             tiny_bundle,
                                                             rng):
        # the sampler's chain is the denoiser's own schedule: T predict
        # calls, each one ddim_step on make_schedule(T)
        den = genmodel.Denoiser(replace(tiny_cfg, diffusion_steps=3))
        den.net.flat[...] = tiny_bundle.denoiser.net.flat
        steps = []
        predict = den.predict
        den.predict = lambda z_t, t, pooled: (steps.append(t)
                                              or predict(z_t, t, pooled))
        noise = rng.standard_normal(
            (2,) + tiny_bundle.autoencoder.latent_shape).astype(np.float32)
        prompts = ["blob", "tiny stripes top"]
        got = genmodel.generate_latent(den, prompts, noise)
        assert steps == [3, 2, 1]
        s3 = genmodel.make_schedule(3)
        pooled = np.stack([embed(p) for p in prompts])
        want = noise
        for t in (3, 2, 1):
            want = genmodel.ddim_step(den, want, t, pooled, s3) \
                .astype(np.float32)
        assert got.tobytes() == want.tobytes()


class TestCorpus:
    def test_rendering_deterministic_and_bounded(self):
        a = corpus.render_prompt_image("large rings left", 2, 32, 32)
        b = corpus.render_prompt_image("large rings left", 2, 32, 32)
        assert np.array_equal(a, b)
        assert a.shape == (2, 32, 32)
        assert a.min() >= 0.0 and a.max() <= 1.0

    def test_corpus_seeded(self):
        p1, i1 = corpus.build_corpus(6, 2, 32, 32, seed=4)
        p2, i2 = corpus.build_corpus(6, 2, 32, 32, seed=4)
        assert p1 == p2 and np.array_equal(i1, i2)

    def test_distinct_prompts_distinct_images(self):
        prompts, images = corpus.build_corpus(10, 1, 16, 16, seed=0)
        assert len(set(prompts)) == 10
        flat = images.reshape(10, -1)
        assert np.unique(flat, axis=0).shape[0] == 10


class ReferencePredict:
    """The step-by-step input assembly: a fresh time embedding and a fresh
    pooled prompt at every call, as the sampler once built them, for one
    latent [1, *latent_shape] and its prompt."""

    def __init__(self, denoiser, prompt):
        self.denoiser = denoiser
        self.prompt = prompt

    def predict(self, z_t, t, pooled):
        z_t = np.asarray(z_t)
        den = self.denoiser
        feats = np.concatenate([
            z_t.reshape(-1).astype(np.float32),
            genmodel.time_embedding(t, den.time_dim),
            genmodel.embed_prompt(self.prompt, den.max_tokens,
                                  den.embed_dim)])
        return self.denoiser.net.forward(feats[None], cache=False) \
            .reshape(z_t.shape)


class TestSamplerConstants:
    def test_generate_latent_equals_per_step_reference(self, tiny_bundle,
                                                       rng):
        den, sched = tiny_bundle.denoiser, tiny_bundle.denoiser.schedule
        for prompt in ("large blob left", "tiny stripes top center now"):
            noise = rng.standard_normal((1,) + den.latent_shape) \
                .astype(np.float32)
            got = genmodel.generate_latent(den, [prompt], noise)
            ref = ReferencePredict(den, prompt)
            want = noise
            for t in range(sched.steps, 0, -1):
                want = genmodel.ddim_step(ref, want, t, None, sched) \
                    .astype(np.float32)
            assert np.array_equal(got, want)

    def test_time_table_rows_are_time_embeddings(self):
        den = genmodel.Denoiser(geometry(2, 8, 4, 2, dn_hidden=8, time_dim=6,
                                         diffusion_steps=4), rng=0)
        table = den.time_table
        assert table.shape == (5, 6) and table.dtype == np.float32
        assert all(np.array_equal(table[t], genmodel.time_embedding(t, 6))
                   for t in range(5))
        assert den.schedule.steps == 4

    def test_predict_refuses_a_step_outside_the_schedule(self):
        den = genmodel.Denoiser(geometry(2, 8, 4, 2, dn_hidden=8, time_dim=6,
                                         diffusion_steps=4), rng=0)
        z, pooled = np.zeros((1,) + den.latent_shape), embed("blob")[None]
        for t in (0, 4):
            assert den.predict(z, t, pooled).shape == z.shape
        # a step past T has no trained embedding, and -1 would wrap to T
        for t in (5, 9, -1):
            with pytest.raises(ValueError, match=r"outside \[0, 4\]"):
                den.predict(z, t, pooled)
        assert den.time_table.shape == (5, 6)

    def test_memoized_token_vectors_are_read_only(self):
        v = genmodel._token_vector("blob", 32)
        assert genmodel._token_vector("blob", 32) is v
        with pytest.raises(ValueError):
            v[0] = 1.0
        emb = embed("blob")
        emb[0] = 7.0                             # the embedding owns a copy
        assert embed("blob")[0] == v[0] / 8 != 7.0


class TestPromptBatch:
    """P prompts sampled and decoded at once agree with P batches of one up
    to float32 gemm summation order."""

    PROMPTS = ("large blob left", "tiny stripes top", "rings center", "blob")

    def test_generate_latent_batch_matches_single_calls(self, tiny_bundle,
                                                        rng):
        den = tiny_bundle.denoiser
        prompts = list(self.PROMPTS)
        noise = rng.standard_normal((len(prompts),) + den.latent_shape) \
            .astype(np.float32)
        batch = genmodel.generate_latent(den, prompts, noise)
        assert batch.shape == noise.shape and batch.dtype == np.float32
        for prompt, z, got in zip(prompts, noise, batch):
            one = genmodel.generate_latent(den, [prompt], z[None])
            assert one.shape == (1,) + den.latent_shape
            want = one[0]
            assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))

    def test_predict_needs_one_pooled_row_per_latent(self, tiny_bundle):
        den = tiny_bundle.denoiser
        emb = embed("blob")
        z = np.zeros((2,) + den.latent_shape)
        for cond in (emb[None], np.stack([emb] * 3)):
            with pytest.raises(DimensionError):
                den.predict(z, 1, cond)
        assert den.predict(z, 1, np.stack([emb] * 2)).shape \
            == z.shape

    def test_decode_batch_matches_single_calls(self, tiny_bundle, rng):
        pair = tiny_bundle.autoencoder
        z = rng.standard_normal((5,) + pair.latent_shape).astype(np.float32)
        batch = pair.decode(z)
        assert batch.shape == (5,) + pair.image_shape
        for row, got in zip(z, batch):
            assert np.max(np.abs(got - pair.decode(row[None])[0])) <= 1e-5
        one = pair.decode(z[:1])
        assert one.shape == (1,) + pair.image_shape
        # one latent: one decoder forward on the flat vector, clamped
        want = np.clip(pair.decoder.forward(z[0].reshape(1, -1), cache=False),
                       0.0, 1.0).reshape(pair.image_shape)
        assert np.array_equal(one[0], want)

    def test_encode_one_image_is_one_encoder_forward(self, tiny_bundle, rng):
        pair = tiny_bundle.autoencoder
        img = rng.random(pair.image_shape).astype(np.float32)
        want = pair.encoder.forward(img.reshape(1, -1), cache=False) \
            .reshape(pair.latent_shape)
        assert np.array_equal(pair.encode(img[None])[0], want)

    def test_other_shapes_rejected(self, tiny_bundle):
        pair = tiny_bundle.autoencoder
        # one latent is a batch of one: a bare latent is refused too
        for bad in (np.zeros(pair.latent_shape[1:]),
                    np.zeros(pair.latent_shape),
                    np.zeros((2, 2, 2) + pair.latent_shape),
                    np.zeros(int(np.prod(pair.latent_shape)))):
            with pytest.raises(DimensionError):
                pair.decode(bad)
        # a stack of batches [S, B, *latent] decodes each batch as a call of
        # its own
        z = np.random.default_rng(1).standard_normal(
            (2, 2) + pair.latent_shape).astype(np.float32)
        assert np.array_equal(pair.decode(z),
                              np.stack([pair.decode(batch) for batch in z]))
        with pytest.raises(DimensionError):
            pair.encode(np.zeros((1, 64, 64)))
