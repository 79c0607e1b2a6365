import math
from time import perf_counter

import numpy as np
import pytest
import scipy.linalg

from megsim import config, metrics, nn
from megsim.errors import DimensionError


# The eigendecomposition form of the Frechet distance that the closed
# nuclear-norm form replaced, kept verbatim as the reference it must match.
def _psd_sqrt(matrix, floor=1e-10):
    """Symmetric matrix square root with eigenvalues clamped at zero."""
    vals, vecs = np.linalg.eigh(matrix)
    vals = np.where(vals < floor, 0.0, vals)
    return (vecs * np.sqrt(vals)) @ vecs.T


def reference_frechet_distance(features_a, features_b):
    """Frechet distance between Gaussian fits of two feature batches.

    Uses the symmetric-product form sqrt(C_b^1/2 C_a C_b^1/2) for the
    cross term; covariances use 1/(n-1) normalization.
    """
    a = np.asarray(features_a, dtype=np.float64)
    b = np.asarray(features_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("feature batches must be 2-d [N, F]")
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise ValueError("each batch needs at least 2 samples")
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    cov_a = np.atleast_2d(np.cov(a, rowvar=False))
    cov_b = np.atleast_2d(np.cov(b, rowvar=False))
    diff = mu_a - mu_b
    root_b = _psd_sqrt(cov_b)
    cross = _psd_sqrt(root_b @ cov_a @ root_b)
    value = float(diff @ diff + np.trace(cov_a + cov_b - 2.0 * cross))
    if not np.isfinite(value):
        raise FloatingPointError("Frechet distance did not converge")
    return max(value, 0.0)


def sqrtm_frechet_distance(a, b):
    """Textbook form with scipy's general matrix square root of C_a C_b."""
    cov_a = np.atleast_2d(np.cov(a, rowvar=False))
    cov_b = np.atleast_2d(np.cov(b, rowvar=False))
    diff = a.mean(axis=0) - b.mean(axis=0)
    cross = scipy.linalg.sqrtm(cov_a @ cov_b).real
    return float(diff @ diff + np.trace(cov_a + cov_b - 2.0 * cross))


def _rel(got, want):
    return abs(got - want) / abs(want)


def mpmath_frechet_distance(a, b, digits=40):
    """The closed form in ``digits``-digit arithmetic: the float64 features
    enter exactly, and the means, the centered batches, their Frobenius
    norms and the singular values of A B^T are all taken in mpmath, with
    no QR and no float64 rounding."""
    import mpmath

    with mpmath.workdps(digits):
        def centered(x):
            rows = [[mpmath.mpf(v) for v in row] for row in x.tolist()]
            mean = [mpmath.fsum(col) / len(rows) for col in zip(*rows)]
            return [[v - mu for v, mu in zip(row, mean)] for row in rows], \
                mean

        (ca, mu_a), (cb, mu_b) = centered(a), centered(b)
        n, m = len(ca), len(cb)
        spread = [mpmath.fsum(v * v for row in c for v in row)
                  for c in (ca, cb)]
        cross = mpmath.matrix(ca) * mpmath.matrix(cb).T
        nuclear = mpmath.fsum(mpmath.svd_r(cross, compute_uv=False))
        return (mpmath.fsum((x - y) ** 2 for x, y in zip(mu_a, mu_b))
                + spread[0] / (n - 1) + spread[1] / (m - 1)
                - 2 * nuclear / mpmath.sqrt((n - 1) * (m - 1)))


class TestMse:
    def test_identical_is_zero(self, rng):
        img = rng.random((2, 8, 8))
        assert metrics.mse(img, img) == 0.0

    def test_unit_contrast(self):
        assert metrics.mse(np.zeros((4, 4)), np.ones((4, 4))) == 1.0

    def test_matches_loop_oracle(self, rng):
        a = rng.random((2, 5, 5))
        b = rng.random((2, 5, 5))
        total = 0.0
        for c in range(2):
            for i in range(5):
                for j in range(5):
                    total += (float(a[c, i, j]) - float(b[c, i, j])) ** 2
        assert abs(metrics.mse(a, b) - total / 50.0) < 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            metrics.mse(np.zeros((2, 2)), np.zeros((3, 2)))


class TestPsnr:
    def test_identical_gives_infinity(self, rng):
        img = rng.random((8, 8))
        assert metrics.psnr(img, img, 1.0) == math.inf

    def test_full_scale_contrast_is_zero_db(self):
        lo = np.zeros((8, 8))
        hi = np.full((8, 8), 255.0)
        assert metrics.psnr(lo, hi, 255) == 0.0

    def test_twenty_db_closed_form(self):
        # mse of peak^2 / 100 sits exactly 20 dB below peak
        a = np.zeros(100)
        b = np.full(100, 0.1)
        assert abs(metrics.psnr(a, b, 1.0) - 20.0) < 1e-12

    def test_psnr_at_peak_255(self, rng):
        q = np.round(rng.random((2, 4, 4)) * 255.0).astype(np.uint8)
        assert metrics.psnr(q, q, 255) == math.inf
        assert metrics.psnr(np.zeros((2, 2), np.uint8),
                            np.full((2, 2), 255, np.uint8), 255) == 0.0

    def test_strictly_decreasing_under_noise_ladder(self, rng):
        base = rng.random((2, 16, 16))
        for seed in range(10):
            noise_rng = np.random.default_rng(seed)
            noise = noise_rng.standard_normal(base.shape)
            values = [metrics.psnr(base + s * noise, base, 1.0)
                      for s in (0.01, 0.03, 0.1, 0.3)]
            assert all(x > y for x, y in zip(values, values[1:]))


class TestFrechet:
    def test_self_distance_zero(self, rng):
        feats = rng.standard_normal((10, 6))
        assert metrics.frechet_distance(feats, feats) < 1e-6

    def test_point_mass_reduces_to_mean_gap(self):
        a = np.tile([1.0, 2.0, 3.0], (5, 1))
        b = np.tile([0.0, 2.0, 5.0], (5, 1))
        want = 1.0 + 0.0 + 4.0
        assert abs(metrics.frechet_distance(a, b) - want) < 1e-6

    def test_one_dimensional_gaussian_closed_form(self):
        rng = np.random.default_rng(5)
        m1, v1, m2, v2 = 0.0, 1.0, 2.0, 4.0
        a = (m1 + np.sqrt(v1) * rng.standard_normal(10_000))[:, None]
        b = (m2 + np.sqrt(v2) * rng.standard_normal(10_000))[:, None]
        want = (m1 - m2) ** 2 + (np.sqrt(v1) - np.sqrt(v2)) ** 2
        got = metrics.frechet_distance(a, b)
        assert abs(got - want) / want < 0.05

    def test_symmetry(self, rng):
        a = rng.standard_normal((12, 5))
        b = rng.standard_normal((12, 5)) + 0.5
        d1 = metrics.frechet_distance(a, b)
        d2 = metrics.frechet_distance(b, a)
        assert abs(d1 - d2) < 1e-6

    def test_batch_order_invariant(self, rng):
        imgs = rng.random((8, 1, 8, 8)).astype(np.float32)
        refs = rng.random((8, 1, 8, 8)).astype(np.float32)
        ext = metrics.FeatureExtractor(64, feature_dim=16)
        base = metrics.fid(imgs, refs, ext)
        perm = rng.permutation(8)
        assert abs(metrics.fid(imgs[perm], refs, ext) - base) < 1e-9

    def test_small_batch_rejected(self, rng):
        with pytest.raises(ValueError):
            metrics.frechet_distance(rng.standard_normal((1, 4)),
                                     rng.standard_normal((5, 4)))

    def test_extractor_frozen_and_deterministic(self, rng):
        img = rng.random((1, 2, 8, 8)).astype(np.float32)
        a = metrics.FeatureExtractor(128).extract(img)
        b = metrics.FeatureExtractor(128).extract(img)
        assert np.array_equal(a, b)

    def test_shared_network_is_read_only_and_equals_a_fresh_build(self):
        net = metrics.FeatureExtractor(128, feature_dim=16, hidden=32).net
        assert metrics.FeatureExtractor(128, feature_dim=16, hidden=32).net \
            is net
        assert metrics.FeatureExtractor(128, feature_dim=16).net is not net
        rng = np.random.default_rng(metrics.EXTRACTOR_SEED)
        fresh = nn.Network([nn.DenseLayer(128, 32, "tanh", rng, "f1"),
                            nn.DenseLayer(32, 16, "tanh", rng, "f2")],
                           name="extractor")
        assert net.flat.tobytes() == fresh.flat.tobytes()
        for array in [net.flat] + net.params():
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0.0

    def test_constant_image_batches_through_extractor(self):
        ext = metrics.FeatureExtractor(64, feature_dim=8)
        a = np.tile(np.full((1, 8, 8), 0.25, np.float32), (4, 1, 1, 1))
        b = np.tile(np.full((1, 8, 8), 0.75, np.float32), (4, 1, 1, 1))
        fa, fb = ext.extract(a), ext.extract(b)
        want = float(np.sum((fa[0] - fb[0]) ** 2))
        assert abs(metrics.fid(a, b, ext) - want) < 1e-6


class TestClosedFormFrechet:
    """The nuclear-norm form equals the eigendecomposition form."""

    def _extractor_batches(self, rng, n, m):
        # tanh features of image batches: 64-d clouds of rank n-1 and m-1
        ext = metrics.FeatureExtractor(2 * 8 * 8, feature_dim=64)
        truth = rng.random((max(n, m), 2, 8, 8))
        noisy = np.clip(truth + 0.2 * rng.standard_normal(truth.shape), 0, 1)
        return ext.extract(noisy[:n]), ext.extract(truth[:m])

    def test_rank_deficient_extractor_features(self, rng):
        for _ in range(20):
            fa, fb = self._extractor_batches(rng, 16, 16)
            want = reference_frechet_distance(fa, fb)
            assert _rel(metrics.frechet_distance(fa, fb), want) <= 1e-9

    def test_full_rank_against_sqrtm(self, rng):
        for shift in (0.0, 0.3, 2.0):
            a = rng.standard_normal((200, 8)) @ rng.standard_normal((8, 8))
            b = rng.standard_normal((200, 8)) * rng.random(8) + shift
            want = sqrtm_frechet_distance(a, b)
            assert _rel(metrics.frechet_distance(a, b), want) <= 1e-8
            assert _rel(reference_frechet_distance(a, b), want) <= 1e-8

    def test_small_eigenvalues_are_not_clamped(self, rng):
        # one direction with variance ~1e-11 makes an eigenvalue of
        # C_b^1/2 C_a C_b^1/2 fall under the reference form's 1e-10 clamp,
        # which drops its square root (~3e-6) from the cross term
        a = rng.standard_normal((200, 3)) * [1.0, 1.0, 3e-6]
        b = rng.standard_normal((200, 3)) * [1.0, 2.0, 1.0]
        want = sqrtm_frechet_distance(a, b)
        assert _rel(metrics.frechet_distance(a, b), want) <= 1e-8
        assert _rel(reference_frechet_distance(a, b), want) > 1e-6

    def test_unequal_batch_sizes(self, rng):
        fa, fb = self._extractor_batches(rng, 9, 23)
        for x, y in ((fa, fb), (fb, fa)):
            want = reference_frechet_distance(x, y)
            assert _rel(metrics.frechet_distance(x, y), want) <= 1e-9
        a = rng.standard_normal((150, 6)) + 1.0
        b = 2.0 * rng.standard_normal((40, 6))
        want = sqrtm_frechet_distance(a, b)
        assert _rel(metrics.frechet_distance(a, b), want) <= 1e-8

    def test_tall_one_dimensional_batch_is_fast(self, rng):
        a = rng.standard_normal((10_000, 1))
        b = 2.0 + 3.0 * rng.standard_normal((10_000, 1))
        start = perf_counter()
        got = metrics.frechet_distance(a, b)
        assert perf_counter() - start < 0.5
        assert _rel(got, reference_frechet_distance(a, b)) <= 1e-9

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_features_raise(self, rng, bad, side):
        batches = [rng.standard_normal((16, 64)) for _ in range(2)]
        batches[side][3, 7] = bad
        with pytest.raises(FloatingPointError):
            metrics.frechet_distance(*batches)

    def test_fid_with_extracted_reference_is_identical(self, rng):
        ext = metrics.FeatureExtractor(64, feature_dim=16)
        imgs = rng.random((8, 1, 8, 8)).astype(np.float32)
        refs = rng.random((8, 1, 8, 8)).astype(np.float32)
        assert metrics.fid(imgs, None, ext,
                           reference_features=ext.extract(refs)) \
            == metrics.fid(imgs, refs, ext)


class TestFrechetAgainstMpmath:
    """float64 against a 40-digit evaluation: sides of n <= F rows enter
    the SVD without QR, taller ones as their R factor."""

    @staticmethod
    def _worst(pairs):
        errors = []
        for a, b in pairs:
            want = mpmath_frechet_distance(a, b)
            errors.append(float(abs(metrics.frechet_distance(a, b) - want)
                                / want))
        return max(errors)

    def test_desk_features_of_rank_15(self, rng):
        # desk tanh features, n = m = 16 and F = 64: no side is reduced
        cfg = config.desk_config()
        ext = metrics.FeatureExtractor(cfg.pixel_count)
        truth = rng.random((6, 16) + cfg.image_shape)
        noisy = np.clip(truth + 0.2 * rng.standard_normal(truth.shape), 0, 1)
        pairs = [(ext.extract(x), ext.extract(y))
                 for x, y in zip(noisy, truth)]
        assert np.linalg.matrix_rank(pairs[0][0] - pairs[0][0].mean(0)) == 15
        assert self._worst(pairs) <= 1e-13
        # the stack form scores each batch as a call of its own
        stack = np.stack([x for x, _ in pairs])
        got = metrics.frechet_distance(stack, pairs[0][1])
        want = [mpmath_frechet_distance(x, pairs[0][1]) for x in stack]
        assert all(float(abs(g - w) / w) <= 1e-13
                   for g, w in zip(got, want))

    def test_unequal_batches_of_9_and_23(self, rng):
        ext = metrics.FeatureExtractor(config.desk_config().pixel_count)
        shape = config.desk_config().image_shape
        fa = ext.extract(rng.random((9,) + shape))
        fb = ext.extract(rng.random((23,) + shape))
        assert self._worst([(fa, fb), (fb, fa)]) <= 1e-13

    def test_sides_taller_than_the_features_enter_as_r_factors(self, rng):
        # n = 40 and m = 30 against F = 8, both reduced by QR, and a
        # reduced side against one of 6 rows that enters as it is
        ext = metrics.FeatureExtractor(2 * 8 * 8, feature_dim=8)
        fa = ext.extract(rng.random((40, 2, 8, 8)))
        fb = ext.extract(rng.random((30, 2, 8, 8)) ** 2)
        assert self._worst([(fa, fb), (fa, fb[:6]), (fb[:6], fa)]) <= 1e-13


class TestStackedFrechet:
    """A stack [E, n, F] scores each batch as a separate call would."""

    def _stack(self, rng, episodes=16, n=16):
        ext = metrics.FeatureExtractor(2 * 8 * 8, feature_dim=64)
        truth = rng.random((n, 2, 8, 8))
        noisy = np.clip(truth + rng.uniform(0.05, 0.4, (episodes, 1, 1, 1, 1))
                        * rng.standard_normal((episodes,) + truth.shape),
                        0, 1)
        return ext, noisy, truth

    def test_stack_equals_per_batch_calls(self, rng):
        ext, noisy, truth = self._stack(rng)
        ref = ext.extract(truth)
        feats = np.stack([ext.extract(batch) for batch in noisy])
        want = np.array([metrics.frechet_distance(f, ref) for f in feats])
        got = metrics.frechet_distance(feats, ref)
        assert got.shape == (16,)
        assert np.all(np.abs(got - want) <= 1e-12 * want)
        # fid extracts the whole stack in one float32 forward, so its
        # features equal per-batch extraction only to float32 rounding
        flat = ext.extract(noisy.reshape((-1,) + truth.shape[1:]))
        exact = np.array([metrics.frechet_distance(f, ref)
                          for f in flat.reshape(16, 16, -1)])
        per_batch = np.array([metrics.fid(batch, truth, ext)
                              for batch in noisy])
        for kwargs in ({}, {"reference_features": ref}):
            got_fid = metrics.fid(noisy, truth, ext, **kwargs)
            assert np.all(np.abs(got_fid - exact) <= 1e-12 * exact)
            assert np.all(np.abs(got_fid - per_batch) <= 1e-6 * per_batch)

    def test_unequal_sizes_and_single_episode_stack(self, rng):
        a = rng.standard_normal((3, 9, 6))
        b = 2.0 * rng.standard_normal((40, 6)) + 0.5
        got = metrics.frechet_distance(a, b)
        for x, g in zip(a, got):
            assert _rel(g, reference_frechet_distance(x, b)) <= 1e-9
        # the 2-d form is the one-episode stack and returns a float
        single = metrics.frechet_distance(a[0], b)
        assert isinstance(single, float)
        assert metrics.frechet_distance(a[:1], b)[0] == single

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_episode_raises(self, rng, bad):
        stack = rng.standard_normal((5, 16, 64))
        stack[3, 2, 7] = bad
        with pytest.raises(FloatingPointError):
            metrics.frechet_distance(stack, rng.standard_normal((16, 64)))

    def test_stack_of_references_equals_per_batch_calls(self, rng):
        a = rng.standard_normal((4, 16, 64))
        b = 1.5 * rng.standard_normal((4, 12, 64)) + 0.2
        got = metrics.frechet_distance(a, b)
        assert got.tolist() == [metrics.frechet_distance(x, y)
                                for x, y in zip(a, b)]
        with pytest.raises(ValueError, match="4 batches against 3"):
            metrics.frechet_distance(a, b[:3])
        # fid extracts both stacks batch by batch, each as a call of its own
        ext, noisy, _ = self._stack(rng, episodes=4)
        truths = np.clip(noisy[::-1] + 0.1, 0, 1)
        want = [metrics.fid(x, y, ext) for x, y in zip(noisy, truths)]
        assert metrics.fid(noisy, truths, ext).tolist() == want
        assert metrics.fid(noisy, None, ext,
                           reference_features=ext.extract(truths)).tolist() \
            == want

    @pytest.mark.parametrize("cells", [2, 4])
    @pytest.mark.parametrize("prompts", [4, 10, 16])
    def test_stacked_extract_equals_per_batch_calls(self, rng, cells,
                                                    prompts):
        # the desk extractor runs its 2048 -> 128 layer on the stack's flat
        # rows and its 128 -> 64 layer batch by batch
        cfg = config.desk_config()
        ext = metrics.FeatureExtractor(cfg.pixel_count)
        images = rng.random((cells, prompts) + cfg.image_shape)
        got = ext.extract(images)
        assert got.shape == (cells, prompts, ext.feature_dim)
        for batch, features in zip(images, got):
            assert features.tobytes() == ext.extract(batch).tobytes()

    def test_stacked_reference_rejected(self, rng):
        with pytest.raises(ValueError):
            metrics.frechet_distance(rng.standard_normal((16, 4)),
                                     rng.standard_normal((2, 16, 4)))


class TestSymbolCount:
    def test_reference_values(self):
        shape = (4, 512, 512)
        assert metrics.symbol_count("centralized", shape, 8) == 1_048_576
        assert metrics.symbol_count("raw_feature", shape, 8) == 16_384
        assert metrics.symbol_count("meg", shape, 8, 0.3) == 4_915

    def test_strict_mode_ordering(self):
        for shape, fd, z in (((4, 512, 512), 8, 4), ((2, 32, 32), 4, 2)):
            for rate in (0.1, 0.5, 0.9):
                meg = metrics.symbol_count("meg", shape, fd, rate, z)
                raw = metrics.symbol_count("raw_feature", shape, fd,
                                           latent_channels=z)
                cen = metrics.symbol_count("centralized", shape, fd)
                assert meg < raw < cen

    def test_meg_needs_rate(self):
        with pytest.raises(ValueError):
            metrics.symbol_count("meg", (1, 8, 8), 2)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            metrics.symbol_count("broadcast", (1, 8, 8), 2)


class TestMetricReport:
    def test_validation(self):
        metrics.MetricReport(math.inf, 0.5, 0.0, 64)
        with pytest.raises(ValueError):
            metrics.MetricReport(10.0, math.nan, 0.1, 64)
