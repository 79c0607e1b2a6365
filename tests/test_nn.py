import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gradcheck import clone_codec, clone_network, numeric_gradient
from megsim import config, corpus, genmodel, nn, seedcodec
from megsim.errors import DimensionError, StateError, TrainingError


class ReferenceAdam:
    """The plain whole-array Adam form (Kingma & Ba, arXiv:1412.6980).

    Kept verbatim as the float64 oracle for ``nn.Adam``, which must stay
    within a stated drift bound of it (``TestAdamDrift``).
    """

    def __init__(self, learning_rate=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.step_count = 0
        self._moments = None

    def step(self, params, grads, names=None):
        if self._moments is None:
            self._moments = [(np.zeros_like(p, dtype=np.float64),
                              np.zeros_like(p, dtype=np.float64)) for p in params]
        if len(params) != len(self._moments):
            raise ValueError("parameter list changed size between steps")
        for i, g in enumerate(grads):
            if not np.all(np.isfinite(g)):
                label = names[i] if names else f"param[{i}]"
                raise TrainingError(f"non-finite gradient for {label}")
        self.step_count += 1
        c1 = 1.0 - self.beta1 ** self.step_count
        c2 = 1.0 - self.beta2 ** self.step_count
        for p, g, (m, v) in zip(params, grads, self._moments):
            g64 = np.asarray(g, dtype=np.float64)
            m *= self.beta1
            m += (1.0 - self.beta1) * g64
            v *= self.beta2
            v += (1.0 - self.beta2) * g64 * g64
            update = (self.learning_rate * (m / c1)
                      / (np.sqrt(v / c2) + self.epsilon))
            p -= update.astype(p.dtype)
        return params


class WholeArrayAdam:
    """``nn.Adam``'s step form on whole arrays: moments in the parameter's
    dtype, a gradient rounded to it on entry, and the same op order. The
    blocked, in-place ``nn.Adam`` must reproduce it bit for bit."""

    def __init__(self, learning_rate=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.step_count = 0
        self._moments = None

    def step(self, params, grads, names=None):
        if self._moments is None:
            self._moments = [(np.zeros_like(p), np.zeros_like(p))
                             for p in params]
        self.step_count += 1
        c1 = 1.0 - self.beta1 ** self.step_count
        c2 = 1.0 - self.beta2 ** self.step_count
        alpha = self.learning_rate * math.sqrt(c2) / c1
        eps_hat = self.epsilon * math.sqrt(c2)
        for p, g, (m, v) in zip(params, grads, self._moments):
            g = np.asarray(g).astype(p.dtype)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += ((1.0 - self.beta2) * g) * g
            p -= (alpha * m) / (np.sqrt(v) + eps_hat)
        return params


def _spread_gradients(rng, shapes, dtype):
    # spread magnitudes so the sqrt/eps path and tiny updates matter
    scale = 10.0 ** rng.uniform(-6, 2)
    return [(scale * rng.standard_normal(s)).astype(dtype) for s in shapes]


def fd_check(layer, in_dim, rng, tol=1e-4):
    """Central finite differences against the analytic backward (float64)."""
    x = rng.standard_normal((3, in_dim))
    target = rng.standard_normal((3, layer.forward(x, cache=False).shape[-1]))

    def loss():
        out = layer.forward(x, cache=False)
        return float(np.sum((out - target) ** 2))

    out = layer.forward(x)
    grads = layer.backward(2.0 * (out - target))
    arrays = [x] + layer.params()
    numeric = numeric_gradient(loss, arrays, step=1e-4)
    analytic = [grads[0]] + list(grads[1:])
    worst = 0.0
    for a, n in zip(analytic, numeric):
        # floor the denominator at a fraction of the gradient scale so FD
        # truncation noise on near-zero components does not dominate
        floor = max(1e-3 * float(np.max(np.abs(n))), 1e-9)
        denom = np.maximum(np.maximum(np.abs(n), np.abs(a)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    assert worst < tol, worst


class TestDense:
    def test_relu_definition(self):
        layer = nn.DenseLayer(3, 3, "relu")
        layer.weights[...] = np.eye(3)
        layer.bias[...] = 0
        out = layer.forward(np.array([[-1.0, 0.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 0.0, 2.0]])

    def test_zero_weights_give_bias(self, rng):
        layer = nn.DenseLayer(4, 2, "none", rng)
        layer.weights[...] = 0
        layer.bias[...] = [0.5, -1.5]
        out = layer.forward(rng.standard_normal((2, 4)))
        assert np.allclose(out, [[0.5, -1.5]] * 2)

    def test_matches_hand_computed_product(self, rng):
        layer = nn.DenseLayer(4, 3, "none", rng)
        x = rng.standard_normal(4).astype(np.float32)
        # independent oracle: explicit loops
        want = [sum(float(layer.weights[o, i]) * float(x[i]) for i in range(4))
                + float(layer.bias[o]) for o in range(3)]
        assert np.allclose(layer.forward(x[None]), [want], atol=1e-6)

    def test_shape_mismatch_names_layer(self, rng):
        layer = nn.DenseLayer(4, 3, name="enc0")
        with pytest.raises(DimensionError, match="enc0"):
            layer.forward(np.zeros((1, 5)))

    @pytest.mark.parametrize("shape", [(4,), (1, 1, 1, 4), ()])
    def test_only_2d_batches_accepted(self, shape):
        # a stack [S, B, n] is the one other form, and only uncached
        # (TestStackedForward)
        layers = [nn.DenseLayer(4, 3), nn.Normalize(4), nn.LayerNorm(4)]
        for layer in layers:
            for cache in (True, False):
                with pytest.raises(DimensionError):
                    layer.forward(np.zeros(shape), cache=cache)
            out = layer.forward(np.zeros((1, 4)))
            with pytest.raises(DimensionError):
                layer.backward(np.zeros(out.shape[1:]))
            with pytest.raises(DimensionError):
                layer.backward(np.zeros((1,) + out.shape))

    def test_bias_grad_equals_upstream(self, rng):
        layer = nn.DenseLayer(3, 2, "none", rng)
        layer.forward(rng.standard_normal((1, 3)))
        g = np.array([[0.3, -0.7]], dtype=np.float32)
        _, _, gb = layer.backward(g)
        assert np.allclose(gb, g[0])

    def test_relu_blocks_gradient_at_negative_preactivation(self):
        layer = nn.DenseLayer(1, 1, "relu")
        layer.weights[...] = 1.0
        layer.bias[...] = 0.0
        layer.forward(np.array([[-2.0]]))
        gx, gw, gb = layer.backward(np.array([[1.0]]))
        assert gx[0, 0] == 0 and gw[0, 0] == 0 and gb[0] == 0

    def test_seeded_weights_are_one_uniform_draw(self):
        layer = nn.DenseLayer(5, 3, rng=np.random.default_rng(4))
        bound = np.sqrt(1.0 / 5)
        want = np.random.default_rng(4).uniform(-bound, bound, (3, 5))
        assert layer.weights.tobytes() == want.astype(np.float32).tobytes()

    def test_without_rng_starts_at_zero_and_draws_nothing(self,
                                                           monkeypatch):
        def no_rng(*args):
            raise AssertionError("a skeleton layer made a generator")

        # megsim's own generators are util's np.random.default_rng PCG64s
        monkeypatch.setattr(np.random, "default_rng", no_rng)
        monkeypatch.setattr(np.random, "PCG64", no_rng)
        layer = nn.DenseLayer(4, 3, "relu")
        assert layer.weights.shape == (3, 4) and not layer.weights.any()

    def test_backward_without_forward_raises(self):
        layer = nn.DenseLayer(2, 2)
        with pytest.raises(StateError):
            layer.backward(np.zeros((1, 2)))

    @pytest.mark.parametrize("activation", ["none", "relu", "tanh"])
    def test_finite_difference(self, activation, rng):
        for _ in range(10):
            layer = nn.DenseLayer(5, 4, activation, rng, dtype=np.float64)
            fd_check(layer, 5, rng)


class TestStackedForward:
    """An uncached forward over a stack of batches [S, B, n] computes each
    batch as a 2-d call of its own would, bit for bit. The widths are large
    enough that one [S * B, n] product would take another BLAS kernel and
    round differently."""

    @staticmethod
    def _layers(rng):
        dense = [nn.DenseLayer(256, 384, act, rng) for act in nn.ACTIVATIONS]
        ln = nn.LayerNorm(256)
        ln.gain[...] = rng.standard_normal(256)
        ln.offset[...] = rng.standard_normal(256)
        return dense + [nn.Normalize(256), ln]

    @pytest.mark.parametrize("batch", [1, 3])
    def test_stack_equals_separate_calls(self, rng, batch):
        for layer in self._layers(rng):
            x = rng.standard_normal((16, batch, 256)).astype(np.float32)
            want = np.stack([layer.forward(b, cache=False) for b in x])
            got = layer.forward(x, cache=False)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), layer.name

    def test_cached_stack_rejected(self, rng):
        # backward takes only 2-d batches, so a cached forward does too
        for layer in self._layers(rng):
            with pytest.raises(DimensionError):
                layer.forward(np.zeros((2, 1, 256)), cache=True)


class TestNormalizeAndLayerNorm:
    def test_constant_input_returns_offset(self, rng):
        ln = nn.LayerNorm(4)
        ln.offset[...] = [1.0, 2.0, 3.0, 4.0]
        out = ln.forward(np.full((1, 4), 7.0))
        assert np.allclose(out, ln.offset, atol=1e-3)

    def test_two_point_closed_form(self):
        ln = nn.LayerNorm(2)
        out = ln.forward(np.array([[1.0, 3.0]]))
        # mean 2, population std 1, so the normalized pair is (-1, +1)
        assert np.allclose(out, [[-1.0, 1.0]], atol=1e-5)

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            nn.Normalize(4).forward(np.zeros((1, 3)))

    def test_finite_difference_layernorm(self, rng):
        for _ in range(10):
            ln = nn.LayerNorm(6, dtype=np.float64)
            ln.gain = rng.standard_normal(6)
            ln.offset = rng.standard_normal(6)
            fd_check(ln, 6, rng)

    def test_finite_difference_normalize(self, rng):
        for _ in range(10):
            fd_check(nn.Normalize(6, dtype=np.float64), 6, rng)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = np.array([1.0, -2.0], dtype=np.float32)
        nn.Adam(1e-3).step([p], [np.zeros(2)])
        assert np.array_equal(p, [1.0, -2.0])

    def test_first_step_closed_form(self):
        # bias correction makes the first step equal lr / (1 + eps)
        p = np.array([1.0])
        nn.Adam(1e-3).step([p], [np.array([1.0])])
        expected = 1.0 - 1e-3 / (1.0 + 1e-8)
        assert abs(p[0] - expected) < 1e-12

    def test_opposite_steps_return_near_start(self):
        p = np.array([1.0])
        opt = nn.Adam(1e-3)
        opt.step([p], [np.array([1.0])])
        opt.step([p], [np.array([-1.0])])
        # closed form: second-step momentum is (0.9*0.1 - 0.1)/0.19 of the
        # first, second moment corrects to exactly 1
        step1 = 1e-3 / (1.0 + 1e-8)
        step2 = 1e-3 * (0.01 / 0.19) / (1.0 + 1e-8)
        assert abs(p[0] - (1.0 - step1 + step2)) < 1e-12
        assert abs(p[0] - 1.0) < 1e-3

    def test_nonfinite_gradient_names_parameter(self):
        p = np.array([1.0])
        with pytest.raises(TrainingError, match="layer7.bias"):
            nn.Adam().step([p], [np.array([np.nan])], names=["layer7.bias"])

    @staticmethod
    def _three_params(rng):
        params = [rng.standard_normal((5, 4)).astype(np.float32),
                  rng.standard_normal(4).astype(np.float32),
                  rng.standard_normal((3, 7)).astype(np.float32)]
        names = ["a.weights", "a.bias", "b.weights"]
        opt = nn.Adam(1e-2)
        opt.step(params, [rng.standard_normal(p.shape).astype(np.float32)
                          for p in params], names)
        return params, names, opt

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_third_gradient_raises_and_changes_nothing(self, rng,
                                                                 bad):
        params, names, opt = self._three_params(rng)
        grads = [rng.standard_normal(p.shape).astype(np.float32)
                 for p in params]
        grads[2][1, 5] = bad
        before = [p.copy() for p in params]
        moments = [(m.copy(), v.copy()) for m, v in opt._moments]
        with pytest.raises(TrainingError, match="b.weights"):
            opt.step(params, grads, names)
        assert opt.step_count == 1
        for p, q in zip(params, before):
            assert np.array_equal(p, q)
        for (m, v), (m0, v0) in zip(opt._moments, moments):
            assert np.array_equal(m, m0) and np.array_equal(v, v0)

    @pytest.mark.parametrize("bad", [None, np.nan, np.inf])
    def test_one_vector_steps_like_its_parameters(self, rng, bad):
        # one network vector over four parameters; its ADAM_BLOCK blocks
        # straddle the bounds between them
        net = nn.Network([nn.DenseLayer(400, 300, rng=rng, name="a"),
                          nn.DenseLayer(300, 50, rng=rng, name="b")], "n")
        assert net.flat.size > 2 * nn.ADAM_BLOCK
        net.bind_grad()
        arrays = [p.copy() for p in net.params()]
        grads = [g for layer in net.layers for g in layer.grads]
        opt, ref_opt = nn.Adam(1e-2), nn.Adam(1e-2)
        for _ in range(3):
            net.grad[...] = _spread_gradients(rng, [net.grad.shape],
                                              np.float32)[0]
            opt.step(*nn.network_vectors([net]))
            ref_opt.step(arrays, grads, net.param_names())
        if bad is not None:
            # the third parameter's slice, n.b.weights
            net.layers[1].grads[0][1, 5] = bad
            before = net.flat.copy()
            with pytest.raises(TrainingError, match=r"for n\.b\.weights$"):
                opt.step(*nn.network_vectors([net]))
            assert net.flat.tobytes() == before.tobytes()
        assert opt.step_count == ref_opt.step_count == 3
        assert [p.tobytes() for p in net.params()] \
            == [a.tobytes() for a in arrays]
        (m, v), = opt._moments
        assert m.tobytes() == np.concatenate(
            [rm.reshape(-1) for rm, _ in ref_opt._moments]).tobytes()
        assert v.tobytes() == np.concatenate(
            [rv.reshape(-1) for _, rv in ref_opt._moments]).tobytes()

    def test_float64_gradient_beyond_float32_range_raises(self):
        # it would round to inf on entry and turn the parameter into NaN
        p = np.ones(3, dtype=np.float32)
        opt = nn.Adam()
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(TrainingError, match="w.bias"):
            opt.step([p], [np.array([0.0, 1e39, 0.0])], names=["w.bias"])
        assert opt.step_count == 0 and opt._moments is None
        assert np.array_equal(p, np.ones(3))

    def test_first_step_failure_leaves_optimizer_fresh(self):
        p = np.ones(3, dtype=np.float32)
        opt = nn.Adam()
        with pytest.raises(TrainingError, match="param\\[0\\]"):
            opt.step([p], [np.array([0.0, np.inf, 0.0], np.float32)])
        assert opt.step_count == 0 and opt._moments is None
        assert np.array_equal(p, np.ones(3))

    def test_huge_finite_float32_gradients_raise_as_overflow(self):
        # finite extremes of either sign are not reported as non-finite
        # gradients, but their squares overflow the float32 second moment
        g = np.full(50_000, 3.0e38, dtype=np.float32)
        g[::2] = -3.0e38
        g[:10] = 3.4e38
        p = np.zeros_like(g)
        with pytest.raises(TrainingError, match=r"second moment of "
                           r"w\.weights overflows float32") as err:
            nn.Adam().step([p], [g], names=["w.weights"])
        assert "non-finite" not in str(err.value)

    @pytest.mark.parametrize("size", [5, nn.ADAM_BLOCK + 5])
    def test_overflowing_second_moment_names_its_element(self, size):
        # v = inf would stop the element for good: g = 1e20 squares to a
        # finite 1e37 in float32, but v sums to inf within 40 steps
        net = nn.Network([nn.DenseLayer(size, 1, name="a")], "n")
        net.bind_grad()
        net.grad[...] = 0.0
        net.grad[-2] = 1e20
        opt = nn.Adam()
        with pytest.raises(TrainingError, match=rf"of n\.a\.weights "
                           rf"overflows float32 at element {size - 1} "):
            for _ in range(40):
                opt.step(*nn.network_vectors([net]))
        assert 1 < opt.step_count < 40
        net.grad[-2] = 6e20
        with pytest.raises(TrainingError, match=r"\(gradient 6e\+20\)"):
            nn.Adam().step(*nn.network_vectors([net]))

    @pytest.mark.parametrize("p_dtype,g_dtype", [
        (np.float32, np.float32), (np.float32, np.float64),
        (np.float64, np.float64)])
    def test_moments_take_the_parameter_dtype(self, p_dtype, g_dtype):
        params = [np.zeros((3, 2), p_dtype), np.zeros(5, p_dtype)]
        opt = nn.Adam()
        opt.step(params, [np.ones(p.shape, g_dtype) for p in params])
        for p, (m, v) in zip(params, opt._moments):
            assert m.dtype == v.dtype == p.dtype
            assert m.shape == v.shape == p.shape

    def test_gradient_count_must_match(self):
        params = [np.ones(2, np.float32), np.ones(3, np.float32)]
        with pytest.raises(ValueError, match="1 gradients for 2"):
            nn.Adam().step(params, [np.ones(2, np.float32)])
        assert all(np.array_equal(p, np.ones(p.size)) for p in params)

    def test_non_contiguous_parameter_raises(self):
        base = np.zeros((4, 6), dtype=np.float32)
        with pytest.raises(ValueError, match="contiguous"):
            nn.Adam().step([base.T], [np.ones((6, 4), np.float32)],
                           names=["t.weights"])
        assert np.array_equal(base, np.zeros((4, 6)))


class TestAdamMatchesReference:
    """The blocked in-place Adam equals the whole-array form of its step
    bit for bit: every op is elementwise and correctly rounded."""

    SHAPES = [(6, 5), (5,), (3, 4, 2)]

    def _check(self, rng, shapes, p_dtype, g_dtype):
        mine = [rng.standard_normal(s).astype(p_dtype) for s in shapes]
        ref = [p.copy() for p in mine]
        opt, ref_opt = nn.Adam(), WholeArrayAdam()
        for _ in range(50):
            grads = _spread_gradients(rng, shapes, g_dtype)
            opt.step(mine, grads)
            ref_opt.step(ref, grads)
        assert opt.step_count == ref_opt.step_count == 50
        for p, q in zip(mine, ref):
            assert p.dtype == q.dtype and np.array_equal(p, q)
        for (m, v), (rm, rv) in zip(opt._moments, ref_opt._moments):
            assert np.array_equal(m, rm) and np.array_equal(v, rv)

    def test_float32_params_float32_grads(self, rng):
        self._check(rng, self.SHAPES, np.float32, np.float32)

    def test_float32_params_float64_grads(self, rng):
        self._check(rng, self.SHAPES, np.float32, np.float64)

    def test_float64_params(self, rng):
        self._check(rng, self.SHAPES, np.float64, np.float64)

    def test_parameter_spanning_several_blocks(self, rng):
        # 2.5 blocks plus an odd tail: the last block is a partial one
        size = 2 * nn.ADAM_BLOCK + nn.ADAM_BLOCK // 2 + 7
        assert size % nn.ADAM_BLOCK
        self._check(rng, [(size,), (13,)], np.float32, np.float32)

    def test_trained_networks_save_byte_identical(self, rng, tmp_path,
                                                  monkeypatch):
        # 3 x 16 x 16 pixels x 32 hidden = 24,576 weights, more than a block
        prompts, images = corpus.build_corpus(10, 3, 16, 16, seed=4)
        # images [3, 16, 16], latents [2, 4, 4]
        cfg = replace(config.desk_config(), channels=3, height=16, width=16,
                      ae_steps=40, ae_batch=4, ae_hidden=32,
                      ae_encoder_hidden=32, dn_steps=40, dn_batch=4,
                      dn_hidden=24, time_dim=8, diffusion_steps=6)

        def train_and_save(tag):
            pair, _ = genmodel.train_autoencoder(images, cfg, seed=1)
            den, _ = genmodel.train_denoiser(
                pair, list(zip(prompts, images)), cfg, seed=2)
            blobs = []
            for k, net in enumerate((pair.encoder, pair.decoder, den.net)):
                path = tmp_path / f"{tag}{k}.bin"
                nn.save_network(path, net)
                blobs.append(path.read_bytes())
            return blobs

        mine = train_and_save("blocked")
        monkeypatch.setattr(nn, "Adam", WholeArrayAdam)
        ref = train_and_save("reference")
        assert mine == ref


def _bits(x):
    """``x`` as unsigned integers: equal bits, signed zeros included."""
    return x.view(f"u{x.itemsize}")


class TestAdamFlush:
    """Dead units: a third of the elements get a zero gradient after step
    50, and their first moments decay below the smallest normal number
    around step 800. ``nn.Adam`` flushes them; ``WholeArrayAdam`` never
    does. Two elements of the first parameter test the spacing guard,
    which must keep their moments: element 0 sits at p = 0 with a gradient
    of ten subnormal units over the first 50 steps, too small to move it;
    element 1 sits at p = 2**26 tiny with a gradient of tiny, so moments
    under the flush threshold still move it."""

    STEPS, LIVE_STEPS, SIZES = 1000, 50, (2000, 1000)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dead_units_match_the_unflushed_form(self, rng, dtype):
        info = np.finfo(dtype)
        # |m| starts near 1e34 * tiny and decays by 0.9 a step
        scale = 1e35 * float(info.tiny)
        mine = [rng.standard_normal(n).astype(dtype) for n in self.SIZES]
        mine[0][:2] = 0, 2.0 ** 26 * info.tiny
        ref = [p.copy() for p in mine]
        dead = [rng.random(n) < 1 / 3 for n in self.SIZES]
        dead[0][:2] = True
        opt, ref_opt = nn.Adam(), WholeArrayAdam()
        flushed = 0
        for step in range(1, self.STEPS + 1):
            grads = [(scale * rng.standard_normal(n)).astype(dtype)
                     for n in self.SIZES]
            grads[0][:2] = 10 * info.smallest_subnormal, info.tiny
            if step > self.LIVE_STEPS:
                for g, d in zip(grads, dead):
                    g[d] = 0
            opt.step(mine, grads)
            ref_opt.step(ref, grads)
            for p, q in zip(mine, ref):
                assert np.array_equal(_bits(p), _bits(q)), step
            if step % nn.ADAM_FLUSH_EVERY:
                continue
            threshold = opt.flush_threshold(dtype)
            for k, ((m, _), (rm, _)) in enumerate(zip(opt._moments,
                                                      ref_opt._moments)):
                moved = _bits(m) != _bits(rm)
                assert np.all(np.abs(rm[moved]) < threshold), step
                flushed += int(np.count_nonzero(moved))
                sub = np.flatnonzero((m != 0) & (np.abs(m) < info.tiny))
                assert list(sub) == ([0, 1] if k == 0 else []), step
        assert mine[0][0] == 0 and mine[0][1] != 2.0 ** 26 * info.tiny
        assert np.all(np.abs(opt._moments[0][0][:2]) < info.tiny)
        # the schedule reaches the subnormal range: without the flush,
        # hundreds of moments end there
        ref_sub = sum(int(np.count_nonzero((rm != 0) & (np.abs(rm) < info.tiny)))
                      for rm, _ in ref_opt._moments)
        assert ref_sub > 100 and flushed > 0


class TestAdamDrift:
    """``nn.Adam`` against the float64 reference form: after ``STEPS``
    spread-magnitude steps every parameter is within 2 ulps of the
    reference's value plus ``STEPS * lr * 1e-5`` (the worst of 100 seeds
    read a quarter of that bound)."""

    SHAPES = [(6, 5), (5,), (3, 4, 2)]
    STEPS, LR = 50, 1e-3

    @pytest.mark.parametrize("p_dtype,g_dtype", [
        (np.float32, np.float32), (np.float32, np.float64),
        (np.float64, np.float64)])
    def test_within_drift_bound(self, rng, p_dtype, g_dtype):
        mine = [rng.standard_normal(s).astype(p_dtype) for s in self.SHAPES]
        ref = [p.copy() for p in mine]
        opt, ref_opt = nn.Adam(self.LR), ReferenceAdam(self.LR)
        for _ in range(self.STEPS):
            grads = _spread_gradients(rng, self.SHAPES, g_dtype)
            opt.step(mine, grads)
            ref_opt.step(ref, grads)
        for p, q in zip(mine, ref):
            gap = np.abs(p.astype(np.float64) - q.astype(np.float64))
            bound = (2.0 * np.spacing(np.abs(q)).astype(np.float64)
                     + self.STEPS * self.LR * 1e-5)
            assert np.all(gap <= bound), float(np.max(gap / bound))


def _dense(n_in, n_out):
    return {"kind": "dense", "in_features": n_in, "out_features": n_out,
            "activation": "none", "name": "d"}


def _norm(kind, size):
    return {"kind": kind, "size": size, "epsilon": 1e-6, "name": "n"}


class TestParameterCount:
    @pytest.mark.parametrize("n_in,n_out,want", [
        (16384, 8192, 134_225_920),
        (9000, 16384, 147_472_384),
    ])
    def test_reference_dense_counts(self, n_in, n_out, want):
        assert nn.parameter_count([_dense(n_in, n_out)]) == want

    def test_layernorm_count(self):
        assert nn.parameter_count([_norm("layernorm", 16384)]) == 32_768
        assert nn.parameter_count([_norm("normalize", 16384)]) == 0

    def test_additive_over_concatenation(self, rng):
        a = [_dense(7, 5), _norm("normalize", 5)]
        b = [_norm("layernorm", 5), _dense(5, 2)]
        assert (nn.parameter_count(a + b)
                == nn.parameter_count(a) + nn.parameter_count(b))

    def test_counts_match_instances(self, rng):
        layers = [nn.DenseLayer(6, 4, "relu", rng), nn.LayerNorm(4),
                  nn.Normalize(4)]
        descriptors = [layer.descriptor() for layer in layers]
        assert nn.parameter_count(descriptors) == 6 * 4 + 4 + 8
        assert nn.parameter_count(descriptors) \
            == sum(layer.param_count for layer in layers)

    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError, match="residual"):
            nn.parameter_count([_dense(4, 4), {"kind": "residual"}])


class TestLayerFromDescriptor:
    def test_rebuilds_each_kind_with_the_same_draws(self):
        layers = [nn.DenseLayer(5, 3, "tanh", 7, "a"),
                  nn.Normalize(3, epsilon=1e-3, name="b"),
                  nn.LayerNorm(3, name="c")]
        for layer in layers:
            built = nn.layer_from_descriptor(layer.descriptor(), 7)
            assert type(built) is type(layer)
            assert built.descriptor() == layer.descriptor()
            for p, q in zip(built.params(), layer.params()):
                assert p.tobytes() == q.tobytes()


class TestNetworkAndSerialization:
    @staticmethod
    def _layers(rng):
        return [nn.DenseLayer(5, 4, "relu", rng, "l1"),
                nn.Normalize(4, name="l2"),
                nn.DenseLayer(4, 3, "tanh", rng, "l3"),
                nn.LayerNorm(3, name="l4")]

    def _net(self, rng):
        return nn.Network(self._layers(rng), name="t")

    def test_forward_is_pure(self, rng):
        net = self._net(rng)
        x = rng.standard_normal((2, 5)).astype(np.float32)
        a = net.forward(x, cache=False)
        b = net.forward(x, cache=False)
        assert np.array_equal(a, b)

    def test_roundtrip_bit_exact(self, rng, tmp_path):
        net = self._net(rng)
        path = tmp_path / "net.bin"
        nn.save_network(path, net, extra={"tag": 7})
        loaded = self._net(np.random.default_rng(99))
        assert nn.load_network(path, loaded) == {"tag": 7}
        for p, q in zip(net.params(), loaded.params()):
            assert p.tobytes() == q.tobytes()
        # second save of the loaded network is byte identical
        path2 = tmp_path / "net2.bin"
        nn.save_network(path2, loaded, extra={"tag": 7})
        assert path.read_bytes() == path2.read_bytes()

    # float32 bit patterns: -0.0, the smallest and largest subnormals of
    # either sign, +-inf, and quiet and signalling NaNs with payloads
    SPECIAL_BITS = (0x80000000, 0x00000001, 0x807FFFFF, 0x7F800000,
                    0xFF800000, 0x7FC00001, 0xFFC12345, 0x7F800001,
                    0xFFBFFFFF)

    def _pair(self, rng):
        return [self._net(rng),
                nn.Network([nn.DenseLayer(3, 2, "none", rng, "m")], "u")]

    @given(st.data())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_float32_bits_round_trip(self, tmp_path, data):
        # two networks in one file, filled with arbitrary bit patterns; the
        # first always starts with every special one
        nets = self._pair(np.random.default_rng(0))
        for net in nets:
            net.flat.view("<u4")[...] = data.draw(st.lists(
                st.one_of(st.integers(0, 2**32 - 1),
                          st.sampled_from(self.SPECIAL_BITS)),
                min_size=net.flat.size, max_size=net.flat.size))
        nets[0].flat.view("<u4")[:len(self.SPECIAL_BITS)] = self.SPECIAL_BITS
        path = tmp_path / "bits.bin"
        nn.save_network(path, *nets, extra={"tag": 1}, name="both")
        loaded = self._pair(np.random.default_rng(9))
        assert nn.load_network(path, *loaded) == {"tag": 1}
        for net, back in zip(nets, loaded):
            assert back.flat.tobytes() == net.flat.tobytes()
        again = tmp_path / "again.bin"
        nn.save_network(again, *loaded, extra={"tag": 1}, name="both")
        assert again.read_bytes() == path.read_bytes()

    def test_every_truncation_and_trailing_byte_rejected(self, rng,
                                                         tmp_path):
        import struct
        path = tmp_path / "net.bin"
        nn.save_network(path, self._net(rng))
        data = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for size in range(len(data)):
            cut.write_bytes(data[:size])
            for read in (nn.network_extra,
                         lambda p: nn.load_network(p, self._net(rng))):
                with pytest.raises((ValueError, struct.error)):
                    read(cut)
        cut.write_bytes(data + b"\0")
        with pytest.raises(ValueError, match="trailing"):
            nn.load_network(cut, self._net(rng))
        with pytest.raises(ValueError, match="weight bytes"):
            nn.network_extra(cut)

    def test_rejects_double_precision(self, rng, tmp_path):
        net = clone_network(self._net(rng), np.float64)
        with pytest.raises(ValueError):
            nn.save_network(tmp_path / "bad.bin", net)

    def test_network_backward_matches_fd(self, rng):
        net = clone_network(self._net(rng), np.float64)
        x = rng.standard_normal((2, 5))
        t = rng.standard_normal((2, 3))

        def loss():
            return float(np.sum((net.forward(x, cache=False) - t) ** 2))

        out = net.forward(x)
        _, grads = net.backward(2.0 * (out - t))
        numeric = numeric_gradient(loss, net.params())
        for a, n in zip(grads, numeric):
            assert np.max(np.abs(a - n) / np.maximum(np.abs(n), 1e-6)) < 1e-4

    @pytest.mark.parametrize("first", ["dense", "normalize", "layernorm"])
    def test_skipping_input_grad_keeps_param_grads(self, rng, first):
        head = {"dense": nn.DenseLayer(5, 5, "tanh", rng, "l0"),
                "normalize": nn.Normalize(5, name="l0"),
                "layernorm": nn.LayerNorm(5, name="l0")}[first]
        if first == "layernorm":
            head.gain = rng.standard_normal(5).astype(np.float32)
        net = nn.Network([head] + self._layers(rng), name="t")
        x = rng.standard_normal((6, 5)).astype(np.float32)
        g = rng.standard_normal((6, 3)).astype(np.float32)
        net.forward(x)
        gx, full = net.backward(g)
        # the returned gradients are views of net.grad, which the second
        # backward overwrites
        full = [a.copy() for a in full]
        none, skipped = net.backward(g, input_grad=False)
        assert gx.shape == x.shape and none is None
        assert len(full) == len(skipped) == len(net.params())
        for a, b in zip(full, skipped):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_dense_without_input_grad_single_sample(self, rng):
        layer = nn.DenseLayer(4, 3, "relu", rng)
        layer.forward(rng.standard_normal((1, 4)))
        g = rng.standard_normal((1, 3))
        gx, gw, gb = layer.backward(g)
        none, gw2, gb2 = layer.backward(g, input_grad=False)
        assert gx.shape == (1, 4) and none is None
        assert np.array_equal(gw, gw2) and np.array_equal(gb, gb2)


class TestLoadInto:
    """``load_network`` fills a given network in place."""

    def _net(self, rng):
        return TestNetworkAndSerialization()._net(rng)

    def test_fills_in_place_bit_exact_without_building_a_network(
            self, rng, tmp_path, monkeypatch):
        saved, target = self._net(rng), self._net(np.random.default_rng(99))
        path = tmp_path / "net.bin"
        nn.save_network(path, saved, extra={"dep_hash": "abc"})
        arrays = target.params()

        def no_build(*args, **kwargs):
            raise AssertionError("load_network built a layer")

        monkeypatch.setattr(nn.DenseLayer, "__init__", no_build)
        assert nn.load_network(path, target) == {"dep_hash": "abc"}
        assert nn.network_extra(path) == {"dep_hash": "abc"}
        for p, q, a in zip(saved.params(), target.params(), arrays):
            assert p.tobytes() == q.tobytes() and q is a

    def test_layout_mismatch_rejected(self, rng, tmp_path):
        path = tmp_path / "net.bin"
        nn.save_network(path, self._net(rng))
        other = nn.Network([nn.DenseLayer(5, 4, "relu", rng, "l1")])
        with pytest.raises(ValueError, match="holds layers"):
            nn.load_network(path, other)


class TestOneVectorPerNetwork:
    """Each layer's arrays stay views of its network's ``flat`` and
    ``grad``, so the vector Adam steps is the one the layers compute with."""

    def test_construction_load_and_clone(self, rng, tmp_path,
                                         assert_aliased):
        layers = TestNetworkAndSerialization._layers(rng)
        params = [p.copy() for layer in layers for p in layer.params()]
        net = nn.Network(layers, "t")
        assert_aliased(net)
        assert net.flat.tobytes() == np.concatenate(
            [p.reshape(-1) for p in params]).tobytes()
        # a network that has run no backward holds no gradient vector
        assert net.grad is None and all(layer.grads is None
                                        for layer in net.layers)
        net.forward(rng.standard_normal((2, 5)))
        _, grads = net.backward(rng.standard_normal((2, 3)))
        assert net.grad.shape == net.flat.shape
        assert all(g.base is net.grad for g in grads)
        assert_aliased(net)
        nn.save_network(tmp_path / "net.bin", net)
        loaded = nn.Network(TestNetworkAndSerialization._layers(
            np.random.default_rng(99)), "t")
        nn.load_network(tmp_path / "net.bin", loaded)
        assert_aliased(loaded)
        assert loaded.flat.tobytes() == net.flat.tobytes()
        assert_aliased(clone_network(net, np.float64))

    def test_a_layer_belongs_to_one_network(self, rng):
        net = nn.Network(TestNetworkAndSerialization._layers(rng), "t")
        with pytest.raises(ValueError, match="l3.*already belongs.*'t'"):
            nn.Network(net.layers[2:], "again")

    def test_name_at_names_each_element(self, rng):
        net = nn.Network(TestNetworkAndSerialization._layers(rng), "t")
        names = [name for p, name in zip(net.params(), net.param_names())
                 for _ in range(p.size)]
        assert [net.name_at(i) for i in range(net.flat.size)] == names

    def test_training_steps_move_the_layer_arrays(self, rng, tmp_path,
                                                  assert_aliased):
        images = rng.uniform(0, 1, (6, 3, 4, 4))
        # images [3, 4, 4], latents [2, 2, 2]
        cfg = replace(config.desk_config(), channels=3, height=4, width=4,
                      downsample=2, ae_steps=1, ae_batch=2, ae_hidden=8,
                      ae_encoder_hidden=8, codec_epochs=1, codec_batch=4,
                      codec_hidden=8)
        pair, _ = genmodel.train_autoencoder(images, cfg, seed=1)
        start = genmodel.AutoencoderPair(cfg, np.random.default_rng(1))
        for net, net0 in ((pair.encoder, start.encoder),
                          (pair.decoder, start.decoder)):
            assert_aliased(net)
            # training gives its gradient memory back
            assert net.grad is None and net.layers[0].grads is None
            assert not np.array_equal(net.layers[0].weights,
                                      net0.layers[0].weights)

        codec, _ = seedcodec.train_codec(rng.standard_normal((4, 2, 2, 2)),
                                         cfg, rate=0.5, seed=2)
        start = seedcodec.CodecPair(cfg, 0.5, np.random.default_rng(2))
        assert_aliased(codec.net)
        assert codec.net.grad is None
        assert codec.net.layers == [codec.enc, codec.d1, codec.n1, codec.d2,
                                    codec.n2, codec.d3, codec.ln]
        assert not np.array_equal(codec.enc.weights, start.enc.weights)
        codec.save(tmp_path / "codec.bin")
        loaded = seedcodec.CodecPair(cfg, 0.5)
        nn.load_network(tmp_path / "codec.bin", loaded.net)
        assert_aliased(loaded.net)
        assert loaded.net.flat.tobytes() == codec.net.flat.tobytes()
        assert_aliased(clone_codec(codec, np.float64).net)
