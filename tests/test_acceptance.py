"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its measured numbers. Run with ``pytest tests/test_acceptance.py
-v -s`` to see the lines as they happen.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import claims
from gradcheck import clone_codec, numeric_gradient
from megsim import channel as ch
from megsim import (config, corpus, experiments, genmodel, metrics, nn,
                    protocol, seedcodec)
from megsim.util import derive_seed


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def paper_cfg(tmp_path_factory):
    return replace(config.paper_arithmetic_config(),
                   out=str(tmp_path_factory.mktemp("paper"))).validate()


@pytest.fixture(scope="module")
def ppo_run(desk_bundle, desk_cfg):
    """Shared training run at the tightest budget for criteria 8 and 9."""
    return claims.allocator_gain(desk_bundle, desk_cfg)


def test_criterion_01_transmitted_symbol_table(paper_cfg):
    start = time.perf_counter()
    rep = experiments.cmd_table(paper_cfg)
    symbols = dict(rep.symbol_rows)
    want = {"centralized": 1_048_576, "raw_feature": 16_384,
            "meg f_c=0.1": 1_638, "meg f_c=0.3": 4_915, "meg f_c=0.5": 8_192,
            "meg f_c=0.7": 11_469, "meg f_c=0.9": 14_746}
    elapsed = time.perf_counter() - start
    ok = symbols == want and elapsed < 1.0
    report(1, ok, f"symbol counts exact at full scale ({elapsed * 1e3:.0f} ms)")


def test_criterion_02_codec_parameter_counts(paper_cfg):
    start = time.perf_counter()
    rep = experiments.cmd_table(paper_cfg)
    counts = [c for _, _, c in rep.param_rows if c]
    want = [134_225_920, 134_234_112, 147_465_000, 147_472_384, 32_768]
    elapsed = time.perf_counter() - start
    ok = counts == want and rep.total_params == 563_430_184 and elapsed < 1.0
    report(2, ok, f"parameter counts exact, total {rep.total_params:,} "
                  f"({elapsed * 1e3:.0f} ms)")


def test_criterion_03_reverse_sampler_algebra():
    start = time.perf_counter()

    class Oracle:
        def __init__(self, eps):
            self.eps = eps

        def predict(self, z_t, t, emb):
            return self.eps

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        steps = int(rng.integers(2, 21))
        lo = float(rng.uniform(1e-5, 1e-3))
        hi = float(rng.uniform(5e-3, 0.15))
        sched = genmodel.make_schedule(steps, lo, hi)
        z0 = rng.standard_normal(int(rng.integers(4, 64)))
        eps = rng.standard_normal(z0.size)
        z = genmodel.diffuse_forward(z0, steps, eps, sched)
        den = Oracle(eps)
        for t in range(steps, 0, -1):
            z = genmodel.ddim_step(den, z, t, None, sched)
        worst = max(worst, float(np.max(np.abs(z - z0))))
    # bit determinism with all sigmas zero
    sched = genmodel.make_schedule(10)
    den = Oracle(np.random.default_rng(1).standard_normal(16))
    zt = np.random.default_rng(2).standard_normal(16)
    a = genmodel.ddim_step(den, zt, 5, None, sched)
    b = genmodel.ddim_step(den, zt, 5, None, sched)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and np.array_equal(a, b) and elapsed < 10.0
    report(3, ok, f"reverse sampler inverts forward diffusion, "
                  f"max |err| {worst:.2e} over 100 draws ({elapsed:.1f} s)")


def _layer_fd_worst(layer_factory, in_dim, draws, rng):
    worst = 0.0
    for _ in range(draws):
        layer = layer_factory(rng)
        x = rng.standard_normal((2, in_dim))
        out0 = layer.forward(x, cache=False)
        # keep relu preactivations away from the kink, where the exact
        # derivative is discontinuous and finite differences are undefined
        if getattr(layer, "activation", None) == "relu":
            tries = 0
            while np.min(np.abs(x @ layer.weights.T + layer.bias)) < 1e-3:
                x = rng.standard_normal((2, in_dim))
                tries += 1
                assert tries < 50
        target = rng.standard_normal((2, out0.shape[-1]))

        def loss():
            d = layer.forward(x, cache=False) - target
            return float(np.sum(d * d))

        out = layer.forward(x)
        grads = layer.backward(2.0 * (out - target))
        analytic = [grads[0]] + list(grads[1:])
        numeric = numeric_gradient(loss, [x] + layer.params(), step=1e-4)
        for a, n in zip(analytic, numeric):
            # relative to the gradient's own scale; components far below
            # the array maximum are floored so FD truncation noise on
            # near-zero entries is not misread as error
            floor = max(1e-3 * float(np.max(np.abs(n))), 1e-9)
            rel = np.max(np.abs(a - n)
                         / np.maximum(np.maximum(np.abs(n), np.abs(a)), floor))
            worst = max(worst, float(rel))
    return worst


def test_criterion_04_gradient_integrity(rng):
    start = time.perf_counter()
    worst_layers = 0.0
    for act in ("none", "relu", "tanh"):
        worst_layers = max(worst_layers, _layer_fd_worst(
            lambda r, a=act: nn.DenseLayer(5, 4, a, r, dtype=np.float64),
            5, 100, rng))

    def make_ln(r):
        ln = nn.LayerNorm(6, dtype=np.float64)
        ln.gain = r.standard_normal(6)
        ln.offset = r.standard_normal(6)
        return ln

    worst_layers = max(worst_layers, _layer_fd_worst(make_ln, 6, 100, rng))
    worst_layers = max(worst_layers, _layer_fd_worst(
        lambda r: nn.Normalize(6, dtype=np.float64), 6, 100, rng))

    # latents [2, 4, 4]: the desk's 32 x 32 images downsampled 8 times
    small = replace(config.desk_config(), downsample=8, codec_hidden=24)
    pair = clone_codec(seedcodec.CodecPair(small, 0.5, rng=rng), np.float64)
    z = rng.standard_normal((3, 32))
    noise = rng.standard_normal((3, pair.seed_len)) * 0.3
    _, grads = seedcodec.transmission_gradients(pair, z, noise)
    numeric = numeric_gradient(
        lambda: seedcodec.transmission_loss(pair, z, noise), pair.net.params())
    worst_comp = max(float(np.max(np.abs(a - n) / np.maximum(np.abs(n), 1e-6)))
                     for a, n in zip(grads, numeric))
    elapsed = time.perf_counter() - start
    ok = worst_layers < 1e-4 and worst_comp < 1e-3 and elapsed < 60.0
    report(4, ok, f"finite differences: layers {worst_layers:.2e} (<1e-4), "
                  f"composition {worst_comp:.2e} (<1e-3) ({elapsed:.1f} s)")


def test_criterion_05_metric_properties(rng):
    feats = rng.standard_normal((12, 6))
    self_dist = metrics.frechet_distance(feats, feats)
    a = np.tile([1.0, 2.0, 3.0], (5, 1))
    b = np.tile([0.0, 2.0, 5.0], (5, 1))
    point_mass_err = abs(metrics.frechet_distance(a, b) - 5.0)
    g = np.random.default_rng(5)
    s1 = (0.0 + 1.0 * g.standard_normal(10_000))[:, None]
    s2 = (2.0 + 2.0 * g.standard_normal(10_000))[:, None]
    want = 4.0 + 1.0
    gauss_rel = abs(metrics.frechet_distance(s1, s2) - want) / want
    psnr_zero = metrics.psnr(np.zeros((4, 4)), np.full((4, 4), 255.0), 255)
    ok = (self_dist < 1e-6 and point_mass_err < 1e-6 and gauss_rel < 0.05
          and psnr_zero == 0.0)
    report(5, ok, f"distance(X,X)={self_dist:.1e}, point mass err "
                  f"{point_mass_err:.1e}, 1-d gaussian off by "
                  f"{gauss_rel * 100:.1f}%, full-contrast psnr {psnr_zero} dB")


def test_criterion_06_low_snr_mode_ordering(desk_bundle, desk_cfg):
    start = time.perf_counter()
    claim = claims.low_snr_ordering(desk_bundle, desk_cfg)
    med_fid, med_psnr = claim["fid"], claim["psnr"]
    elapsed = time.perf_counter() - start
    ok = claim["holds"] and elapsed < 900.0
    report(6, ok,
           f"-10 dB median fid meg {med_fid['meg']:.3f} < raw "
           f"{med_fid['raw_feature']:.3f} < central "
           f"{med_fid['centralized']:.3f}; +30 dB median psnr raw "
           f"{med_psnr['raw_feature']:.1f} >= meg {med_psnr['meg']:.1f} dB "
           f"({elapsed:.0f} s)")


def test_criterion_07_channel_statistics():
    m2 = float(np.mean(ch.fading_gains("rayleigh_block", 100_000, 7) ** 2))
    # the link as the sweep sends: one block of unit gain at unit power
    noise, _ = protocol.transmit_stream(np.zeros((1, 100_000)), [1.0],
                                        100_000, 0.7,
                                        np.random.default_rng(11))
    var_rel = abs(float(np.var(noise)) / 0.49 - 1.0)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(4096)
    residues = []
    for gain, power in ((0.2, 1.0), (1.0, 1.0), (2.5, 0.3)):
        y = ch.transmit(x, gain, power, 0.0)
        residues.append(float(np.max(np.abs(ch.equalize(y, gain, power) - x))))
    ok = abs(m2 - 1.0) < 0.02 and var_rel < 0.02 and max(residues) < 1e-9
    report(7, ok, f"rayleigh second moment {m2:.4f} (+-2%), noise variance "
                  f"off {var_rel * 100:.2f}%, equalize-transmit residue "
                  f"{max(residues):.1e}")


def test_criterion_08_power_budget_exhaustive(ppo_run):
    env = ppo_run["env"]
    # run raises at the first episode over its budget, after counting it
    violations = int(env.max_overspend > 0)
    ok = env.steps_taken >= 10_000 and violations == 0
    report(8, ok, f"{env.steps_taken} steps over {env.episodes_run} "
                  f"episodes, {violations} budget violations")


def test_criterion_09_allocator_beats_even_split(ppo_run):
    wins, losses = ppo_run["wins"], ppo_run["losses"]
    report(9, ppo_run["holds"],
           f"paired reward gain {ppo_run['gain']:+.4f}, "
           f"{wins}/{wins + losses} wins, sign test p="
           f"{ppo_run['p_value']:.2e}")


def test_criterion_10_protocol_exactness(desk_bundle, desk_cfg):
    rng = np.random.default_rng(0)
    mismatches = 0
    for _ in range(10_000):
        shape = tuple(int(rng.integers(1, 8)) for _ in range(3))
        frame = protocol.SeedFrame(
            int(rng.integers(1, 65536)), shape, int(rng.integers(1, 64)),
            float(rng.standard_normal()),
            rng.standard_normal(int(rng.integers(1, 128))).astype("<f4"))
        data = protocol.encode_frame(frame)
        if protocol.encode_frame(protocol.decode_frame(data)) != data:
            mismatches += 1
    prompts = corpus.sample_prompts(4, derive_seed(desk_cfg.seed, 20))
    rep = protocol.run_end_to_end(desk_bundle, protocol.serve_cells(
        desk_bundle, prompts, 0.5, desk_cfg.block_length,
        [protocol.RunSpec(None, "awgn", 11)]))
    codec = desk_bundle.codec_for(0.5)
    # the cell generator's first draw is its server noise, one row a prompt
    noise = np.random.default_rng(11).standard_normal(
        (len(prompts),) + desk_cfg.latent_shape)
    worst = 0.0
    for i, prompt in enumerate(prompts):
        (frame,), _ = protocol.es_handle_request(
            desk_bundle, [prompt], noise[i:i + 1], 0.5,
            desk_cfg.block_length)
        (local,) = desk_bundle.autoencoder.decode(
            codec.decompress(frame.payload[None], [frame.scale]))
        worst = max(worst, float(np.max(np.abs(local - rep[0, "meg"].images[i]))))
    ok = mismatches == 0 and worst < 1e-6
    report(10, ok, f"10^4 frame round trips byte-identical "
                   f"({mismatches} mismatches); noiseless end-to-end vs "
                   f"local pipeline max |err| {worst:.1e}")
