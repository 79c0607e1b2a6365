import csv

import numpy as np
import pytest
from scipy import stats

from megsim import channel as ch
from megsim.util import write_csv


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def export_trace_csv(gains, block_length, path):
    """Write one trace as (block, gain) rows; block length rides in a
    comment."""
    write_csv(path, ["block", "gain"], enumerate(gains),
              comment=f"megsim fading trace v1 block_length={block_length}")


class TestSnrConversion:
    @pytest.mark.parametrize("snr_db,want", [(0.0, 1.0), (20.0, 0.1),
                                             (-20.0, 10.0)])
    def test_reference_points(self, snr_db, want):
        assert abs(ch.snr_to_noise_std(snr_db) - want) < 1e-12


class TestFadingTraces:
    def test_awgn_gains_are_unity(self):
        gains = ch.fading_gains("awgn", (5, 50), 0)
        assert gains.shape == (5, 50) and gains.dtype == np.float64
        assert np.all(gains == 1.0)

    def test_rayleigh_unit_second_moment(self):
        gains = ch.fading_gains("rayleigh_block", 100_000, 7)
        assert gains.dtype == np.float64 and np.all(gains > 0.0)
        m2 = float(np.mean(gains ** 2))
        assert 0.98 < m2 < 1.02

    def test_same_seed_same_trace(self):
        a = ch.fading_gains("rayleigh_block", 100, 5)
        b = ch.fading_gains("rayleigh_block", 100, 5)
        assert np.array_equal(a, b)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown channel kind"):
            ch.fading_gains("nakagami", 8, 0)

    def test_non_positive_block_length_rejected(self):
        for block_length in (0, -4):
            with pytest.raises(ValueError, match="block length must be"):
                ch.block_count(64, block_length)
        assert ch.block_count(64, 1) == 64 and ch.block_count(65, 16) == 5

    def test_csv_round_trip(self, tmp_path):
        gains = ch.fading_gains("rayleigh_block", 40, 9)
        path = tmp_path / "trace.csv"
        export_trace_csv(gains, 16, path)
        comment, header, *rows = read_csv(path)
        assert comment == ["# megsim fading trace v1 block_length=16"]
        assert header == ["block", "gain"]
        assert [int(b) for b, _ in rows] == list(range(40))
        assert np.array_equal([float(g) for _, g in rows], gains)

    def test_trace_set_round_trip(self, tmp_path):
        gains = ch.fading_gains("rayleigh_block", (5, 6), 3)
        path = tmp_path / "set.csv"
        ch.export_trace_set(gains, 4, path)
        comment, header, *rows = read_csv(path)
        assert comment == ["# megsim fading trace set v1 block_length=4"]
        assert header == ["trace", "block", "gain"]
        assert [(int(t), int(b)) for t, b, _ in rows] \
            == [(t, b) for t in range(5) for b in range(6)]
        back = np.array([float(g) for _, _, g in rows]).reshape(5, 6)
        assert np.array_equal(back, gains)


class TestTransmitEqualize:
    def test_clean_unit_channel_is_identity(self, rng):
        x = rng.standard_normal(64)
        y = ch.transmit(x, 1.0, 1.0, 0.0)
        assert np.array_equal(y, x)

    def test_amplitude_algebra(self, rng):
        # gain 2 with power 4 scales the signal by 2 * sqrt(4) = 4
        x = rng.standard_normal(32)
        y = ch.transmit(x, 2.0, 4.0, 0.0)
        assert np.allclose(y, 4.0 * x)

    def test_noise_variance_monte_carlo(self):
        rng = np.random.default_rng(11)
        y = ch.transmit(np.zeros(100_000), 1.0, 1.0,
                        rng.normal(0.0, 0.7, 100_000))
        assert abs(np.var(y) / 0.49 - 1.0) < 0.02

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            ch.transmit(np.zeros(4), 1.0, -0.5, 0.0)

    def test_equalize_inverts_noiseless(self, rng):
        x = rng.standard_normal(128)
        for gain, power in ((0.3, 1.0), (1.7, 0.25), (0.9, 9.0)):
            y = ch.transmit(x, gain, power, 0.0)
            back = ch.equalize(y, gain, power)
            assert np.max(np.abs(back - x)) < 1e-6

    def test_residual_noise_amplification(self):
        # gain 0.5 at unit power doubles the noise level
        rng = np.random.default_rng(2)
        x = np.zeros(100_000)
        y = ch.transmit(x, 0.5, 1.0, rng.normal(0.0, 0.1, x.shape))
        residual = ch.equalize(y, 0.5, 1.0)
        assert abs(float(np.std(residual)) / 0.2 - 1.0) < 0.02

    def test_zero_power_is_erasure(self, rng):
        # an erased block (h sqrt(p) == 0) reads as +0.0, never -0.0;
        # elsewhere y / (h sqrt(p)) bit for bit
        y = rng.standard_normal((3, 8))
        assert np.any(y < 0)
        erased = ch.equalize(y, 0.8, 0.0)
        assert erased.shape == y.shape and not np.any(np.signbit(erased))
        assert np.all(erased == 0.0)
        assert ch.equalize(y, 0.8, 2.0).tobytes() \
            == (y / (0.8 * np.sqrt(2.0))).tobytes()
        # a negative or NaN effective gain is refused, not read as erased
        for bad in (-0.5, np.nan):
            with pytest.raises(ValueError, match="effective gain"):
                ch.equalize(y, bad, 1.0)

    def test_snr_monotonicity(self):
        # higher SNR never increases the equalized symbol error
        snrs = [-10.0, -5.0, 0.0, 5.0, 10.0, 20.0, 30.0]
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(512)
            gain = float(np.maximum(rng.rayleigh(1 / np.sqrt(2)), 1e-3))
            errs = []
            for snr in snrs:
                noise_rng = np.random.default_rng(1000 + seed)
                y = ch.transmit(x, gain, 1.0, noise_rng.normal(
                    0.0, ch.snr_to_noise_std(snr), x.shape))
                errs.append(float(np.mean((ch.equalize(y, gain, 1.0) - x) ** 2)))
            rho = stats.spearmanr(snrs, errs).statistic
            assert rho < 0


class TestPerSymbolArrays:
    """Per-symbol gain/power arrays equal one scalar call per block."""

    def _blocks(self, rng):
        x = rng.standard_normal((3, 37))
        gains = np.maximum(rng.rayleigh(1 / np.sqrt(2), 3), 1e-12)
        powers = np.array([0.5, 2.0, 1.3])
        return x, gains, powers, np.repeat(gains, 16)[:37], \
            np.repeat(powers, 16)[:37]

    def test_transmit_matches_per_block_calls(self, rng):
        x, gains, powers, g_sym, p_sym = self._blocks(rng)
        got_rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        got = ch.transmit(x, g_sym, p_sym,
                          got_rng.normal(0.0, 0.3, x.shape))
        # the reference draws row by row, block by block
        rows = []
        for row in x:
            blocks = [row[i * 16:(i + 1) * 16] for i in range(3)]
            rows.append(np.concatenate([
                ch.transmit(block, gains[i], powers[i],
                            ref_rng.normal(0.0, 0.3, block.shape))
                for i, block in enumerate(blocks)]))
        assert np.array_equal(got, np.stack(rows))
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_equalize_matches_per_block_calls(self, rng):
        x, gains, powers, g_sym, p_sym = self._blocks(rng)
        y = ch.transmit(x, g_sym, p_sym, rng.normal(0.0, 0.1, x.shape))
        got = ch.equalize(y, g_sym, p_sym)
        want = np.concatenate([ch.equalize(y[:, i * 16:(i + 1) * 16],
                                           gains[i], powers[i])
                               for i in range(3)], axis=1)
        assert np.array_equal(got, want)

    def test_any_zero_power_is_erasure(self, rng):
        # per symbol: +0.0 where h sqrt(p) == 0, y / (h sqrt(p)) bit for
        # bit elsewhere
        y = rng.standard_normal((3, 8))
        gain = rng.uniform(0.1, 2.0, 8)
        gain[1] = 0.0
        power = np.array([1.0, 0.5, 0.0, 2.0, 1e-9, 0.0, 3.0, 0.7])
        got = ch.equalize(y, gain, power)
        live = gain * np.sqrt(power) > 0
        assert live.tolist() == [True, False, False, True, True, False,
                                 True, True]
        assert not np.any(np.signbit(got[:, ~live])) \
            and np.all(got[:, ~live] == 0.0)
        assert got[:, live].tobytes() \
            == (y[:, live] / (gain[live] * np.sqrt(power[live]))).tobytes()
        # one negative or NaN effective gain refuses the whole call
        for bad in (-0.5, np.nan):
            with pytest.raises(ValueError, match="effective gain"):
                ch.equalize(y, np.where(np.arange(8) == 3, bad, 1.0), power)
        with pytest.raises(ValueError, match="effective gain"):
            ch.equalize(y, 1.0, np.full(8, np.nan))

    def test_any_negative_power_rejected(self):
        # NaN compares False both ways, so it must not pass as >= 0
        for bad in (-1e-9, np.nan):
            with pytest.raises(ValueError, match="power must be >= 0"):
                ch.transmit(np.zeros(4), 1.0, np.array([1.0, 1.0, bad, 1.0]),
                            0.0)
