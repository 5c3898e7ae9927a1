"""Tests for signal containers, excitation generation, and spectra."""

import math

import numpy as np
import pytest

from beyondnyq.signals import (
    FastSignal,
    FirModel,
    SlowSignal,
    downsample,
    fir_frf,
    full_band,
    random_multisine,
    random_noise,
    read_signal_csv,
    write_signal_csv,
)


def table_multisine(n, band, rms, seed):
    """Oracle: the random-phase multisine as a sum over a ``bins x N`` cosine
    table, drawing the phases and the Nyquist sign like :func:`random_multisine`.
    ``k t`` is reduced modulo ``N`` in integers first: the cosine is periodic
    in it, and the unreduced argument (up to about ``2 pi N / 2``) would add
    rounding of its own."""
    lo, hi = band
    rng = np.random.Generator(np.random.PCG64(seed))
    bins = np.arange(lo, hi + 1)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=bins.size)
    at_nyquist = (n % 2 == 0) & (bins == n // 2)
    phases[at_nyquist] = np.where(rng.random(np.count_nonzero(at_nyquist)) < 0.5, 0.0, np.pi)
    t = np.arange(n)
    x = np.cos(2.0 * np.pi * (np.outer(bins, t) % n) / n + phases[:, None]).sum(axis=0)
    return x * rms / np.sqrt(np.mean(x**2))


def table_fir_frf(theta, period, omegas):
    """Oracle: ``sum_i theta_i exp(-j w T i)`` through the K x P exponential table."""
    return np.exp(-1j * np.outer(omegas, np.arange(len(theta))) * period) @ theta


def dft(x):
    """Unnormalized DFT ``X(k) = sum_t x(t) exp(-j 2 pi k t / N)`` of a signal
    or a sequence: the spectrum oracle the multisine tests read."""
    samples = x.samples if isinstance(x, (FastSignal, SlowSignal)) else np.asarray(x, dtype=float)
    return np.fft.fft(samples)


def naive_dft(x):
    """O(N^2) summation oracle: X(k) = sum_t x(t) exp(-2j pi k t / N)."""
    n = len(x)
    k = np.arange(n)
    return np.array([np.sum(x * np.exp(-2j * np.pi * kk * k / n)) for kk in range(n)])


# an infinite, a string and a boolean period: none is a positive number
BAD_PERIODS = (math.inf, "0.1", True)


class TestContainers:
    def test_fast_signal_validation(self):
        with pytest.raises(ValueError):
            FastSignal(samples=[], period=0.1)
        with pytest.raises(ValueError):
            FastSignal(samples=[1.0, np.nan], period=0.1)
        with pytest.raises(ValueError):
            FastSignal(samples=[1.0], period=0.0)
        for period in BAD_PERIODS:
            with pytest.raises(ValueError, match="period"):
                FastSignal(samples=[1.0], period=period)

    def test_slow_signal_validation(self):
        with pytest.raises(ValueError):
            SlowSignal(samples=[1.0], period=0.3, factor=0)
        for period in BAD_PERIODS:
            with pytest.raises(ValueError, match="period"):
                SlowSignal(samples=[1.0], period=period, factor=3)
        for factor in (True, 1.5):
            with pytest.raises(TypeError, match="factor"):
                SlowSignal(samples=[1.0], period=0.3, factor=factor)
        sig = SlowSignal(samples=[1.0, 2.0], period=0.3, factor=3)
        assert sig.fast_period == pytest.approx(0.1)

    def test_fir_model_validation(self):
        for period in (0.0, *BAD_PERIODS):
            with pytest.raises(ValueError, match="period"):
                FirModel(theta=[1.0], period=period)

    def test_samples_are_immutable(self):
        sig = FastSignal(samples=[1.0, 2.0], period=0.1)
        with pytest.raises(ValueError):
            sig.samples[0] = 5.0


class TestDownsample:
    def test_every_third_sample(self):
        x = FastSignal(samples=[1, 2, 3, 4, 5, 6], period=0.1)
        y = downsample(x, 3)
        assert y.samples.tolist() == [1.0, 4.0]
        assert y.period == pytest.approx(0.3)
        assert y.factor == 3

    def test_factor_one_is_identity(self):
        x = FastSignal(samples=[3.0, 1.0, 4.0], period=0.5)
        y = downsample(x, 1)
        assert np.array_equal(y.samples, x.samples)
        assert y.period == x.period

    def test_benchmark_length(self):
        # 600 fast samples at factor 3 give the benchmark's 200 outputs
        x = random_noise(600, 0.1, 1.0, seed=0)
        assert len(downsample(x, 3)) == 200

    def test_composition_equals_combined_factor(self):
        x = random_noise(241, 0.01, 1.0, seed=7)
        twice = downsample(downsample(x, 2), 3)
        once = downsample(x, 6)
        m = min(len(twice), len(once))
        assert np.array_equal(twice.samples[:m], once.samples[:m])
        assert twice.factor == once.factor == 6

    def test_invalid_factor(self):
        x = FastSignal(samples=[1.0, 2.0], period=0.1)
        with pytest.raises(ValueError):
            downsample(x, 0)
        for factor in (True, 1.5):
            with pytest.raises(TypeError, match="factor"):
                downsample(x, factor)


class TestRandomMultisine:
    def test_single_bin_is_pure_cosine(self):
        n, k, rms = 64, 5, 0.7
        sig = random_multisine(n, 0.1, band=(k, k), rms=rms, seed=11)
        assert np.sqrt(np.mean(sig.samples**2)) == pytest.approx(rms, rel=1e-12)
        spectrum = np.abs(dft(sig))
        excited = np.argsort(spectrum)[-2:]
        assert set(excited) == {k, n - k}

    def test_deterministic_given_seed(self):
        a = random_multisine(128, 0.1, rms=1.0, seed=42)
        b = random_multisine(128, 0.1, rms=1.0, seed=42)
        assert np.array_equal(a.samples, b.samples)
        c = random_multisine(128, 0.1, rms=1.0, seed=43)
        assert not np.array_equal(a.samples, c.samples)

    def test_flat_amplitude_spectrum_full_band(self):
        n = 600
        sig = random_multisine(n, 0.1, rms=1.0, seed=3)
        spectrum = np.abs(dft(sig))
        lo, hi = full_band(n)
        excited = spectrum[lo : hi + 1]
        assert np.max(excited) - np.min(excited) <= 1e-9 * np.max(excited)
        # nothing outside the excited band (and its mirror) except rounding
        assert spectrum[0] <= 1e-6 * np.max(excited)

    def test_rms_scaling_exact(self):
        sig = random_multisine(600, 0.1, rms=2.5, seed=9)
        assert np.sqrt(np.mean(sig.samples**2)) == pytest.approx(2.5, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 64, 65, 600, 601, 5999, 6000])
    @pytest.mark.parametrize("with_nyquist", [False, True])
    def test_matches_cosine_table(self, n, with_nyquist):
        """With the band reaching bin N // 2 an even N excites its Nyquist bin
        (random sign); an odd N has none, and its two bands are the same."""
        band = (1, n // 2) if with_nyquist else full_band(n)
        for seed in (0, 5):
            x = random_multisine(n, 0.1, band, rms=1.7, seed=seed).samples
            expected = table_multisine(n, band, 1.7, seed)
            assert np.sqrt(np.mean((x - expected) ** 2)) <= 1e-12 * 1.7

    def test_nyquist_sign_is_drawn(self):
        signs = {np.sign(random_multisine(8, 0.1, (4, 4), seed=seed).samples[0]) for seed in range(8)}
        assert signs == {-1.0, 1.0}

    @pytest.mark.parametrize("band", [(1.5, 10.9), (1, 10.0), (True, 10), ("1", 10)])
    def test_non_integral_band_rejected(self, band):
        with pytest.raises(TypeError, match="band"):
            random_multisine(64, 0.1, band=band, rms=1.0, seed=0)

    def test_numpy_integer_band_accepted(self):
        a = random_multisine(64, 0.1, band=(np.int64(2), np.int32(9)), seed=1)
        b = random_multisine(64, 0.1, band=(2, 9), seed=1)
        assert np.array_equal(a.samples, b.samples)

    def test_empty_band_rejected(self):
        with pytest.raises(ValueError):
            random_multisine(64, 0.1, band=(5, 4), rms=1.0, seed=0)
        with pytest.raises(ValueError):
            random_multisine(64, 0.1, band=(0, 4), rms=1.0, seed=0)
        with pytest.raises(ValueError):
            random_multisine(64, 0.1, band=(1, 33), rms=1.0, seed=0)


class TestRandomNoise:
    def test_variance_near_rms_squared(self):
        sig = random_noise(100_000, 0.1, rms=1.0, seed=5)
        assert np.var(sig.samples) == pytest.approx(1.0, rel=0.1)

    def test_mean_near_zero(self):
        sig = random_noise(100_000, 0.1, rms=1.0, seed=6)
        assert abs(np.mean(sig.samples)) < 0.02

    def test_deterministic(self):
        a = random_noise(256, 0.1, rms=0.5, seed=1)
        b = random_noise(256, 0.1, rms=0.5, seed=1)
        assert np.array_equal(a.samples, b.samples)

    def test_invalid_rms(self):
        with pytest.raises(ValueError):
            random_noise(16, 0.1, rms=0.0, seed=0)


class TestFirFrf:
    def test_unit_impulse_is_flat(self):
        model = FirModel(theta=[1.0], period=0.1)
        values = fir_frf(model, [0.0, 3.0, 40.0])
        assert values.shape == (3,)
        np.testing.assert_allclose(values, 1 + 0j)

    def test_one_sample_delay(self):
        period = 0.1
        model = FirModel(theta=[0.0, 1.0], period=period)
        lo, hi = fir_frf(model, [0.0, np.pi / period])
        assert lo == pytest.approx(1 + 0j)
        assert hi == pytest.approx(-1 + 0j)

    def test_two_tap_average_quarter_band(self):
        # 0.5 + 0.5 exp(-j pi/2) = 0.5 - 0.5j by direct summation
        period = 0.1
        model = FirModel(theta=[0.5, 0.5], period=period)
        (value,) = fir_frf(model, [np.pi / (2 * period)])
        assert value == pytest.approx(0.5 - 0.5j, abs=1e-12)

    def test_periodic_in_fast_rate(self):
        rng = np.random.default_rng(0)
        model = FirModel(theta=rng.normal(size=24), period=0.05)
        omegas = np.array([0.3, 7.0, 19.0])
        shifted = omegas + 2 * np.pi / model.period
        np.testing.assert_allclose(fir_frf(model, shifted), fir_frf(model, omegas), atol=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 63, 1000])
    def test_matches_exponential_table(self, order):
        rng = np.random.default_rng(order)
        theta = rng.normal(size=order) * 0.99 ** np.arange(order)
        period = 0.1
        # up to twice the fast Nyquist frequency, so past one period of the response
        omegas = np.linspace(0.0, 2.0 * np.pi / period, 1000)
        values = fir_frf(FirModel(theta=theta, period=period), omegas)
        expected = table_fir_frf(theta, period, omegas)
        assert np.max(np.abs(values - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_evaluable_beyond_slow_nyquist(self):
        model = FirModel(theta=[1.0, -0.5, 0.25], period=0.1)
        slow_nyquist = np.pi / 0.3
        values = fir_frf(model, [2 * slow_nyquist])
        assert np.all(np.isfinite(values))

    def test_negative_frequency_is_the_conjugate(self):
        """Any real frequency is accepted: a real response is conjugate symmetric."""
        model = FirModel(theta=[1.0, -0.5, 0.25], period=0.1)
        omegas = np.array([0.3, 7.0, 19.0])
        np.testing.assert_allclose(fir_frf(model, -omegas), np.conj(fir_frf(model, omegas)), atol=1e-15)


class TestDft:
    def test_impulse(self):
        np.testing.assert_allclose(dft([1.0, 0.0, 0.0, 0.0]), np.ones(4), atol=1e-15)

    def test_constant(self):
        np.testing.assert_allclose(dft([1.0, 1.0, 1.0, 1.0]), [4, 0, 0, 0], atol=1e-12)

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=64)
        np.testing.assert_allclose(dft(x), naive_dft(x), atol=1e-10)

    @pytest.mark.parametrize("n", [8, 37, 128, 256])
    def test_matches_naive_various_lengths(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        np.testing.assert_allclose(dft(x), naive_dft(x), atol=1e-10)

    def test_accepts_signals(self):
        sig = FastSignal(samples=[1.0, 2.0, 3.0], period=0.1)
        np.testing.assert_allclose(dft(sig), naive_dft(sig.samples), atol=1e-12)


class TestSignalCsv:
    def test_round_trip(self, tmp_path):
        sig = random_noise(40, 0.1, 1.0, seed=8)
        path = tmp_path / "u.csv"
        write_signal_csv(sig, path)
        values = read_signal_csv(path)
        assert np.array_equal(values, sig.samples)

    def test_rewrite_is_byte_identical(self, tmp_path):
        sig = random_noise(25, 0.1, 1.0, seed=9)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_signal_csv(sig, first)
        write_signal_csv(FastSignal(read_signal_csv(first), 0.1), second)
        assert first.read_bytes() == second.read_bytes()

    def test_cells_are_python_float_text(self, tmp_path):
        """Each value is written as ``format(float(v), ".17g")``, negative
        zero and subnormals included."""
        values = [1.0 / 3.0, -0.0, 5e-324, -2.2250738585072014e-309, 1e300, -7.0]
        path = tmp_path / "u.csv"
        write_signal_csv(FastSignal(samples=values, period=0.1), path)
        expected = "index,value\n" + "".join(f"{i},{format(float(v), '.17g')}\n" for i, v in enumerate(values))
        assert path.read_bytes() == expected.encode()
        assert "1,-0\n" in expected and "2,4.9406564584124654e-324\n" in expected

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1.0\n1,2.0\n")
        with pytest.raises(ValueError):
            read_signal_csv(path)

    @pytest.mark.parametrize(
        "rows, line",
        [("1,5\n0,3\n2,2\n", 2), ("0,5\n1,3\n3,2\n", 4), ("0,5\n1,nan\n2,2\n", 3)],
        ids=["shuffled-index", "gapped-index", "nan-value"],
    )
    def test_bad_row_names_its_line(self, tmp_path, rows, line):
        """Row ``i`` must have index ``i`` and a finite value; a row that
        has not fails at its ``path:line``, never reads as a sample."""
        path = tmp_path / "bad.csv"
        path.write_text("index,value\n" + rows)
        with pytest.raises(ValueError, match=f"bad.csv:{line}: "):
            read_signal_csv(path)
