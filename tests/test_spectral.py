"""DFT core, half-spectrum transforms, band masks, circular convolution."""

import numpy as np
import pytest

from faim.errors import InputError, ShapeError
from faim.gradcheck import finite_diff_check
from faim.spectral import (
    KEEP_ABOVE,
    KEEP_BELOW,
    Spectrum,
    apply_mask,
    band_mask,
    circular_convolve,
    irfft,
    rfft,
)
from faim.tensor import Tape, Tensor, backward, mul, parameter, tsum


def naive_dft(x):
    """Textbook O(N^2) loop, kept deliberately independent of the library."""
    n = len(x)
    out = np.zeros(n, dtype=np.complex128)
    for k in range(n):
        for j in range(n):
            out[k] += x[j] * np.exp(-2j * np.pi * k * j / n)
    return out


def half_spectrum_weights(n):
    """Interior bins count twice; DC and (even n) Nyquist count once."""
    weights = np.full(n // 2 + 1, 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    return weights


def real_signal_spectrum(rng, n):
    """Random half-spectrum of a real signal: DC and (even n) Nyquist are real."""
    k = n // 2 + 1
    bins = rng.normal(size=k) + 1j * rng.normal(size=k)
    bins[0] = bins[0].real
    if n % 2 == 0:
        bins[-1] = bins[-1].real
    return bins


class TestFftCore:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 12, 16, 31, 64])
    def test_matches_naive_loop(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        np.testing.assert_allclose(
            rfft(Tensor(x)).bins.data, naive_dft(x)[: n // 2 + 1], atol=1e-9
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 10, 16, 27, 64])
    def test_inverse_round_trip(self, n):
        # spectrum -> tokens -> spectrum
        bins = real_signal_spectrum(np.random.default_rng(n + 200), n)
        y = irfft(Spectrum(Tensor(bins), n_time=n))
        np.testing.assert_allclose(rfft(y).bins.data, bins, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 8, 17, 32])
    def test_parseval(self, n):
        # energy of the inverse equals the weighted half-spectrum energy / n
        bins = real_signal_spectrum(np.random.default_rng(n + 300), n)
        y = irfft(Spectrum(Tensor(bins), n_time=n)).data
        freq_energy = np.sum(half_spectrum_weights(n) * np.abs(bins) ** 2) / n
        np.testing.assert_allclose(np.sum(y**2), freq_energy, rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 16, 17])
    def test_parseval_half_spectrum_weights(self, n):
        rng = np.random.default_rng(n + 400)
        x = rng.normal(size=n)
        bins = rfft(Tensor(x)).bins.data
        freq_energy = np.sum(half_spectrum_weights(n) * np.abs(bins) ** 2) / n
        np.testing.assert_allclose(np.sum(x**2), freq_energy, atol=1e-8)

    def test_linearity(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=16)
        y = rng.normal(size=16)
        np.testing.assert_allclose(
            rfft(Tensor(2.0 * x + 3.0 * y)).bins.data,
            2.0 * rfft(Tensor(x)).bins.data + 3.0 * rfft(Tensor(y)).bins.data,
            atol=1e-12,
        )


class TestRfft:
    def test_impulse_has_flat_spectrum(self):
        s = rfft(Tensor(np.array([1.0, 0.0, 0.0, 0.0])))
        assert s.n_time == 4
        np.testing.assert_allclose(s.bins.data, np.ones(3), atol=1e-12)

    def test_constant_concentrates_at_dc(self):
        s = rfft(Tensor(np.ones(4)))
        np.testing.assert_allclose(s.bins.data, [4.0, 0, 0], atol=1e-12)

    def test_inverse_of_flat_spectrum_is_impulse(self):
        y = irfft(Spectrum(Tensor(np.ones(3, dtype=np.complex128)), n_time=4))
        np.testing.assert_allclose(y.data, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_inverse_of_dc_spike_is_constant(self):
        y = irfft(Spectrum(Tensor(np.array([4.0, 0, 0], dtype=np.complex128)), n_time=4))
        np.testing.assert_allclose(y.data, np.ones(4), atol=1e-12)

    def test_length_four_example(self):
        # DERIVED via the naive loop: fft([1,2,3,4]) = [10, -2+2j, -2, -2-2j]
        s = rfft(Tensor(np.array([1.0, 2.0, 3.0, 4.0])))
        np.testing.assert_allclose(s.bins.data, [10.0, -2.0 + 2.0j, -2.0], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 20, 33, 64])
    def test_matches_numpy_half_spectrum(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        s = rfft(Tensor(x))
        np.testing.assert_allclose(s.bins.data, np.fft.rfft(x), atol=1e-10)

    def test_multidim_transforms_token_axis(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 3))
        s = rfft(Tensor(x))
        assert s.bins.shape == (5, 3)
        np.testing.assert_allclose(s.bins.data, np.fft.rfft(x, axis=0), atol=1e-10)

    def test_batched_transforms_second_to_last_axis(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 8, 3))
        s = rfft(Tensor(x))
        assert s.bins.shape == (2, 5, 3)
        np.testing.assert_allclose(s.bins.data, np.fft.rfft(x, axis=1), atol=1e-10)

    def test_complex_input_rejected(self):
        with pytest.raises(TypeError):
            rfft(Tensor(np.ones(4, dtype=np.complex128)))

    @pytest.mark.parametrize("n", range(1, 65))
    def test_round_trip_all_lengths(self, n):
        rng = np.random.default_rng(1000 + n)
        x = rng.normal(size=n)
        y = irfft(rfft(Tensor(x)))
        np.testing.assert_allclose(y.data, x, atol=1e-10)

    def test_spectrum_validates_bin_count(self):
        with pytest.raises(ShapeError):
            Spectrum(Tensor(np.ones(4, dtype=np.complex128)), n_time=8)

    @pytest.mark.parametrize("n", [4, 7, 8, 9])
    def test_rfft_gradient(self, n):
        rng = np.random.default_rng(n)

        def f(x):
            s = rfft(x)
            y = irfft(s)
            return tsum(mul(y, y))

        assert finite_diff_check(f, Tensor(rng.normal(size=n))) < 1e-4

    def test_irfft_gradient_through_spectrum_weights(self):
        # perturbing bins must respect the doubled interior-bin weighting
        rng = np.random.default_rng(9)
        x0 = rng.normal(size=8)

        def f(x):
            y = irfft(rfft(x))
            return tsum(mul(y, Tensor(np.arange(1.0, 9.0))))

        assert finite_diff_check(f, Tensor(x0)) < 1e-4

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 16, 64])
    def test_imaginary_dc_and_nyquist_invert_to_exact_zero(self, n):
        bins = np.zeros(n // 2 + 1, dtype=np.complex128)
        bins[0] = 3.7j
        if n % 2 == 0:
            bins[-1] = -1.3j  # only even lengths have a Nyquist bin
        y = irfft(Spectrum(Tensor(bins), n_time=n))
        np.testing.assert_array_equal(y.data, np.zeros(n))


class TestBandMask:
    def test_sigmoid_profile_values(self):
        # DERIVED: n=8 gives f_k = [0, .125, .25, .375, .5]; theta=.25, tau=.05
        # keep-below values are sigmoid((theta - f_k)/tau) = sigmoid([5,2.5,0,-2.5,-5])
        s = rfft(Tensor(np.ones(8)))
        m = band_mask(s, Tensor(0.25), KEEP_BELOW, tau=0.05)
        expected = [0.993307149076, 0.924141819979, 0.5, 0.075858180021, 0.006692850924]
        np.testing.assert_allclose(m.data, expected, atol=1e-9)

    def test_keep_above_is_complement(self):
        s = rfft(Tensor(np.ones(8)))
        lo = band_mask(s, Tensor(0.25), KEEP_BELOW, tau=0.05)
        hi = band_mask(s, Tensor(0.25), KEEP_ABOVE, tau=0.05)
        np.testing.assert_allclose(lo.data + hi.data, np.ones(5), atol=1e-12)

    def test_small_temperature_approaches_hard_gate(self):
        s = rfft(Tensor(np.ones(16)))
        m = band_mask(s, Tensor(0.2), KEEP_BELOW, tau=1e-4)
        freqs = np.arange(9) / 16.0
        np.testing.assert_allclose(m.data[freqs < 0.2 - 0.01], 1.0, atol=1e-8)
        np.testing.assert_allclose(m.data[freqs > 0.2 + 0.01], 0.0, atol=1e-8)

    def test_hard_limit_boundary_bin_reports_half(self):
        # bin exactly at the threshold sits at sigmoid(0) regardless of tau
        s = rfft(Tensor(np.ones(8)))
        m = band_mask(s, Tensor(0.25), KEEP_BELOW, tau=1e-6)
        np.testing.assert_allclose(m.data[:2], 1.0, atol=1e-10)
        np.testing.assert_allclose(m.data[2], 0.5, atol=1e-12)
        np.testing.assert_allclose(m.data[3:], 0.0, atol=1e-10)

    def test_direct_sigmoid_evaluation_profile(self):
        s = rfft(Tensor(np.ones(16)))
        m = band_mask(s, Tensor(0.2), KEEP_BELOW, tau=0.02)
        freqs = np.arange(9) / 16.0
        expected = 1.0 / (1.0 + np.exp(-(0.2 - freqs) / 0.02))
        np.testing.assert_allclose(m.data, expected, atol=1e-12)

    def test_monotone_profiles(self):
        s = rfft(Tensor(np.ones(32)))
        below = band_mask(s, Tensor(0.3), KEEP_BELOW, tau=0.05).data
        above = band_mask(s, Tensor(0.3), KEEP_ABOVE, tau=0.05).data
        assert np.all(np.diff(below) <= 0) and np.all(np.diff(above) >= 0)
        assert np.all((below >= 0) & (below <= 1))
        assert np.all((above >= 0) & (above <= 1))

    def test_threshold_above_nyquist_passes_everything(self):
        s = rfft(Tensor(np.ones(8)))
        m = band_mask(s, Tensor(0.75), KEEP_BELOW, tau=0.01)
        np.testing.assert_allclose(m.data, np.ones(5), atol=1e-8)

    def test_invalid_temperature_rejected(self):
        s = rfft(Tensor(np.ones(8)))
        with pytest.raises(InputError):
            band_mask(s, Tensor(0.25), KEEP_BELOW, tau=0.0)

    def test_unknown_direction_rejected(self):
        s = rfft(Tensor(np.ones(8)))
        with pytest.raises(InputError):
            band_mask(s, Tensor(0.25), "bandpass", tau=0.05)

    def test_apply_mask_scales_bins(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=8)
        s = rfft(Tensor(x))
        m = band_mask(s, Tensor(0.25), KEEP_BELOW, tau=0.05)
        out = apply_mask(s, m)
        np.testing.assert_allclose(out.bins.data, s.bins.data * m.data, atol=1e-12)
        assert out.n_time == 8

    def test_apply_mask_broadcasts_over_feature_axis(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 3))
        s = rfft(Tensor(x))
        m = band_mask(s, Tensor(0.3), KEEP_ABOVE, tau=0.05)
        out = apply_mask(s, m)
        np.testing.assert_allclose(
            out.bins.data, s.bins.data * m.data[:, None], atol=1e-12
        )

    def test_apply_mask_bin_count_mismatch(self):
        s8 = rfft(Tensor(np.ones(8)))
        s16 = rfft(Tensor(np.ones(16)))
        m = band_mask(s16, Tensor(0.25), KEEP_BELOW, tau=0.05)
        with pytest.raises(ShapeError):
            apply_mask(s8, m)

    def test_threshold_receives_gradient(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=8))

        def f(theta):
            s = rfft(x)
            y = irfft(apply_mask(s, band_mask(s, theta, KEEP_BELOW, tau=0.05)))
            return tsum(mul(y, y))

        assert finite_diff_check(f, Tensor(0.22)) < 1e-4

    def test_mask_filters_high_frequency_energy(self):
        t = np.arange(32)
        x = np.sin(2 * np.pi * 2 * t / 32) + np.sin(2 * np.pi * 12 * t / 32)
        with Tape():
            s = rfft(Tensor(x))
            y = irfft(apply_mask(s, band_mask(s, Tensor(0.2), KEEP_BELOW, tau=1e-3)))
        kept = np.fft.rfft(y.data)
        assert np.abs(kept[2]) > 15.0
        assert np.abs(kept[12]) < 1e-6


class TestCircularConvolve:
    def test_impulse_is_identity(self):
        x = np.array([3.0, -1.0, 2.0, 0.5])
        h = np.array([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(circular_convolve(x, h), x, atol=1e-12)

    def test_shifted_impulse_rotates(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        h = np.array([0.0, 1.0, 0.0, 0.0])
        np.testing.assert_allclose(circular_convolve(x, h), [4.0, 1.0, 2.0, 3.0], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
    def test_matches_double_loop(self, n):
        rng = np.random.default_rng(n)
        x, h = rng.normal(size=n), rng.normal(size=n)
        expected = np.zeros(n)
        for i in range(n):
            for j in range(n):
                expected[i] += x[j] * h[(i - j) % n]
        np.testing.assert_allclose(circular_convolve(x, h), expected, atol=1e-10)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            circular_convolve(np.ones(4), np.ones(5))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 32])
    def test_convolution_theorem(self, n):
        rng = np.random.default_rng(500 + n)
        x, h = rng.normal(size=n), rng.normal(size=n)
        with Tape():
            sx = rfft(Tensor(x))
            sh = rfft(Tensor(h))
            y = irfft(Spectrum(mul(sx.bins, sh.bins), n_time=n))
        np.testing.assert_allclose(y.data, circular_convolve(x, h), atol=1e-8)


class TestSpectralBackwardAccumulation:
    def test_reused_spectrum_accumulates(self):
        rng = np.random.default_rng(12)
        x0 = rng.normal(size=8)
        with Tape() as tape:
            x = parameter(x0.copy())
            s = rfft(x)
            y1 = irfft(s)
            y2 = irfft(s)
            loss = tsum(mul(y1, y2))
        grads = backward(tape, loss)
        # d/dx sum(x * x) = 2x since both branches reproduce x
        np.testing.assert_allclose(grads[x], 2.0 * x0, atol=1e-9)
