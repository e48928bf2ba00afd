"""Adaptive filtering block: learnable masks, spectral MLP filters, branch sum."""

import dataclasses

import numpy as np
import pytest

from faim.afb import (
    afb_forward,
    init_afb_params,
    init_psi_filter,
    psi_apply,
)
from faim.errors import ShapeError
from faim.gradcheck import finite_diff_check
from faim.rng import CounterRng
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
from faim.tensor import Tape, Tensor, mul, tsum


def np_sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def psi_values_np(psi, bins):
    """Plain-numpy replica of the two-layer spectral filter."""
    d = bins.shape[-1]
    re_im = np.concatenate([bins.real, bins.imag], axis=-1)
    h = np.maximum(re_im @ psi.w1.data + psi.b1.data, 0.0)
    o = h @ psi.w2.data + psi.b2.data
    return o[..., :d] + 1j * o[..., d:]


def make_identity_psi(psi):
    """Force the filter to emit 1 + 0j for every bin regardless of input."""
    d = psi.w2.data.shape[1] // 2
    psi.w2.data[:] = 0.0
    psi.b2.data[:] = 0.0
    psi.b2.data[:d] = 1.0


def make_zero_psi(psi):
    psi.w2.data[:] = 0.0
    psi.b2.data[:] = 0.0


def branch_spectra(x, params):
    """The spectrum, both band masks and the three branch spectra of one
    filtering pass, built from the spectral primitives."""
    s = rfft(Tensor(x))
    mask_high = band_mask(s, params.theta_high, KEEP_BELOW, params.tau)
    mask_low = band_mask(s, params.theta_low, KEEP_ABOVE, params.tau)
    return dict(
        spectrum=s,
        mask_high=mask_high,
        mask_low=mask_low,
        branch_global=psi_apply(params.psi_global, s),
        branch_high=psi_apply(params.psi_high, apply_mask(s, mask_high)),
        branch_low=psi_apply(params.psi_low, apply_mask(s, mask_low)),
    )


class TestPsiFilter:
    def test_values_match_numpy_replica(self):
        rng = CounterRng(17)
        psi = init_psi_filter(3, rng)
        data = np.random.default_rng(0).normal(size=(5, 3)) \
            + 1j * np.random.default_rng(1).normal(size=(5, 3))
        with Tape():
            out = psi_apply(psi, Spectrum(Tensor(data), n_time=8))
        np.testing.assert_allclose(out.bins.data, psi_values_np(psi, data) * data, atol=1e-12)

    def test_zero_filter_annihilates(self):
        psi = init_psi_filter(2, CounterRng(3))
        make_zero_psi(psi)
        with Tape():
            s = rfft(Tensor(np.random.default_rng(2).normal(size=(8, 2))))
            out = psi_apply(psi, s)
        np.testing.assert_allclose(out.bins.data, 0.0, atol=1e-15)

    def test_identity_filter_passes_spectrum_through(self):
        psi = init_psi_filter(2, CounterRng(4))
        make_identity_psi(psi)
        x = np.random.default_rng(3).normal(size=(8, 2))
        with Tape():
            s = rfft(Tensor(x))
            out = psi_apply(psi, s)
        np.testing.assert_allclose(out.bins.data, s.bins.data, atol=1e-12)

    def test_apply_multiplies_bins_elementwise(self):
        psi = init_psi_filter(2, CounterRng(5))
        x = np.random.default_rng(4).normal(size=(8, 2))
        with Tape():
            s = rfft(Tensor(x))
            out = psi_apply(psi, s)
        v = psi_values_np(psi, s.bins.data)
        np.testing.assert_allclose(out.bins.data, v * s.bins.data, atol=1e-12)

    def test_width_mismatch_rejected(self):
        psi = init_psi_filter(3, CounterRng(7))
        with pytest.raises(ShapeError):
            with Tape():
                psi_apply(psi, rfft(Tensor(np.ones((8, 2)))))

    def test_filtering_is_circular_convolution(self):
        # whatever the filter computes for a given input, applying it in the
        # frequency domain must equal a circular convolution in time
        psi = init_psi_filter(1, CounterRng(8))
        x = np.random.default_rng(6).normal(size=(16, 1))
        with Tape():
            s = rfft(Tensor(x))
            y = irfft(psi_apply(psi, s))
            g = irfft(Spectrum(Tensor(psi_values_np(psi, s.bins.data)), n_time=16))
        expected = circular_convolve(x[:, 0], g.data[:, 0])
        np.testing.assert_allclose(y.data[:, 0], expected, atol=1e-8)


class TestAfbForward:
    def _params(self, dim, seed=0, **kw):
        return init_afb_params(dim, CounterRng(seed), **kw)

    def test_output_shape_and_dtype(self):
        params = self._params(4)
        x = np.random.default_rng(0).normal(size=(8, 4))
        with Tape():
            out, _ = afb_forward(Tensor(x), params)
            spectrum = rfft(Tensor(x))
        assert out.shape == (8, 4)
        assert not out.is_complex
        assert spectrum.bins.shape == (5, 4)

    def test_batched_matches_per_sample(self):
        params = self._params(3, seed=1)
        batch = np.random.default_rng(1).normal(size=(4, 8, 3))
        with Tape():
            out_b, _ = afb_forward(Tensor(batch), params)
        for i in range(4):
            with Tape():
                out_i, _ = afb_forward(Tensor(batch[i]), params)
            np.testing.assert_allclose(out_b.data[i], out_i.data, atol=1e-10)

    def test_identity_global_with_zeroed_locals_is_identity(self):
        params = self._params(3, seed=2)
        make_identity_psi(params.psi_global)
        make_zero_psi(params.psi_high)
        make_zero_psi(params.psi_low)
        x = np.random.default_rng(2).normal(size=(8, 3))
        with Tape():
            out, _ = afb_forward(Tensor(x), params)
        np.testing.assert_allclose(out.data, x, atol=1e-10)

    def test_identity_filters_with_complementary_masks_double_input(self):
        # equal thresholds make keep-below + keep-above gates sum to one at
        # every bin, so three identity filters integrate to twice the spectrum
        params = self._params(3, seed=2, theta_high=0.25, theta_low=0.25, tau=0.05)
        for psi in (params.psi_global, params.psi_high, params.psi_low):
            make_identity_psi(psi)
        x = np.random.default_rng(2).normal(size=(8, 3))
        with Tape():
            out, _ = afb_forward(Tensor(x), params)
        np.testing.assert_allclose(out.data, 2.0 * x, atol=1e-9)

    def test_low_frequency_sinusoid_survives_high_branch(self):
        # bin f = 1/16 sits below theta_high, so the keep-below gate passes it
        t = np.arange(16)
        x = np.sin(2 * np.pi * t / 16)[:, None]
        params = self._params(1, seed=3, theta_high=0.2, theta_low=0.05, tau=1e-3)
        make_zero_psi(params.psi_global)
        make_identity_psi(params.psi_high)
        with Tape():
            out, _ = afb_forward(Tensor(x), params, use_low=False)
            mask_high = branch_spectra(x, params)["mask_high"]
        np.testing.assert_allclose(mask_high.data[1], 1.0, atol=1e-8)
        np.testing.assert_allclose(out.data, x, atol=1e-6)

    def test_cleared_masks_reduce_to_global_branch(self):
        # keep-below with negative threshold and keep-above past the frequency
        # range drive both local gates to zero, leaving the global branch alone
        params = self._params(3, seed=3, theta_high=-0.25, theta_low=0.75, tau=1e-3)
        x = np.random.default_rng(3).normal(size=(8, 3))
        with Tape():
            full, _ = afb_forward(Tensor(x), params)
        with Tape():
            only_global, _ = afb_forward(Tensor(x), params, use_high=False, use_low=False)
        np.testing.assert_allclose(full.data, only_global.data, atol=1e-8)

    def test_all_pass_masks_with_tied_weights_equalize_branches(self):
        # thresholds strictly clear of [0, 0.5] make every gate exactly one in
        # float arithmetic, so tied filters yield three identical branches
        params = self._params(2, seed=4, theta_high=0.55, theta_low=-0.1, tau=1e-3)
        params = dataclasses.replace(
            params,
            psi_high=params.psi_global,
            psi_low=params.psi_global,
        )
        x = np.random.default_rng(4).normal(size=(8, 2))
        with Tape():
            out, _ = afb_forward(Tensor(x), params)
            parts = branch_spectra(x, params)
        with Tape():
            only_global, _ = afb_forward(Tensor(x), params, use_high=False, use_low=False)
        np.testing.assert_allclose(
            parts["branch_high"].bins.data, parts["branch_global"].bins.data, atol=1e-12
        )
        np.testing.assert_allclose(
            parts["branch_low"].bins.data, parts["branch_global"].bins.data, atol=1e-12
        )
        np.testing.assert_allclose(out.data, 3.0 * only_global.data, atol=1e-9)

    def test_zero_global_with_disabled_locals_gives_zero(self):
        params = self._params(2, seed=4)
        make_zero_psi(params.psi_global)
        x = np.random.default_rng(4).normal(size=(8, 2))
        with Tape():
            out, _ = afb_forward(Tensor(x), params, use_high=False, use_low=False)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_full_pipeline_matches_numpy_replica(self):
        dim, z = 4, 8
        params = self._params(dim, seed=5, theta_high=0.4, theta_low=0.1, tau=0.05)
        x = np.random.default_rng(5).normal(size=(z, dim))
        with Tape():
            out, _ = afb_forward(Tensor(x), params)
            parts = branch_spectra(x, params)

        s = np.fft.rfft(x, axis=0)
        f = np.arange(z // 2 + 1) / z
        m_hi = np_sigmoid((0.4 - f) / 0.05)[:, None]
        m_lo = np_sigmoid((f - 0.1) / 0.05)[:, None]
        s_hi, s_lo = s * m_hi, s * m_lo
        integrated = (
            psi_values_np(params.psi_global, s) * s
            + psi_values_np(params.psi_high, s_hi) * s_hi
            + psi_values_np(params.psi_low, s_lo) * s_lo
        )
        expected = np.fft.irfft(integrated, n=z, axis=0)
        np.testing.assert_allclose(out.data, expected, atol=1e-8)
        np.testing.assert_allclose(parts["mask_high"].data, m_hi[:, 0], atol=1e-12)
        np.testing.assert_allclose(parts["mask_low"].data, m_lo[:, 0], atol=1e-12)

    def test_branch_toggles_drop_terms(self):
        params = self._params(3, seed=6)
        x = np.random.default_rng(6).normal(size=(8, 3))
        with Tape():
            parts = branch_spectra(x, params)
        with Tape():
            out_no_hf, _ = afb_forward(Tensor(x), params, use_high=False)
        expected = parts["branch_global"].bins.data + parts["branch_low"].bins.data
        np.testing.assert_allclose(
            out_no_hf.data, np.fft.irfft(expected, n=8, axis=0), atol=1e-8
        )

    def test_second_return_value_is_none(self):
        params = self._params(2, seed=7)
        x = np.random.default_rng(7).normal(size=(8, 2))
        _, second = afb_forward(Tensor(x), params)
        assert second is None
        with Tape():
            _, second = afb_forward(Tensor(x), params)
        assert second is None

    @pytest.mark.parametrize("dropped", ["use_high", "use_low"])
    def test_dropped_branch_records_no_node_reading_its_threshold(self, dropped):
        params = self._params(2, seed=8)
        unused = params.theta_high if dropped == "use_high" else params.theta_low
        used = params.theta_low if dropped == "use_high" else params.theta_high
        x = np.random.default_rng(8).normal(size=(8, 2))
        with Tape() as tape:
            afb_forward(Tensor(x), params, **{dropped: False})
        readers = [n for n in tape.nodes if any(t is unused for t in n.inputs)]
        assert readers == []
        assert any(t is used for n in tape.nodes for t in n.inputs)


class TestAfbGradients:
    def test_gradient_wrt_tokens(self):
        params = init_afb_params(3, CounterRng(10), tau=0.05)

        def f(x):
            out, _ = afb_forward(x, params)
            return tsum(mul(out, out))

        x0 = Tensor(np.random.default_rng(10).normal(size=(8, 3)))
        assert finite_diff_check(f, x0) < 1e-4

    @pytest.mark.parametrize("field", ["theta_high", "theta_low"])
    def test_gradient_wrt_thresholds(self, field):
        base = init_afb_params(3, CounterRng(11), theta_high=0.3, theta_low=0.12, tau=0.05)
        x = Tensor(np.random.default_rng(11).normal(size=(8, 3)))

        def f(theta):
            params = dataclasses.replace(base, **{field: theta})
            out, _ = afb_forward(x, params)
            return tsum(mul(out, out))

        theta0 = Tensor(getattr(base, field).data.copy())
        assert finite_diff_check(f, theta0) < 1e-4

    def test_gradient_wrt_filter_weights(self):
        base = init_afb_params(2, CounterRng(12), tau=0.05)
        x = Tensor(np.random.default_rng(12).normal(size=(8, 2)))

        def f(w1):
            psi = dataclasses.replace(base.psi_global, w1=w1)
            params = dataclasses.replace(base, psi_global=psi)
            out, _ = afb_forward(x, params)
            return tsum(mul(out, out))

        assert finite_diff_check(f, Tensor(base.psi_global.w1.data.copy())) < 1e-4
