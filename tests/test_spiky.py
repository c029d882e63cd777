"""Spike-removal filter: response contract, stability, and a kernel oracle."""
from __future__ import annotations

import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from floss import spiky
from floss.errors import FrequencyAboveNyquist, SignalTooShort
from floss.spiky import (
    NOTCH_CENTERS_HZ,
    FilterCascade,
    apply_zero_phase,
    design_butterworth,
    design_cascade,
    design_notch,
    freq_response,
    steady_state,
)

FS = 256.0


def _hand_lfilter(b, a, x):
    """Direct-form difference equation, written independently of scipy."""
    b = np.asarray(b, dtype=np.float64) / a[0]
    a = np.asarray(a, dtype=np.float64) / a[0]
    y = np.zeros_like(x)
    for n in range(len(x)):
        acc = 0.0
        for i in range(len(b)):
            if n - i >= 0:
                acc += b[i] * x[n - i]
        for j in range(1, len(a)):
            if n - j >= 0:
                acc -= a[j] * y[n - j]
        y[n] = acc
    return y


class TestDesign:
    def test_butterworth_shapes_and_dc(self):
        b, a = design_butterworth(FS)
        assert len(b) == len(a) == 5
        assert b.sum() / a.sum() == pytest.approx(1.0, rel=1e-12)

    def test_butterworth_halfpower_at_cutoff(self):
        b, a = design_butterworth(FS)
        h30 = abs(freq_response(FilterCascade(b=b, a=a, fs=FS), np.array([30.0]))[0])
        assert h30 == pytest.approx(1 / np.sqrt(2), rel=1e-6)

    def test_notch_roots(self):
        b, a = design_notch(FS, 8.0)
        zeros = np.roots(b)
        poles = np.roots(a)
        theta = 2 * np.pi * 8.0 / FS
        np.testing.assert_allclose(np.abs(zeros), 1.0, rtol=1e-12)
        np.testing.assert_allclose(
            sorted(np.angle(zeros)), [-theta, theta], rtol=1e-9
        )
        r = 1.0 - (2.0 / (FS / 2.0)) / 2.0
        np.testing.assert_allclose(np.abs(poles), r, rtol=1e-12)

    def test_cascade_length_and_centers(self):
        cascade = design_cascade(FS)
        assert len(cascade.b) == len(cascade.a) == 5 + 3 * 2
        assert NOTCH_CENTERS_HZ == (8.0, 16.0, 24.0)

    def test_cascade_is_stable(self):
        assert np.all(np.abs(np.roots(design_cascade(FS).a)) < 1.0)

    def test_cascade_coefficients_are_pinned(self):
        # bit for bit, so a refactor of the design cannot drift unnoticed
        cascade = design_cascade(256.0)
        assert [v.hex() for v in cascade.b] == [
            "0x1.0830da852edb8p-7", "-0x1.84f5be5d73bcep-7", "-0x1.8306238eab0fbp-6",
            "0x1.8e5a3a55116e5p-5", "0x1.fff0e8804ec5ep-7", "-0x1.2c976bc3aa9f3p-4",
            "0x1.fff0e8804ec62p-7", "0x1.8e5a3a55116e6p-5", "-0x1.8306238eab0fbp-6",
            "-0x1.84f5be5d73bcdp-7", "0x1.0830da852edb8p-7",
        ]
        assert [v.hex() for v in cascade.a] == [
            "0x1.0000000000000p+0", "-0x1.e177fb524942ep+2", "0x1.a06fbf2069966p+4",
            "-0x1.b37c64993012bp+5", "0x1.30793715138d4p+6", "-0x1.291cbb13ea8adp+6",
            "0x1.99703b1ac46b3p+5", "-0x1.890a56b4b57f3p+4", "0x1.f689ce3ba095fp+2",
            "-0x1.81f799f8c2587p+0", "0x1.0e8517d4cb8a9p-3",
        ]

    def test_rates_other_than_default_work(self):
        cascade = design_cascade(128.0)
        h = np.abs(freq_response(cascade, np.array([8.0, 16.0, 24.0])))
        assert np.all(h < 0.01)

    def test_frequencies_above_nyquist_rejected(self):
        with pytest.raises(FrequencyAboveNyquist):
            design_cascade(40.0)  # 30 Hz cutoff and 24 Hz notch above 20 Hz Nyquist
        with pytest.raises(FrequencyAboveNyquist):
            design_butterworth(50.0)  # 30 Hz cutoff above 25 Hz Nyquist
        with pytest.raises(FrequencyAboveNyquist):
            design_notch(40.0, 24.0)


class TestResponseContract:
    def test_notch_frequencies_suppressed(self):
        cascade = design_cascade(FS)
        h = np.abs(freq_response(cascade, np.array([8.0, 16.0, 24.0])))
        assert np.all(h < 0.01)

    def test_dc_gain_just_below_unity(self):
        cascade = design_cascade(FS)
        h0 = abs(freq_response(cascade, np.array([0.0]))[0])
        assert 0.9 <= h0 <= 1.0

    def test_passband_nearly_flat(self):
        cascade = design_cascade(FS)
        h = np.abs(freq_response(cascade, np.array([0.5, 1.0, 2.0, 4.0])))
        assert np.all(h > 0.95)
        assert np.all(h <= 1.0 + 1e-9)

    def test_freq_response_matches_polyval_oracle(self, rng):
        cascade = design_cascade(FS)
        freqs = rng.uniform(0, FS / 2, size=16)
        got = freq_response(cascade, freqs)
        z = np.exp(1j * 2 * np.pi * freqs / FS)
        want = np.polyval(cascade.b[::-1], 1 / z) / np.polyval(cascade.a[::-1], 1 / z)
        np.testing.assert_allclose(got, want, rtol=1e-8)


class TestApplication:
    def test_kernel_matches_hand_difference_equation(self, rng):
        cascade = design_cascade(FS)
        x = rng.standard_normal(400)
        from scipy.signal import lfilter

        got = lfilter(cascade.b, cascade.a, x)
        want = _hand_lfilter(cascade.b, cascade.a, x)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)

    def test_passband_tone_keeps_amplitude_and_phase(self):
        cascade = design_cascade(FS)
        t = np.arange(int(FS * 10)) / FS
        x = np.sin(2 * np.pi * 2.0 * t)
        y = apply_zero_phase(cascade, x)
        core = slice(256, len(x) - 256)
        attenuation = 1.0 - np.abs(y[core]).max() / np.abs(x[core]).max()
        assert attenuation < 0.02
        # zero lag: cross-correlation peaks at zero shift
        xc = np.correlate(y[core], x[core], "full")
        assert np.argmax(xc) == len(x[core]) - 1

    def test_contaminant_reduced_40_db(self):
        cascade = design_cascade(FS)
        t = np.arange(int(FS * 10)) / FS
        spikes = (
            np.sin(2 * np.pi * 8.0 * t)
            + 0.5 * np.sin(2 * np.pi * 16.0 * t)
            + 0.3 * np.sin(2 * np.pi * 24.0 * t)
        )
        y = apply_zero_phase(cascade, spikes)
        core = slice(256, len(t) - 256)
        reduction_db = 20 * np.log10(
            np.sqrt(np.mean(spikes[core] ** 2)) / np.sqrt(np.mean(y[core] ** 2))
        )
        assert reduction_db >= 40.0

    def test_spiky_epoch_becomes_quiet(self):
        from floss.epoching import ArtifactClass
        from floss.synth import gen_artifact_epoch

        x, _ = gen_artifact_epoch(ArtifactClass.SPIKY, FS, 10.0, 0, key=(0,))
        cascade = design_cascade(FS)
        y = apply_zero_phase(cascade, x)
        assert np.sqrt(np.mean(y**2)) < 0.2 * np.sqrt(np.mean(x**2))

    def test_constant_input_passes_through(self):
        cascade = design_cascade(FS)
        x = np.full(1000, 7.5)
        y = apply_zero_phase(cascade, x)
        np.testing.assert_allclose(y, x, rtol=1e-6)

    def test_output_length_matches_input(self, rng):
        cascade = design_cascade(FS)
        x = rng.standard_normal(500)
        assert apply_zero_phase(cascade, x).shape == x.shape

    def test_too_short_input_raises(self):
        cascade = design_cascade(FS)
        with pytest.raises(SignalTooShort):
            apply_zero_phase(cascade, np.zeros(20))


def _two_pass_filter(cascade, x):
    """The zero-phase filter as two whole-signal lfilter passes over a padded copy."""
    from scipy.signal import lfilter, lfilter_zi

    pad = 3 * max(len(cascade.a), len(cascade.b))
    head = 2.0 * x[0] - x[pad:0:-1]
    tail = 2.0 * x[-1] - x[-2 : -pad - 2 : -1]
    ext = np.concatenate([head, x, tail])
    zi = lfilter_zi(cascade.b, cascade.a)
    y, _ = lfilter(cascade.b, cascade.a, ext, zi=zi * ext[0])
    y = y[::-1]
    y, _ = lfilter(cascade.b, cascade.a, y, zi=zi * y[0])
    return y[::-1][pad:-pad]


class TestChunkedFilter:
    """apply_zero_phase filters in chunks with the bits of two whole passes,
    through scipy's compiled kernel where it is found."""

    forced_fallback = False

    @pytest.fixture(autouse=True)
    def _recursion(self, monkeypatch):
        """The recursion, resolved afresh for each test."""
        from scipy.signal import lfilter

        if self.forced_fallback:
            monkeypatch.setattr(spiky, "_compiled_lfilter", lambda: None)
        monkeypatch.setattr(spiky, "_lfilter", None)
        fallback = self.forced_fallback or spiky._compiled_lfilter() is None
        assert (spiky._get_lfilter() is lfilter) == fallback

    # the fixture only patches the module, and the subclass reruns the
    # method with the fallback
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[
            HealthCheck.function_scoped_fixture, HealthCheck.differing_executors
        ],
    )
    @given(
        x=arrays(
            np.float64, st.integers(34, 300), elements=st.floats(-1e4, 1e4, allow_nan=False)
        ),
        chunk=st.integers(1, 80),
    )
    def test_equals_two_whole_passes_at_any_chunk_size(self, x, chunk):
        cascade = design_cascade(FS)
        with mock.patch.object(spiky, "_CHUNK", chunk):
            got = apply_zero_phase(cascade, x)
        np.testing.assert_array_equal(got, _two_pass_filter(cascade, x))

    @pytest.mark.parametrize("extra", [-1, 0, 1, spiky._CHUNK + 3])
    def test_equals_two_whole_passes_across_the_chunk_edge(self, rng, extra):
        cascade = design_cascade(FS)
        x = rng.standard_normal(spiky._CHUNK + extra) * 40.0
        np.testing.assert_array_equal(apply_zero_phase(cascade, x), _two_pass_filter(cascade, x))


class TestChunkedFilterFallback(TestChunkedFilter):
    """The same bits through ``scipy.signal.lfilter``, which a scipy without
    the compiled kernel gets."""

    forced_fallback = True


class TestRecursion:
    @pytest.mark.parametrize("fs", [128.0, 200.0, 256.0, 512.0])
    def test_steady_state_has_the_bits_of_lfilter_zi(self, fs):
        from scipy.signal import lfilter_zi

        cascade = design_cascade(fs)
        got = steady_state(cascade.b, cascade.a)
        assert got.tobytes() == lfilter_zi(cascade.b, cascade.a).tobytes()

    def test_resolved_once_when_threads_race(self, monkeypatch):
        calls = []

        def slow_kernel():
            calls.append(None)
            time.sleep(0.05)
            return object()

        monkeypatch.setattr(spiky, "_lfilter", None)
        monkeypatch.setattr(spiky, "_compiled_lfilter", slow_kernel)
        got = []
        threads = [
            threading.Thread(target=lambda: got.append(spiky._get_lfilter())) for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert len(got) == 4 and all(g is got[0] for g in got)
