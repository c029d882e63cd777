"""Removal of the 8 Hz spike train and its harmonics from EEG.

A 4th-order Butterworth lowpass (30 Hz) cascades with one second-order
notch per contaminated frequency (8, 16, 24 Hz).  The Butterworth is
designed from its analog poles through the bilinear transform with
frequency pre-warping; each notch places unit-circle zeros at the center
frequency over poles at radius 1 - bw/2.  Application is forward-backward,
so the pass is zero-phase and the magnitude response applies twice.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrequencyAboveNyquist, SignalTooShort

#: keep the normalized DC gain just under unity so rounding never lands above 1
DC_GAIN_MARGIN = 1e-9
#: the Butterworth lowpass: its -3 dB frequency and its order
CUTOFF_HZ = 30.0
ORDER = 4
#: the Zmax spike train and its harmonics, each notched over NOTCH_BANDWIDTH_HZ
NOTCH_CENTERS_HZ = (8.0, 16.0, 24.0)
NOTCH_BANDWIDTH_HZ = 2.0
#: samples ``apply_zero_phase`` filters per ``lfilter`` call
_CHUNK = 1 << 16


@dataclass(frozen=True)
class FilterCascade:
    b: np.ndarray
    a: np.ndarray
    fs: float


def _check_below_nyquist(freq: float, fs: float, what: str) -> None:
    if not 0 < freq < fs / 2:
        raise FrequencyAboveNyquist(f"{what} {freq} Hz outside (0, {fs / 2}) Hz")


def design_butterworth(fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Digital lowpass via analog poles and the pre-warped bilinear map."""
    _check_below_nyquist(CUTOFF_HZ, fs, "cutoff")
    n = ORDER
    wc = 2.0 * fs * np.tan(np.pi * CUTOFF_HZ / fs)
    k = np.arange(1, n + 1)
    poles_s = wc * np.exp(1j * (2 * k + n - 1) * np.pi / (2 * n))
    poles_z = (2 * fs + poles_s) / (2 * fs - poles_s)

    a = np.poly(poles_z).real
    b = np.poly(-np.ones(n)).real
    b = b * (a.sum() / b.sum())  # unit gain at DC
    return b, a


def design_notch(fs: float, center_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """Second-order notch: zeros on the unit circle, poles at radius 1 - bw/2."""
    _check_below_nyquist(center_hz, fs, "notch center")
    theta = 2.0 * np.pi * center_hz / fs
    bw = NOTCH_BANDWIDTH_HZ / (fs / 2.0)
    r = 1.0 - bw / 2.0
    b = np.array([1.0, -2.0 * np.cos(theta), 1.0])
    a = np.array([1.0, -2.0 * r * np.cos(theta), r * r])
    return b, a


def design_cascade(fs: float) -> FilterCascade:
    """Butterworth and notch stages combined by polynomial convolution."""
    b, a = design_butterworth(fs)
    for center in NOTCH_CENTERS_HZ:
        nb, na = design_notch(fs, center)
        b = np.convolve(b, nb)
        a = np.convolve(a, na)
    b = b * (a.sum() / b.sum()) * (1.0 - DC_GAIN_MARGIN)
    return FilterCascade(b=b, a=a, fs=fs)


def freq_response(cascade: FilterCascade, freqs_hz: np.ndarray) -> np.ndarray:
    """Complex single-pass response H(e^jw) at the requested frequencies."""
    w = 2.0 * np.pi * np.asarray(freqs_hz, dtype=np.float64) / cascade.fs
    zb = np.exp(-1j * np.outer(w, np.arange(len(cascade.b))))
    za = np.exp(-1j * np.outer(w, np.arange(len(cascade.a))))
    return (zb @ cascade.b) / (za @ cascade.a)


def apply_zero_phase(cascade: FilterCascade, x: np.ndarray) -> np.ndarray:
    """Filter forward and backward with odd-reflection edge padding.

    The output has zero sample lag and the squared magnitude response of
    the cascade.  Its bits are those of ``lfilter`` run forward over the
    padded signal and backward over that output, each from the steady
    state of its first sample, then cut to ``x``'s span.  Both passes go
    _CHUNK samples at a time, carrying the filter state, through one
    buffer that the backward pass overwrites from its end: neither the
    padded signal nor a second full-length output is ever built.
    """
    # imported here: scipy.signal takes about a second to import, and most
    # floss commands never filter
    from scipy.signal import lfilter, lfilter_zi

    x = np.asarray(x, dtype=np.float64)
    pad = 3 * max(len(cascade.a), len(cascade.b))
    if x.ndim != 1 or len(x) <= pad:
        raise SignalTooShort(f"need more than {pad} samples, got {x.shape}")
    b, a = cascade.b, cascade.a
    zi = lfilter_zi(b, a)

    head = 2.0 * x[0] - x[pad:0:-1]
    _, z = lfilter(b, a, head, zi=zi * head[0])
    y = np.empty_like(x)
    for start in range(0, len(x), _CHUNK):
        y[start : start + _CHUNK], z = lfilter(b, a, x[start : start + _CHUNK], zi=z)
    tail, _ = lfilter(b, a, 2.0 * x[-1] - x[-2 : -pad - 2 : -1], zi=z)

    # backward: the padding first, then y's chunks from the end, each
    # filtered and written back reversed over itself
    _, z = lfilter(b, a, tail[::-1], zi=zi * tail[-1])
    for stop in range(len(x), 0, -_CHUNK):
        chunk = y[max(stop - _CHUNK, 0) : stop]
        chunk[::-1], z = lfilter(b, a, chunk[::-1], zi=z)
    return y
