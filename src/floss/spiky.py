"""Removal of the 8 Hz spike train and its harmonics from EEG.

A 4th-order Butterworth lowpass (30 Hz) cascades with one second-order
notch per contaminated frequency (8, 16, 24 Hz).  The Butterworth is
designed from its analog poles through the bilinear transform with
frequency pre-warping; each notch places unit-circle zeros at the center
frequency over poles at radius 1 - bw/2.  Application is forward-backward,
so the pass is zero-phase and the magnitude response applies twice.
"""
from __future__ import annotations

import os
import sys
import threading
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

#: the ``lfilter(b, a, x, axis, zi)`` recursion, resolved on first use
_lfilter = None
_lfilter_lock = threading.Lock()


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


def _compiled_lfilter():
    """scipy's compiled ``_sigtools._linear_filter``, or None if it is missing.

    ``scipy.signal.lfilter`` with more than one ``a`` coefficient is exactly
    this call.  The extension is loaded by its file path, which does not run
    ``scipy/signal/__init__.py`` and its import of about a second.  A module
    the import system already holds is reused; one loaded here is not left
    in ``sys.modules``, so a later ``import scipy.signal`` binds its own.
    """
    import importlib.machinery
    import importlib.util

    name = "scipy.signal._sigtools"
    module = sys.modules.get(name)
    if module is None:
        scipy_spec = importlib.util.find_spec("scipy")
        if scipy_spec is None or not scipy_spec.submodule_search_locations:
            return None
        signal_dir = os.path.join(scipy_spec.submodule_search_locations[0], "signal")
        loader = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
        spec = importlib.machinery.FileFinder(signal_dir, loader).find_spec(name)
        if spec is None:
            return None
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:
            return None
        finally:
            sys.modules.pop(name, None)
    return getattr(module, "_linear_filter", None)


def _get_lfilter():
    """The recursion every pass uses: the compiled kernel, else the public
    ``scipy.signal.lfilter``.  It is resolved once per process, under a lock,
    as two pool threads may filter their first channels at once."""
    global _lfilter
    with _lfilter_lock:
        if _lfilter is None:
            _lfilter = _compiled_lfilter()
        if _lfilter is None:
            from scipy.signal import lfilter

            _lfilter = lfilter
        return _lfilter


def steady_state(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``scipy.signal.lfilter_zi`` for equal-length ``b`` and ``a``, in numpy.

    The state a unit step holds once it has settled: the solution of
    ``zi = A zi + B`` with ``A`` the transposed companion matrix of ``a``, by
    the same ``solve`` on the same matrix, so the bits are scipy's.
    """
    b, a = b / a[0], a / a[0]
    n = len(a) - 1
    companion = np.eye(n, n, k=-1)
    companion[0] = -a[1:]
    return np.linalg.solve(np.eye(n) - companion.T, b[1:] - a[1:] * b[0])


def apply_zero_phase(cascade: FilterCascade, x: np.ndarray, calibration=None) -> np.ndarray:
    """Filter forward and backward with odd-reflection edge padding.

    The output has zero sample lag and the squared magnitude response of
    the cascade.  Its bits are those of ``lfilter`` run forward over the
    padded signal and backward over that output, each from the steady
    state of its first sample, then cut to ``x``'s span.  Both passes go
    _CHUNK samples at a time, carrying the filter state, through one
    buffer that the backward pass overwrites from its end: neither the
    padded signal nor a second full-length output is ever built.

    With a ``calibration`` (``signal_io.Calibration``), x holds digital
    samples, and each chunk is mapped to physical ones as it is read, so
    no physical copy of x is built either.
    """
    if calibration is None:
        x = np.asarray(x, dtype=np.float64)
        physical = np.asarray
    else:
        x = np.asarray(x)
        physical = calibration.to_physical
    pad = 3 * max(len(cascade.a), len(cascade.b))
    if x.ndim != 1 or len(x) <= pad:
        raise SignalTooShort(f"need more than {pad} samples, got {x.shape}")
    b, a = cascade.b, cascade.a
    # scipy's compiled recursion without importing scipy.signal, which takes
    # about a second and brings in scipy.stats and scipy.interpolate
    lfilter = _get_lfilter()
    zi = steady_state(b, a)

    head = 2.0 * physical(x[:1]) - physical(x[pad:0:-1])
    _, z = lfilter(b, a, head, -1, zi * head[0])
    y = np.empty(len(x))
    for start in range(0, len(x), _CHUNK):
        y[start : start + _CHUNK], z = lfilter(b, a, physical(x[start : start + _CHUNK]), -1, z)
    tail, _ = lfilter(b, a, 2.0 * physical(x[-1:]) - physical(x[-2 : -pad - 2 : -1]), -1, z)

    # backward: the padding first, then y's chunks from the end, each
    # filtered and written back reversed over itself
    _, z = lfilter(b, a, tail[::-1], -1, zi * tail[-1])
    for stop in range(len(x), 0, -_CHUNK):
        chunk = y[max(stop - _CHUNK, 0) : stop]
        chunk[::-1], z = lfilter(b, a, chunk[::-1], -1, z)
    return y
