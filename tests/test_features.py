"""Feature extraction against independent oracles (naive DFT, scipy.stats)."""
from __future__ import annotations

import numpy as np
import pytest
import scipy.signal
import scipy.stats
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from floss import features
from floss.errors import SegmentTooShort
from floss.features import (
    BANDS,
    N_STAT_FEATURES,
    STAT_FEATURE_NAMES,
    SpectrogramConfig,
    acc_norm,
    band_powers,
    epoch_feature_matrix,
    spectrogram,
    stat_features,
    welch_psd,
)
from floss.features import _median

FS = 256.0


def _hand_tukey(n: int, alpha: float) -> np.ndarray:
    """Raised-cosine taper from its piecewise definition."""
    w = np.ones(n)
    edge = int(np.floor(alpha * (n - 1) / 2))
    for i in range(edge + 1):
        w[i] = 0.5 * (1 + np.cos(np.pi * (2 * i / (alpha * (n - 1)) - 1)))
        w[n - 1 - i] = w[i]
    return w


def test_spectrogram_grid_shape():
    cfg = SpectrogramConfig(fs=FS)
    x = np.zeros(2560)
    spec = spectrogram(x, cfg)
    assert spec.shape == (11, 129)
    assert cfg.frame_count(2560) == 11
    assert cfg.bin_count == 129


def test_spectrogram_matches_naive_dft(rng):
    cfg = SpectrogramConfig(fs=FS)
    x = rng.standard_normal(2560)
    spec = spectrogram(x, cfg)
    window = _hand_tukey(256, 0.25)
    for frame_idx in (0, 5, 10):
        seg = x[frame_idx * 224 : frame_idx * 224 + 256] * window
        for k in (0, 3, 64, 128):
            naive = sum(seg[n] * np.exp(-2j * np.pi * k * n / 256) for n in range(256))
            assert spec[frame_idx, k] == pytest.approx(abs(naive) ** 2, rel=1e-9)


def test_spectrogram_scaling_is_quadratic(rng):
    cfg = SpectrogramConfig(fs=FS)
    x = rng.standard_normal(2560)
    np.testing.assert_allclose(spectrogram(3.0 * x, cfg), 9.0 * spectrogram(x, cfg), rtol=1e-12)


def test_spectrogram_too_short_raises():
    with pytest.raises(SegmentTooShort):
        spectrogram(np.zeros(100), SpectrogramConfig(fs=FS))


def test_spectrogram_row_is_pinned():
    # bit for bit, so a refactor of the taper or the frames cannot drift unnoticed
    x = ((np.arange(256) * 37) % 101 - 50).astype(np.float64)
    (row,) = spectrogram(x, SpectrogramConfig(fs=FS))
    assert [v.hex() for v in row] == [
        "0x1.297bb4a4c30f5p+10", "0x1.de2fb474a8ae5p+10", "0x1.5d9849eebb3bcp+13",
        "0x1.202f94a47dd6dp+13", "0x1.3c34ef9046523p+9", "0x1.5468471ebf2a1p+14",
        "0x1.b9aaa1fa9f45bp+10", "0x1.dea2e7c48ec0dp+14", "0x1.48245b32f36f7p+16",
        "0x1.e6094245270b3p+11", "0x1.4117d0b621ec0p+15", "0x1.ae3561153a494p+10",
        "0x1.19067eeab1ea0p+11", "0x1.7a8cbd5ca2742p+13", "0x1.6645d0fcbace6p+10",
        "0x1.35a8849b9e3aep+14", "0x1.6d8dc8e5fbef1p+14", "0x1.b019efee56094p+15",
        "0x1.2ad2b3c0242a0p+17", "0x1.e328b3e759825p+11", "0x1.32b6d35730dcdp+14",
        "0x1.fae6bf87967d2p+12", "0x1.5ae9ce517765dp+12", "0x1.8e091cc2b6f88p+14",
        "0x1.852c782d1c1bbp+14", "0x1.ebb187c3c3588p+19", "0x1.bf1100caae2ccp+18",
        "0x1.44ab5b12f43fep+16", "0x1.a93e4d42f10fcp+13", "0x1.2f399ff82be0bp+12",
        "0x1.63b8032141b6cp+13", "0x1.7b3f7e125aea2p+11", "0x1.901f0b4ce201dp+9",
        "0x1.1e4202df2e3fdp+16", "0x1.bb41d97e45f3dp+11", "0x1.23cac2d8f0cdcp+15",
        "0x1.3a578a6c1ff5bp+14", "0x1.3a3c8ad636c81p+10", "0x1.1b77396bd3af3p+14",
        "0x1.3b7732ed13161p+9", "0x1.6df55586fc6bep+11", "0x1.0b1c03b086711p+15",
        "0x1.3f5205da6f162p+12", "0x1.f13b7fabc7bf7p+18", "0x1.8c35f3876b1dcp+14",
        "0x1.97add05e32a58p+12", "0x1.b8c8a49cdb1efp+14", "0x1.180f4a8023006p+12",
        "0x1.f0864f30023d5p+14", "0x1.ace5e38e8f67bp+12", "0x1.24d2266d6cb15p+16",
        "0x1.229775e59f78fp+18", "0x1.485a060232b4bp+12", "0x1.ba3c690268706p+14",
        "0x1.0ec011fb73f0fp+10", "0x1.c8786bb60a2a2p+9", "0x1.ae2405428c58fp+13",
        "0x1.117c3f57602c2p+10", "0x1.00264d5d44ebdp+15", "0x1.41af2c1536398p+14",
        "0x1.bcd35bf40f8f7p+13", "0x1.2da5e578bb32ap+16", "0x1.73244e76fa27bp+10",
        "0x1.1dd1ae3d31232p+13", "0x1.2df96afc6b92dp+12", "0x1.1d8f0410eedbap+10",
        "0x1.da620397acd7dp+13", "0x1.a60c8e9ca7f42p+16", "0x1.e9ad95cdc724dp+20",
        "0x1.3788280e57727p+20", "0x1.bf829deed6b29p+16", "0x1.2022bfe537a2bp+16",
        "0x1.2a90348e88f78p+11", "0x1.71820d38ad3b8p+13", "0x1.303b9c4d5962ep+13",
        "0x1.983d3d6ee7783p+12", "0x1.23ce28f1481fdp+17", "0x1.f2a0ca796b949p+13",
        "0x1.f3848402eb57cp+14", "0x1.628658e92e3f6p+13", "0x1.20d21ee3cfd88p+9",
        "0x1.0b2248f1daca9p+14", "0x1.6b9963a10f627p+7", "0x1.0ad9aaa5e3a6dp+12",
        "0x1.5705acb8254a1p+15", "0x1.46ffd3d00d81bp+12", "0x1.c8128d7c50c06p+16",
        "0x1.e5173a71708a7p+13", "0x1.6f9573c45a7c7p+9", "0x1.b2daba80899c6p+14",
        "0x1.94c64b927c106p+15", "0x1.f192a39fc8886p+17", "0x1.93ac2e6c3fdfcp+18",
        "0x1.cb8adc7e1fa14p+20", "0x1.5e445bccb96fbp+23", "0x1.37ec2b10b9ab0p+15",
        "0x1.a52862a43e515p+15", "0x1.49bf87b21df9fp+14", "0x1.fd261dce561cdp+14",
        "0x1.0ee17337186acp+15", "0x1.d3454ef4dd9d8p+13", "0x1.1351064be6ab1p+16",
        "0x1.2be39fe608756p+15", "0x1.4763ae4086c48p+13", "0x1.2d78e11a0102ap+15",
        "0x1.7dbde84ead66ap+9", "0x1.cdcd7f093822ep+12", "0x1.38ed19f89752bp+12",
        "0x1.0d72950cdc23ap+10", "0x1.83dfefe53bb52p+14", "0x1.e6085533f65adp+13",
        "0x1.1ac51c567ed7dp+17", "0x1.e7c1dbe9805cdp+16", "0x1.589e999566fa5p+12",
        "0x1.b6de9738469f9p+14", "0x1.6ccc7d9fad287p+12", "0x1.1806647932effp+14",
        "0x1.1f72f864f32e2p+13", "0x1.e55a40a6cffd4p+10", "0x1.70e1f01531f63p+19",
        "0x1.3db18889512bep+16", "0x1.90bf02a37fbd2p+15", "0x1.efba80c636460p+12",
        "0x1.a41115d8ddb28p+11", "0x1.129ed4544f6e9p+14", "0x1.5362fdd4170a3p+10",
        "0x1.e57c1d9bd0473p+12", "0x1.c15f0e27c073cp+15", "0x1.e68033f3ae8e1p+9",
    ]


def test_welch_matches_hand_periodogram(rng):
    # a one-segment signal reduces Welch to a single modified periodogram
    x = rng.standard_normal(256)
    freqs, psd = welch_psd(x, FS)
    w = np.hanning(257)[:-1]  # periodic hann, as used for spectral analysis
    w = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(256) / 256)
    spec = np.abs(np.fft.rfft(x * w)) ** 2 / (FS * np.sum(w**2))
    spec[1:-1] *= 2.0
    np.testing.assert_allclose(psd, spec, rtol=1e-10)
    np.testing.assert_allclose(freqs, np.arange(129) * FS / 256, rtol=0, atol=1e-12)


def test_welch_matches_scipy_on_a_batch(rng):
    x = rng.standard_normal((7, 2600)) * 20.0 + 3.0
    freqs, psd = welch_psd(x, FS)
    want_freqs, want = scipy.signal.welch(
        x, fs=FS, window="hann", nperseg=256, noverlap=128, detrend=False
    )
    np.testing.assert_array_equal(freqs, want_freqs)
    np.testing.assert_allclose(psd, want, rtol=1e-12)


def test_spectrogram_equals_scipy_tukey_frames_across_blocks(rng):
    # 600 rows span three row blocks; every row must match its own transform
    cfg = SpectrogramConfig(fs=FS)
    x = rng.standard_normal((600, 2560))
    frames = np.lib.stride_tricks.sliding_window_view(x, 256, axis=-1)[:, ::224, :]
    want = np.abs(np.fft.rfft(frames * scipy.signal.windows.tukey(256, 0.25), axis=-1)) ** 2
    np.testing.assert_array_equal(spectrogram(x, cfg), want)


def test_welch_tone_lands_on_its_bin():
    t = np.arange(2560) / FS
    x = np.sin(2 * np.pi * 10.0 * t)
    freqs, psd = welch_psd(x, FS)
    assert freqs[np.argmax(psd)] == pytest.approx(10.0)


def test_welch_parseval_consistency(rng):
    x = rng.standard_normal(25600)
    freqs, psd = welch_psd(x, FS)
    df = freqs[1] - freqs[0]
    assert psd.sum() * df == pytest.approx(x.var(), rel=0.1)


def test_band_powers_pick_their_bins():
    freqs = np.arange(129) * FS / 256  # df = 1 Hz
    psd = np.zeros(129)
    psd[6] = 5.0  # 6 Hz -> theta [4, 8)
    powers = band_powers(freqs, psd)
    names = [name for name, _, _ in BANDS]
    assert powers[names.index("theta")] == pytest.approx(5.0)
    assert powers.sum() == pytest.approx(5.0)
    # 8 Hz sits in alpha, not theta: bands are [low, high)
    psd[:] = 0.0
    psd[8] = 2.0
    powers = band_powers(freqs, psd)
    assert powers[names.index("alpha")] == pytest.approx(2.0)
    assert powers[names.index("theta")] == 0.0


def test_stat_features_against_scipy(rng):
    x = rng.standard_normal(2560) * 3.0 + 0.5
    f = stat_features(x, FS)
    named = dict(zip(STAT_FEATURE_NAMES, f))
    assert named["mean"] == pytest.approx(x.mean())
    assert named["median"] == pytest.approx(np.median(x))
    assert named["std"] == pytest.approx(x.std())
    assert named["variance"] == pytest.approx(x.var())
    assert named["min"] == pytest.approx(x.min())
    assert named["max"] == pytest.approx(x.max())
    assert named["peak_to_peak"] == pytest.approx(np.ptp(x))
    assert named["rms"] == pytest.approx(np.sqrt(np.mean(x**2)))
    assert named["skewness"] == pytest.approx(scipy.stats.skew(x))
    assert named["kurtosis"] == pytest.approx(scipy.stats.kurtosis(x))
    assert named["mean_abs_diff"] == pytest.approx(np.abs(np.diff(x)).mean())
    assert named["hjorth_activity"] == pytest.approx(x.var())
    assert named["hjorth_mobility"] == pytest.approx(
        np.sqrt(np.diff(x).var() / x.var())
    )
    d1, d2 = np.diff(x), np.diff(x, n=2)
    assert named["hjorth_complexity"] == pytest.approx(
        np.sqrt(d2.var() / d1.var()) / np.sqrt(d1.var() / x.var())
    )
    crossings = np.sum(np.signbit(x[1:]) != np.signbit(x[:-1]))
    assert named["zero_crossings"] == crossings


def test_stat_features_of_constant_are_degenerate_zeros():
    f = stat_features(np.full(2560, 4.2), FS)
    named = dict(zip(STAT_FEATURE_NAMES, f))
    assert named["mean"] == pytest.approx(4.2)
    assert named["std"] == 0.0
    assert named["skewness"] == 0.0
    assert named["kurtosis"] == 0.0
    assert named["hjorth_mobility"] == 0.0
    assert named["hjorth_complexity"] == 0.0
    assert named["zero_crossings"] == 0.0


def test_stat_features_of_sine_track_its_frequency():
    t = np.arange(2560) / FS
    x = np.sin(2 * np.pi * 8.0 * t)
    named = dict(zip(STAT_FEATURE_NAMES, stat_features(x, FS)))
    assert named["spectral_centroid"] == pytest.approx(8.0, abs=0.5)
    # discrete differences of a sinusoid: mobility ~ 2 sin(pi f / fs)
    assert named["hjorth_mobility"] == pytest.approx(2 * np.sin(np.pi * 8.0 / FS), rel=1e-3)
    assert named["zero_crossings"] == pytest.approx(2 * 8.0 * 10.0, abs=1)


def test_stat_features_batch_matches_rows(rng):
    batch = rng.standard_normal((4, 2560))
    out = stat_features(batch, FS)
    assert out.shape == (4, N_STAT_FEATURES)
    for i in range(4):
        np.testing.assert_allclose(out[i], stat_features(batch[i], FS), rtol=1e-12)
    one = stat_features(batch[:1], FS)
    assert one.shape == (1, N_STAT_FEATURES)


def test_stat_features_blocks_equal_row_by_row_calls(rng):
    # 600 rows span three row blocks
    batch = rng.standard_normal((600, 2560)) * rng.uniform(0.1, 50.0, (600, 1))
    out = stat_features(batch, FS)
    np.testing.assert_array_equal(out, np.stack([stat_features(row, FS) for row in batch]))
    np.testing.assert_array_equal(
        stat_features(batch.reshape(3, 200, 2560), FS), out.reshape(3, 200, N_STAT_FEATURES)
    )


def _power_moments(x: np.ndarray) -> dict[str, np.ndarray]:
    """Moment-based entries of stat_features from centred powers ``**k``."""
    mean = x.mean(axis=-1)
    centered = x - mean[:, None]
    m2 = np.mean(centered**2, axis=-1)
    m3 = np.mean(centered**3, axis=-1)
    m4 = np.mean(centered**4, axis=-1)
    m2 = np.where(m2 <= np.mean(x**2, axis=-1) * 1e-24, 0.0, m2)
    live = m2 > 0
    safe = np.where(live, m2, 1.0)
    return {
        "mean": mean,
        "variance": m2,
        "std": np.sqrt(m2),
        "rms": np.sqrt(np.mean(x**2, axis=-1)),
        "skewness": np.where(live, m3 / safe**1.5, 0.0),
        "kurtosis": np.where(live, m4 / safe**2 - 3.0, 0.0),
    }


def test_stat_features_moments_match_power_reference(rng):
    batch = rng.standard_normal((300, 2560)) ** 3 * rng.uniform(0.01, 100.0, (300, 1))
    batch += rng.uniform(-500.0, 500.0, (300, 1))
    batch[7] = 3.25  # constant: degenerate zeros
    named = dict(zip(STAT_FEATURE_NAMES, stat_features(batch, FS).T))
    for name, want in _power_moments(batch).items():
        np.testing.assert_allclose(named[name], want, rtol=1e-9, atol=0, err_msg=name)


def test_acc_norm_hand_values():
    np.testing.assert_allclose(
        acc_norm(np.array([3.0, 0.0]), np.array([4.0, 0.0]), np.array([0.0, 2.0])),
        [5.0, 2.0],
    )


def test_feature_matrix_layout_and_widths(rng):
    cfg = SpectrogramConfig(fs=FS)
    eeg = rng.standard_normal((3, 2560))
    acc = np.abs(rng.standard_normal((3, 2560)))

    X, layout = epoch_feature_matrix(eeg, acc, cfg, include_stats=False)
    assert X.shape == (3, 2838)
    assert layout == (("spectrogram_eeg", 1419), ("spectrogram_acc", 1419))

    X_full, layout_full = epoch_feature_matrix(eeg, acc, cfg, include_stats=True)
    assert X_full.shape == (3, 2886)
    assert [name for name, _ in layout_full] == [
        "spectrogram_eeg",
        "spectrogram_acc",
        "stats_eeg",
        "stats_acc",
    ]
    np.testing.assert_allclose(X_full[:, :2838], X, rtol=0, atol=0)


def test_feature_matrix_zero_fills_missing_acc(rng):
    cfg = SpectrogramConfig(fs=FS)
    eeg = rng.standard_normal((2, 2560))
    X, layout = epoch_feature_matrix(eeg, None, cfg, include_stats=False)
    assert X.shape == (2, 2838)
    np.testing.assert_array_equal(X[:, 1419:], 0.0)
    assert np.any(X[:, :1419] != 0.0)


def test_feature_matrix_stacks_channels_over_one_acc(rng):
    cfg = SpectrogramConfig(fs=FS)
    eeg = rng.standard_normal((2, 3, 2560))
    acc = np.abs(rng.standard_normal((3, 2560)))
    X, layout = epoch_feature_matrix(eeg, acc, cfg)
    per_channel = [epoch_feature_matrix(ch, acc, cfg) for ch in eeg]
    np.testing.assert_array_equal(X, np.concatenate([m for m, _ in per_channel]))
    assert layout == per_channel[0][1]


def test_feature_matrix_reads_a_list_of_channels_as_their_stack(rng):
    cfg = SpectrogramConfig(fs=FS)
    eeg = [rng.standard_normal((5, 2560)), rng.standard_normal((5, 2560))]
    acc = np.abs(rng.standard_normal((5, 2560)))
    X, layout = epoch_feature_matrix(eeg, acc, cfg)
    stacked = epoch_feature_matrix(np.stack(eeg), acc, cfg)
    np.testing.assert_array_equal(X, stacked[0])
    assert layout == stacked[1]
    np.testing.assert_array_equal(stat_features(eeg, FS), stat_features(np.stack(eeg), FS))
    np.testing.assert_array_equal(spectrogram(eeg, cfg), spectrogram(np.stack(eeg), cfg))


def test_list_of_unequal_batches_is_refused(rng):
    with pytest.raises(ValueError, match="do not stack"):
        stat_features([rng.standard_normal((3, 2560)), rng.standard_normal((2, 2560))], FS)


def test_thread_count_does_not_change_bits(rng, monkeypatch):
    # 600 rows: blocks of 256 rows on one thread, of 85 on three
    batch = rng.standard_normal((600, 2560)) * rng.uniform(0.1, 50.0, (600, 1))
    acc = np.abs(rng.standard_normal((300, 2560)))
    cfg = SpectrogramConfig(fs=FS)
    results = []
    for cpus in (1, 3):
        monkeypatch.setattr(features, "available_cpus", lambda cpus=cpus: cpus)
        results.append(
            (
                stat_features(batch, FS),
                spectrogram(batch, cfg),
                epoch_feature_matrix([batch[:300], batch[300:]], acc, cfg)[0],
            )
        )
    for one, three in zip(*results):
        np.testing.assert_array_equal(one, three)


def test_block_error_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(features, "available_cpus", lambda: 3)
    with pytest.raises(SegmentTooShort):
        stat_features(np.zeros((4, 100)), FS)


def test_on_pool_thread_tells_the_pool_workers_apart():
    assert not features.on_pool_thread()
    assert features.cpu_pool().submit(features.on_pool_thread).result(timeout=60)


def test_row_blocks_of_a_pool_task_run_on_its_thread(rng, monkeypatch):
    # one worker: a task that waited on the pool for its own blocks would
    # wait for ever, so the timeout fails the test instead of hanging it
    monkeypatch.setattr(features, "available_cpus", lambda: 1)
    batch = rng.standard_normal((600, 2560))
    future = features.cpu_pool().submit(stat_features, batch, FS)
    np.testing.assert_array_equal(future.result(timeout=60), stat_features(batch, FS))


_ZERO_HEAVY = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -1e-300, 1e300])


@settings(max_examples=400, deadline=None)
@given(
    x=st.integers(1, 70).flatmap(
        lambda n: arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.just(n)),
            elements=st.one_of(_ZERO_HEAVY, st.floats(-1e6, 1e6, allow_nan=False)),
        )
    )
)
def test_median_is_numpys_bit_for_bit(x):
    got, want = _median(x), np.median(x, axis=-1)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_median_of_a_row_holding_nan_is_nan(rng):
    x = rng.standard_normal((3, 9))
    x[0, 2] = np.nan
    x[2, :] = np.nan
    np.testing.assert_array_equal(_median(x), np.median(x, axis=-1))
