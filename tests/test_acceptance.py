"""Acceptance gate: twelve checks (A1-A12), one test and one verdict line each.

The heavyweight classifier checks (A3, A4) share one dataset, split, and
default model through module-scoped fixtures so the gate stays inside its
time budget.
"""
from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.signal  # loaded before A7, whose 1-s timed region would otherwise hold its import
from click.testing import CliRunner

from confusion import Confusion
from floss import gbt
from floss.aggregate import (
    channel_majority,
    downsample_majority,
    normalize_sleep_codes,
    reject_artifacts,
    rejected_scores,
)
from floss.cli import main as cli_main
from floss.epoching import ArtifactClass, balance_rus, subject_split, write_annotations
from floss.errors import NoLyingPeriod
from floss.features import SpectrogramConfig, epoch_feature_matrix, spectrogram
from floss.mobility import MobilityState, detect_tib
from floss.signal_io import (
    Calibration,
    ChannelSignal,
    Recording,
    TriAxialAcc,
    read_edf,
    write_edf,
)
from floss.sleepstats import compute_stats
from floss.spiky import apply_zero_phase, design_cascade, freq_response
from floss.synth import gen_labeled_dataset, gen_night
from floss.usability import score_recording, train_usability

FS = 256.0
EPOCH_LEN_S = 10.0

# frozen six-sleep-epoch aggregation example: two channels, 18 usability epochs
B_LEFT = np.array([0, 1, 0, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0])
B_RIGHT = np.array([0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1])
U_AGG = np.array([0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 0, 1, 0, 0])
U_SF = np.array([0, 0, 1, 1, 1, 0])
S_RAW = np.array([0, 1, 2, 3, 4, 5])
S_AR = np.array([0, 1, -1, -1, -1, 4])

HELDOUT_CONFIG = gbt.TrainConfig(n_iterations=60, eta=0.15, seed=42)


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag} failed: {detail}"


def _drawn(samples) -> tuple[np.ndarray, np.ndarray]:
    """The EEG epochs and accelerometer norms of generated samples, each drawn once."""
    win = int(round(FS * EPOCH_LEN_S))
    eeg, acc = np.empty((len(samples), win)), np.empty((len(samples), win))
    for i, s in enumerate(samples):
        eeg[i], acc[i] = s.eeg, s.acc_norm
    return eeg, acc


def _feature_matrix(samples, include_stats: bool) -> np.ndarray:
    eeg, acc = _drawn(samples)
    X, _ = epoch_feature_matrix(
        eeg, acc, SpectrogramConfig(fs=FS), include_stats=include_stats
    )
    return X


@pytest.fixture(scope="module")
def heldout_split():
    """500 epochs per class over 10 subjects; 8 train / 2 held out."""
    samples = gen_labeled_dataset(
        n_subjects=10, epochs_per_class_per_subject=50, fs=FS,
        epoch_len_s=EPOCH_LEN_S, seed=42,
    )
    train_ids = [f"s{i:02d}" for i in range(8)]
    train, test = subject_split(samples, train_ids, ["s08", "s09"])
    return balance_rus(train, seed=42), test


@pytest.fixture(scope="module")
def heldout_truth(heldout_split):
    _, test = heldout_split
    X = _feature_matrix(test, include_stats=True)
    y = np.asarray([int(s.label) for s in test])
    return X, y


@pytest.fixture(scope="module")
def default_model(heldout_split):
    train, _ = heldout_split
    t0 = time.perf_counter()
    model = train_usability(train, FS, "default", HELDOUT_CONFIG)
    return model, time.perf_counter() - t0


def test_a01_aggregation_worked_example():
    rejected_scores([B_LEFT * 3, B_RIGHT * 2], normalize_sleep_codes(S_RAW))  # warmup
    t0 = time.perf_counter()
    agg = channel_majority([B_LEFT, B_RIGHT])
    sf = downsample_majority(agg, 3)
    ar = reject_artifacts(normalize_sleep_codes(S_RAW), sf)
    elapsed = time.perf_counter() - t0
    rows_match = (
        np.array_equal(agg, U_AGG)
        and np.array_equal(sf, U_SF)
        and np.array_equal(ar, S_AR)
    )
    chained = rejected_scores([B_LEFT * 3, B_RIGHT * 2], normalize_sleep_codes(S_RAW))
    _verdict(
        "A1",
        rows_match and np.array_equal(chained, S_AR) and elapsed < 1e-3,
        f"all rows exact, {elapsed * 1e6:.0f} us",
    )


def test_a02_spectrogram_shape(rng):
    epoch = rng.standard_normal((1, int(FS * EPOCH_LEN_S)))
    acc = rng.standard_normal((1, int(FS * EPOCH_LEN_S)))
    cfg = SpectrogramConfig(fs=FS)
    spectrogram(epoch, cfg)  # warmup
    t0 = time.perf_counter()
    spec = spectrogram(epoch, cfg)
    X, _ = epoch_feature_matrix(epoch, acc, cfg, include_stats=False)
    elapsed = time.perf_counter() - t0
    _verdict(
        "A2",
        spec.shape == (1, 11, 129) and X.shape == (1, 2838) and elapsed < 10e-3,
        f"{spec.shape[1]}x{spec.shape[2]} per channel, {X.shape[1]} flat, "
        f"{elapsed * 1e3:.2f} ms",
    )


def test_a03_heldout_classification(default_model, heldout_truth):
    model, fit_s = default_model
    X, y = heldout_truth
    matrix = Confusion(y, gbt.predict_label(model, X), 5)
    f1 = matrix.macro_f1()
    usable = matrix.recall(int(ArtifactClass.USABLE))
    _verdict(
        "A3",
        f1 >= 0.90 and usable >= 0.93 and fit_s <= 300.0,
        f"macro_f1={f1:.3f} kappa={matrix.kappa():.3f} usable_recall={usable:.3f} "
        f"fit={fit_s:.1f}s",
    )


def test_a04_variant_behavior(heldout_split, default_model, heldout_truth):
    train, _ = heldout_split
    model, _ = default_model
    X, y = heldout_truth
    m_class = int(ArtifactClass.M_SHAPED)

    t0 = time.perf_counter()
    weighted = train_usability(train, FS, "weighted-m", HELDOUT_CONFIG)
    binary = train_usability(train, FS, "binary", HELDOUT_CONFIG)

    default_pred = gbt.predict_label(model, X)
    weighted_pred = gbt.predict_label(weighted, X)
    binary_pred = gbt.predict_label(binary, X)
    elapsed = time.perf_counter() - t0

    m_default = Confusion(y, default_pred, 5).recall(m_class)
    m_weighted = Confusion(y, weighted_pred, 5).recall(m_class)
    y_bin = (y != 0).astype(np.int64)
    binarized_acc = float(np.mean((default_pred != 0).astype(np.int64) == y_bin))
    binary_acc = float(np.mean(binary_pred == y_bin))
    _verdict(
        "A4",
        m_weighted > m_default and binary_acc >= binarized_acc and elapsed <= 600.0,
        f"m_recall {m_default:.3f}->{m_weighted:.3f}, "
        f"binary {binary_acc:.3f} vs binarized {binarized_acc:.3f}, {elapsed:.1f}s",
    )


def test_a05_gradient_finite_differences(rng):
    eps = 1e-6
    worst = 0.0
    for trial in range(100):
        k = int(rng.integers(2, 7))
        z = rng.standard_normal(k)
        y = int(rng.integers(0, k))
        weights = None
        w = 1.0
        if trial % 2:
            weights = rng.uniform(0.5, 2.0, size=k)
            w = float(weights[y])

        analytic, _ = gbt.grad_hess(
            gbt.softmax(z[None, :]), np.array([y]), class_weights=weights
        )
        for c in range(k):
            zp, zm = z.copy(), z.copy()
            zp[c] += eps
            zm[c] -= eps
            lp = -w * np.log(gbt.softmax(zp[None, :])[0, y])
            lm = -w * np.log(gbt.softmax(zm[None, :])[0, y])
            fd = (lp - lm) / (2 * eps)
            err = abs(analytic[0, c] - fd) / max(abs(fd), 1e-7)
            worst = max(worst, err)
    _verdict("A5", worst < 1e-5, f"100 points, worst relative error {worst:.2e}")


def test_a06_training_loss_monotone(rng):
    centers = rng.standard_normal((4, 12)) * 4.0
    y = rng.integers(0, 4, size=160)
    X = centers[y] + rng.standard_normal((160, 12))
    cfg = gbt.TrainConfig(
        n_iterations=200, eta=0.1, max_leaves=8, min_samples_leaf=2,
        data_subsample=1.0, seed=3,
    )
    model = gbt.fit(X, y, cfg)
    diffs = np.diff(np.asarray(model.train_loss))
    _verdict(
        "A6",
        len(model.train_loss) == 200 and np.all(diffs <= 1e-12),
        f"200 iterations, max increase {diffs.max():.2e}",
    )


def test_a07_filter_contract():
    t0 = time.perf_counter()
    cascade = design_cascade(FS)
    notched = np.abs(freq_response(cascade, np.array([8.0, 16.0, 24.0])))
    dc = abs(freq_response(cascade, np.array([0.0]))[0])

    t = np.arange(int(FS * 10)) / FS
    core = slice(256, len(t) - 256)
    tone = np.sin(2 * np.pi * 2.0 * t)
    tone_out = apply_zero_phase(cascade, tone)
    attenuation = 1.0 - np.abs(tone_out[core]).max() / np.abs(tone[core]).max()
    xc = np.correlate(tone_out[core], tone[core], "full")
    lag = int(np.argmax(xc)) - (len(tone[core]) - 1)

    spikes = (
        np.sin(2 * np.pi * 8.0 * t)
        + 0.5 * np.sin(2 * np.pi * 16.0 * t)
        + 0.3 * np.sin(2 * np.pi * 24.0 * t)
    )
    spikes_out = apply_zero_phase(cascade, spikes)
    reduction_db = 20 * np.log10(
        np.sqrt(np.mean(spikes[core] ** 2)) / np.sqrt(np.mean(spikes_out[core] ** 2))
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        "A7",
        bool(
            np.all(notched < 0.01)
            and 0.9 <= dc <= 1.0
            and attenuation < 0.02
            and lag == 0
            and reduction_db >= 40.0
            and elapsed < 1.0
        ),
        f"|H|@8/16/24={notched.max():.4f}, |H(0)|={dc:.4f}, "
        f"2Hz loss={attenuation * 100:.2f}% lag={lag}, "
        f"contaminant -{reduction_db:.1f} dB, {elapsed * 1e3:.0f} ms",
    )


def _brute_tib(states, run, epoch_len):
    starts = [
        i
        for i in range(1, len(states) - run + 2)
        if all(s == MobilityState.LYING for s in states[i - 1 : i - 1 + run])
    ]
    if not starts:
        return None
    lights_out = epoch_len * starts[0]
    lights_on = epoch_len * (starts[-1] + run - 1)
    return lights_out, lights_on, (lights_on - lights_out + 1) / 60.0


def test_a08_tib_oracle(rng):
    lying = detect_tib([MobilityState.LYING] * 360, run_epochs=12, epoch_len_s=10.0)
    example_a = (lying.lights_out_s, lying.lights_on_s, lying.tib_min) == (
        10.0, 3600.0, pytest.approx(59.85),
    )
    states = (
        [MobilityState.MOBILE] * 5 + [MobilityState.LYING] * 20
        + [MobilityState.MOBILE] * 3 + [MobilityState.LYING] * 15
        + [MobilityState.IDLE] * 4
    )
    mixed = detect_tib(states, run_epochs=12, epoch_len_s=10.0)
    example_b = (mixed.lights_out_s, mixed.lights_on_s, mixed.tib_min) == (
        60.0, 430.0, pytest.approx(371.0 / 60.0),
    )

    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 120))
        run = int(rng.integers(1, 20))
        seq = [
            MobilityState(int(v))
            for v in rng.choice([0, 1, 1, 1, 2, 3], size=n)
        ]
        want = _brute_tib(seq, run, 10.0)
        if want is None:
            try:
                detect_tib(seq, run_epochs=run, epoch_len_s=10.0)
                mismatches += 1
            except NoLyingPeriod:
                pass
            continue
        got = detect_tib(seq, run_epochs=run, epoch_len_s=10.0)
        if (got.lights_out_s, got.lights_on_s) != want[:2] or abs(
            got.tib_min - want[2]
        ) > 1e-9:
            mismatches += 1
    _verdict(
        "A8",
        example_a and example_b and mismatches == 0,
        f"worked examples exact, {mismatches} mismatches in 1000 random sequences",
    )


def test_a09_sleep_stats_identities(rng):
    checked = 0
    failures = 0
    while checked < 1000:
        n = int(rng.integers(4, 300))
        s = rng.choice([-1, 0, 1, 2, 3, 4], size=n)
        if not np.isin(s, [1, 2, 3, 4]).any():
            continue
        checked += 1
        st = compute_stats(s, epoch_len_s=30.0)
        pct_sum = st.n1_pct + st.n2_pct + st.n3_pct + st.rem_pct
        ok = abs(pct_sum - 100.0) <= 0.01
        if not (s == -1).any():
            ok = ok and abs(st.spt_min - (st.tst_min + st.waso_min)) < 1e-9
        ok = ok and abs(st.se_pct - 100.0 * st.tst_min / st.tib_min) < 1e-9
        failures += not ok
    _verdict("A9", failures == 0, f"{failures} failures in {checked} sequences")


def test_a10_edf_round_trips(rng):
    failures = 0
    for trial in range(100):
        fs = int(rng.choice([64, 128, 256]))
        seconds = int(rng.integers(1, 4))
        n = fs * seconds
        cal = Calibration(
            phys_min=float(rng.uniform(-5000, -10)),
            phys_max=float(rng.uniform(10, 5000)),
        )
        channels = [
            ChannelSignal(
                f"EEG {i}",
                cal.to_physical(rng.integers(-32768, 32768, size=n, dtype=np.int64)),
                calibration=cal,
            )
            for i in range(int(rng.integers(1, 4)))
        ]
        acc = None
        if trial % 2:
            acal = Calibration(-8.0, 8.0)
            axes = [
                acal.to_physical(rng.integers(-32768, 32768, size=n, dtype=np.int64))
                for _ in range(3)
            ]
            acc = TriAxialAcc(*axes, calibrations=(acal,) * 3)
        rec = Recording(channels=channels, acc=acc, fs=float(fs))

        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trial.edf"
            write_edf(rec, path)
            back = read_edf(path)
        for orig, reread in zip(rec.channels, back.channels):
            if not np.array_equal(
                cal.to_digital(orig.samples), cal.to_digital(reread.samples)
            ):
                failures += 1
        if acc is not None:
            for a, b in zip(rec.acc.axes, back.acc.axes):
                if not np.array_equal(acal.to_digital(a), acal.to_digital(b)):
                    failures += 1
    _verdict("A10", failures == 0, f"{failures} mismatches in 100 recordings")


def test_a11_report_determinism(tiny_model, tiny_mobility_model, tmp_path):
    models = tmp_path / "models"
    models.mkdir()
    gbt.save_model(tiny_model, models / "usability.json")
    gbt.save_model(tiny_mobility_model, models / "mobility.json")

    nights = tmp_path / "nights"
    nights.mkdir()
    for subj, stem in enumerate(("n00", "n01")):
        rec, spans, sleep_scores, _ = gen_night(
            subject_index=subj, n_epochs=36, seed=17
        )
        write_edf(rec, nights / f"{stem}.edf")
        write_annotations(spans, nights / f"{stem}_labels.csv")
        (nights / f"{stem}_sleep.txt").write_text(
            "\n".join(str(v) for v in sleep_scores) + "\n"
        )

    runner = CliRunner()
    outputs = []
    for run_dir in ("first", "second"):
        out = tmp_path / run_dir
        result = runner.invoke(
            cli_main,
            ["report", "--input", str(nights), "--out", str(out),
             "--model", str(models / "usability.json"),
             "--mobility-model", str(models / "mobility.json")],
        )
        assert result.exit_code == 0, result.output
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    identical = outputs[0] == outputs[1]
    _verdict(
        "A11",
        identical and "2 ok, 0 skipped" in result.output,
        f"{len(outputs[0])} files byte-identical across runs",
    )


def test_a12_lite_scoring_speed(tiny_model):
    rec, _, _, _ = gen_night(
        subject_index=0, n_epochs=2880, fs=FS, epoch_len_s=EPOCH_LEN_S, seed=21
    )
    warm = Recording(
        channels=[ChannelSignal(ch.label, ch.samples[: 6 * 2560]) for ch in rec.channels],
        acc=TriAxialAcc(*(ax[: 6 * 2560] for ax in rec.acc.axes)),
        fs=rec.fs,
    )
    score_recording(warm, tiny_model)  # warmup

    t0 = time.perf_counter()
    scores = score_recording(rec, tiny_model)
    elapsed = time.perf_counter() - t0
    _verdict(
        "A12",
        scores.n_epochs == 2880 and len(scores.channels) == 2 and elapsed <= 5.0,
        f"8 h, 2 channels scored in {elapsed:.2f} s",
    )
