"""Wearing-state classification and time-in-bed detection."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from floss import gbt
from floss.errors import AccMissingWhenRequired, ModelIncompatible, NoLyingPeriod
from floss.mobility import (
    MobilityState,
    classify_mobility,
    detect_tib,
    mobility_feature_matrix,
)
from floss.signal_io import TriAxialAcc
from floss.synth import gen_mobility_sequence

FS = 256.0

I, L, S, M = (
    MobilityState.IDLE,
    MobilityState.LYING,
    MobilityState.STATIONARY,
    MobilityState.MOBILE,
)


def _states(*blocks):
    out = []
    for state, count in blocks:
        out.extend([state] * count)
    return out


def _brute_tib(states, run, epoch_len):
    """Independent oracle: scan every window of `run` epochs."""
    starts = [
        i
        for i in range(1, len(states) - run + 2)  # 1-based starts
        if all(s == MobilityState.LYING for s in states[i - 1 : i - 1 + run])
    ]
    if not starts:
        return None
    lights_out = epoch_len * starts[0]
    lights_on = epoch_len * (starts[-1] + run - 1)
    return lights_out, lights_on, (lights_on - lights_out + 1) / 60.0


class TestDetectTib:
    def test_full_night_of_lying(self):
        tib = detect_tib(_states((L, 360)), run_epochs=12, epoch_len_s=10.0)
        assert tib.lights_out_s == 10.0
        assert tib.lights_on_s == 3600.0
        assert tib.tib_min == pytest.approx(59.85)

    def test_mixed_night_worked_example(self):
        states = _states((M, 5), (L, 20), (M, 3), (L, 15), (I, 4))
        tib = detect_tib(states, run_epochs=12, epoch_len_s=10.0)
        assert tib.lights_out_s == 60.0
        assert tib.lights_on_s == 430.0
        assert tib.tib_min == pytest.approx(371.0 / 60.0)

    def test_short_runs_do_not_count(self):
        states = _states((L, 11), (M, 1), (L, 11))
        with pytest.raises(NoLyingPeriod):
            detect_tib(states, run_epochs=12, epoch_len_s=10.0)

    def test_sequence_shorter_than_run_raises(self):
        with pytest.raises(NoLyingPeriod):
            detect_tib(_states((L, 5)), run_epochs=12, epoch_len_s=10.0)

    def test_run_threshold_is_configurable(self):
        states = _states((M, 2), (L, 5), (M, 1))
        tib = detect_tib(states, run_epochs=5, epoch_len_s=10.0)
        assert tib.lights_out_s == 30.0
        assert tib.lights_on_s == 70.0

    def test_matches_brute_force_on_random_sequences(self, rng):
        for _ in range(300):
            n = int(rng.integers(12, 80))
            states = [MobilityState(int(v)) for v in rng.integers(0, 4, size=n)]
            run = int(rng.integers(2, 15))
            want = _brute_tib(states, run, 10.0)
            if want is None:
                with pytest.raises(NoLyingPeriod):
                    detect_tib(states, run, 10.0)
            else:
                got = detect_tib(states, run, 10.0)
                assert (got.lights_out_s, got.lights_on_s) == want[:2]
                assert got.tib_min == pytest.approx(want[2])


class TestFeaturesAndModel:
    def test_feature_matrix_shapes(self):
        axes, states = gen_mobility_sequence([(L, 4), (M, 2)], FS, 10.0, seed=0)
        from floss.signal_io import TriAxialAcc

        acc = TriAxialAcc(x=axes[0], y=axes[1], z=axes[2])
        X, layout = mobility_feature_matrix(acc, FS, 10.0)
        assert X.shape == (6, 72)
        assert [n for n, _ in layout] == ["stats_acc_x", "stats_acc_y", "stats_acc_z"]

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_blocks_of_a_digital_night_equal_the_whole_night(self, monkeypatch, cpus):
        """Epoch blocks converted into reused buffers, the last one partial,
        give the bits of each axis converted and summarised whole."""
        from floss import features
        from floss.epoching import BLOCK_EPOCHS, epoch_view
        from floss.features import stat_features
        from floss.signal_io import Calibration

        monkeypatch.setattr(features, "available_cpus", lambda: cpus)
        axes, _ = gen_mobility_sequence([(L, BLOCK_EPOCHS), (M, BLOCK_EPOCHS + 3)], FS, 10.0, seed=5)
        cal = Calibration(-8.0, 8.0)
        held = [cal.to_digital(axis) for axis in axes]
        X, _ = mobility_feature_matrix(TriAxialAcc(*held, calibrations=(cal,) * 3), FS, 10.0)
        whole = [stat_features(epoch_view(cal.to_physical(h), FS, 10.0), FS) for h in held]
        assert X.tobytes() == np.concatenate(whole, axis=1).tobytes()

    def test_model_classifies_held_out_blocks(self, tiny_mobility_model):
        axes, states = gen_mobility_sequence(
            [(M, 4), (L, 14), (I, 4), (S, 4)], FS, 10.0, seed=77
        )
        from floss.signal_io import TriAxialAcc

        acc = TriAxialAcc(x=axes[0], y=axes[1], z=axes[2])
        got = classify_mobility(acc, FS, tiny_mobility_model)
        agreement = np.mean([a == b for a, b in zip(got, states)])
        assert agreement >= 0.85

    def test_missing_acc_raises(self, tiny_mobility_model):
        with pytest.raises(AccMissingWhenRequired):
            classify_mobility(None, FS, tiny_mobility_model)

    def test_wrong_task_or_rate_raises(self, tiny_mobility_model, tiny_model):
        axes, _ = gen_mobility_sequence([(L, 2)], FS, 10.0, seed=1)
        from floss.signal_io import TriAxialAcc

        acc = TriAxialAcc(x=axes[0], y=axes[1], z=axes[2])
        with pytest.raises(ModelIncompatible):
            classify_mobility(acc, FS, tiny_model)  # a usability model
        with pytest.raises(ModelIncompatible):
            classify_mobility(acc, 128.0, tiny_mobility_model)

    def test_model_of_another_feature_layout_is_refused(self, tiny_mobility_model, tmp_path):
        """A model of an unknown feature mode loads, and classifying with it raises."""
        model = dataclasses.replace(
            tiny_mobility_model,
            feature_layout=tuple((f"bands_acc_{a}", 24) for a in "xyz"),
            meta={**tiny_mobility_model.meta, "feature_mode": "fft"},
        )
        gbt.save_model(model, tmp_path / "model.json")
        loaded = gbt.load_model(tmp_path / "model.json")
        axes, _ = gen_mobility_sequence([(L, 2)], FS, 10.0, seed=1)
        acc = TriAxialAcc(x=axes[0], y=axes[1], z=axes[2])
        with pytest.raises(ModelIncompatible, match="feature layout"):
            classify_mobility(acc, FS, loaded)
