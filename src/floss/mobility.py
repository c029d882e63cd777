"""Wearing-state classification from accelerometry and time-in-bed detection.

Lights Out is the start (in seconds) of the first run of ``run_epochs``
consecutive Lying epochs; Lights On is the end of the last such run; both
use 1-based epoch indices, so a recording that opens with Lying yields a
Lights Out of one epoch length.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from . import gbt
from .epoching import BLOCK_EPOCHS, epoch_grid
from .errors import AccMissingWhenRequired, ModelIncompatible, NoLyingPeriod
from .features import N_STAT_FEATURES, pool_map_with_buffer, stat_features
from .signal_io import TriAxialAcc

#: consecutive Lying epochs required to open/close time in bed (2 min at 10 s)
DEFAULT_RUN_EPOCHS = 12


class MobilityState(IntEnum):
    IDLE = 0
    LYING = 1
    STATIONARY = 2
    MOBILE = 3


@dataclass(frozen=True)
class TimeInBed:
    lights_out_s: float
    lights_on_s: float
    tib_min: float


def mobility_feature_matrix(
    acc: TriAxialAcc, fs: float, epoch_len_s: float = 10.0
) -> tuple[np.ndarray, tuple[tuple[str, int], ...]]:
    """Per-epoch feature rows: the 24-value summary of each raw axis, concatenated.

    The rows are built BLOCK_EPOCHS epochs at a time, a task each on the
    kept CPU pool, from the physical samples of those epochs alone; a row
    does not depend on its neighbours, so the bits are those of the whole
    night at once.
    """
    n_epochs, win = epoch_grid(len(acc), fs, epoch_len_s)
    layout = tuple((f"stats_acc_{name}", N_STAT_FEATURES) for name in "xyz")
    X = np.empty((n_epochs, 3 * N_STAT_FEATURES))

    def block(start: int, buffer: np.ndarray) -> None:
        stop = min(start + BLOCK_EPOCHS, n_epochs)
        axes = acc.physical(start * win, stop * win, out=buffer[:, : (stop - start) * win])
        axes = [axis.reshape(stop - start, win) for axis in axes]
        # (axis, epoch, feature) -> (epoch, axis * feature)
        X[start:stop] = stat_features(axes, fs).transpose(1, 0, 2).reshape(stop - start, -1)

    # a digital block is converted into its thread's buffer
    pool_map_with_buffer(block, range(0, n_epochs, BLOCK_EPOCHS), (3, BLOCK_EPOCHS * win))
    return X, layout


def fit_mobility(
    acc: TriAxialAcc,
    labels: list[MobilityState],
    fs: float,
    epoch_len_s: float = 10.0,
    config: gbt.TrainConfig = gbt.TrainConfig(),
) -> gbt.Model:
    """Train a wearing-state model on labeled accelerometer epochs."""
    X, layout = mobility_feature_matrix(acc, fs, epoch_len_s)
    y = np.asarray([int(s) for s in labels], dtype=np.int64)
    if len(y) != X.shape[0]:
        raise ModelIncompatible(f"{X.shape[0]} feature rows vs {len(y)} labels")
    meta = {
        "task": "mobility",
        "feature_mode": "stat",
        "fs": fs,
        "epoch_len_s": epoch_len_s,
    }
    return gbt.fit(X, y, config, feature_layout=layout, meta=meta)


def classify_mobility(
    acc: TriAxialAcc | None, fs: float, model: gbt.Model
) -> list[MobilityState]:
    """Per-epoch wearing states for a recording's accelerometer."""
    if acc is None:
        raise AccMissingWhenRequired("mobility classification needs accelerometer data")
    X, layout = mobility_feature_matrix(acc, fs, gbt.input_epoch_len(model, "mobility", fs))
    gbt.check_layout(model, layout)
    return [MobilityState(int(v)) for v in gbt.predict_label(model, X)]


def write_mobility_csv(states: list[MobilityState], path: str | Path) -> None:
    """One ``epoch_index,state`` row per epoch, the state as its integer code."""
    lines = ["epoch_index,state"] + [f"{i},{int(s)}" for i, s in enumerate(states)]
    Path(path).write_text("\n".join(lines) + "\n")


def detect_tib(
    states: list[MobilityState],
    run_epochs: int = DEFAULT_RUN_EPOCHS,
    epoch_len_s: float = 10.0,
) -> TimeInBed:
    """Bed entry/exit from the first and last long Lying runs.

    With 1-based indices i over epochs and runs of ``run_epochs``:
    lights_out = epoch_len * min(i), lights_on = epoch_len * max(i + run - 1),
    tib_min = (lights_on - lights_out + 1) / 60.
    """
    if run_epochs < 1:
        raise ValueError(f"run_epochs must be >= 1, got {run_epochs}")
    lying = np.asarray([s == MobilityState.LYING for s in states], dtype=bool)
    n = len(lying)
    if n < run_epochs:
        raise NoLyingPeriod(f"{n} epochs cannot hold a {run_epochs}-epoch Lying run")

    window_all = (
        np.convolve(lying.astype(np.int64), np.ones(run_epochs, dtype=np.int64), "valid")
        == run_epochs
    )
    starts = np.flatnonzero(window_all)
    if starts.size == 0:
        raise NoLyingPeriod(f"no run of {run_epochs} consecutive Lying epochs")

    first_i = int(starts[0]) + 1
    last_i = int(starts[-1]) + 1
    lights_out_s = epoch_len_s * first_i
    lights_on_s = epoch_len_s * (last_i + run_epochs - 1)
    return TimeInBed(
        lights_out_s=lights_out_s,
        lights_on_s=lights_on_s,
        tib_min=(lights_on_s - lights_out_s + 1) / 60.0,
    )
