"""Shared fixtures: small synthetic recordings and quickly trained models."""
from __future__ import annotations

import json

import numpy as np
import pytest

import floss
from floss import gbt


@pytest.fixture(scope="session")
def tiny_samples():
    samples = floss.gen_labeled_dataset(n_subjects=2, epochs_per_class_per_subject=6, seed=7)
    return floss.balance_rus(samples, seed=7)


@pytest.fixture(scope="session")
def tiny_train_config():
    return gbt.TrainConfig(n_iterations=12, eta=0.3, max_leaves=7, min_samples_leaf=2, seed=7)


@pytest.fixture(scope="session")
def tiny_model(tiny_samples, tiny_train_config):
    return floss.train_usability(tiny_samples, fs=256.0, variant="lite", config=tiny_train_config)


@pytest.fixture(scope="session")
def tiny_mobility_model():
    from floss.cli import _mobility_training_data
    from floss.mobility import fit_mobility

    acc, labels = _mobility_training_data(256.0, 10.0, seed=5)
    cfg = gbt.TrainConfig(n_iterations=10, eta=0.3, max_leaves=7, min_samples_leaf=2, seed=5)
    return fit_mobility(acc, labels, 256.0, 10.0, config=cfg)


@pytest.fixture(scope="session")
def small_night():
    rec, spans, sleep_scores, mobility = floss.gen_night(
        subject_index=0, n_epochs=60, seed=11
    )
    return rec, spans, sleep_scores, mobility


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def per_tree_proba():
    """The per-tree predict formula over the model file, as an oracle of the joined forest.

    Each tree is walked in the nested dicts of the model's JSON document,
    its rows split at every node, and the margins add one tree's values
    after another.
    """

    def leaf_values(node: dict, X: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
        if "value" in node:
            out[rows] = node["value"]
            return
        left = X[rows, node["feature"]] <= node["threshold"]
        leaf_values(node["left"], X, rows[left], out)
        leaf_values(node["right"], X, rows[~left], out)

    def proba(model: gbt.Model, X: np.ndarray) -> np.ndarray:
        doc = json.loads(gbt.model_to_json(model))
        margins = np.tile(np.asarray(doc["base_score"]), (len(X), 1))
        values = np.empty(len(X))
        for row in doc["trees"]:
            for cls, root in enumerate(row):
                leaf_values(root, X, np.arange(len(X)), values)
                margins[:, cls] += values
        return gbt.softmax(margins)

    return proba


@pytest.fixture()
def write_half_second_record_edf():
    """Writer of a valid two-channel EDF night in 119 records of 0.5 s.

    It reads as 15232 samples at 256 Hz: 59.5 s, which one-second EDF
    records cannot hold.
    """

    def write(path) -> None:
        from floss.signal_io import ChannelSignal, Recording, write_edf

        t = np.arange(119 * 128) / 256.0
        wave = 40.0 * np.sin(2 * np.pi * 6.0 * t)
        channels = [ChannelSignal("C3", wave), ChannelSignal("C4", -wave)]
        # written as 119 one-second records of 128 samples, then re-declared as 0.5 s
        write_edf(Recording(channels=channels, acc=None, fs=128.0), path)
        raw = bytearray(path.read_bytes())
        raw[244:252] = b"0.5".ljust(8)
        path.write_bytes(bytes(raw))

    return write
