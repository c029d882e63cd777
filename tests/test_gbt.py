"""Boosted-tree training: gradients, split search vs brute force, formats."""
from __future__ import annotations

import itertools
import json
import math
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floss import features, gbt
from floss.errors import (
    DegenerateData,
    FeatureCountMismatch,
    FileUnreadable,
    ModelIncompatible,
    NonFiniteFeature,
)
from floss.mobility import MobilityState, fit_mobility
from floss.signal_io import TriAxialAcc
from floss.synth import gen_mobility_sequence

# Format-v1 model as the nested-node writer used before array trees wrote it:
# 3 iterations, 3 classes, max_leaves=4, 5 features, seed 11.
PINNED = Path(__file__).parent / "data" / "model_v1.json"

# gbt.fit's model of _pinned_fit_data() under PINNED_FIT_CONFIG, written by
# the whole-node exact search that the blocked, tie-aware search replaced
PINNED_FIT = Path(__file__).parent / "data" / "fit_pinned.json"
PINNED_FIT_CONFIG = gbt.TrainConfig(
    n_iterations=4,
    eta=0.3,
    max_leaves=8,
    min_samples_leaf=3,
    feature_subsample=0.7,
    data_subsample=0.8,
    data_resample_period=2,
    class_weights=(1.0, 2.5, 0.5),
    seed=13,
)


def _loss_at(z, y):
    return -np.log(gbt.softmax(z)[np.arange(len(y)), y]).mean()


class TestGradients:
    def test_softmax_rows_sum_to_one(self, rng):
        p = gbt.softmax(rng.standard_normal((20, 5)))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=1e-12)
        assert np.all(p > 0)

    def test_softmax_survives_huge_logits(self):
        p = gbt.softmax(np.array([[1e4, 0.0, -1e4]]))
        assert np.isfinite(p).all()
        assert p[0, 0] == pytest.approx(1.0)

    def test_gradient_matches_finite_differences(self, rng):
        n, k = 8, 4
        z = rng.standard_normal((n, k))
        y = rng.integers(0, k, size=n)
        g, _ = gbt.grad_hess(gbt.softmax(z), y)
        eps = 1e-6
        for i in range(n):
            for c in range(k):
                zp, zm = z.copy(), z.copy()
                zp[i, c] += eps
                zm[i, c] -= eps
                fd = (_loss_at(zp, y) - _loss_at(zm, y)) / (2 * eps) * n
                assert g[i, c] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_hessian_matches_second_differences(self, rng):
        n, k = 6, 3
        z = rng.standard_normal((n, k))
        y = rng.integers(0, k, size=n)
        _, h = gbt.grad_hess(gbt.softmax(z), y)
        eps = 1e-4
        for i in range(n):
            for c in range(k):
                zp, zm = z.copy(), z.copy()
                zp[i, c] += eps
                zm[i, c] -= eps
                fd = (_loss_at(zp, y) - 2 * _loss_at(z, y) + _loss_at(zm, y)) / eps**2 * n
                assert h[i, c] == pytest.approx(fd, rel=1e-3, abs=1e-6)

    def test_class_weights_scale_both_terms(self, rng):
        z = rng.standard_normal((10, 3))
        y = rng.integers(0, 3, size=10)
        p = gbt.softmax(z)
        g0, h0 = gbt.grad_hess(p, y)
        w = np.array([1.0, 3.0, 0.5])
        gw, hw = gbt.grad_hess(p, y, w)
        np.testing.assert_allclose(gw, g0 * w[y][:, None], rtol=1e-12)
        np.testing.assert_allclose(hw, h0 * w[y][:, None], rtol=1e-12)

    def test_ce_loss_hand_value_and_clipping(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        y = np.array([0, 1])
        expected = -(np.log(0.5) + np.log(0.75)) / 2
        assert gbt.ce_loss(probs, y) == pytest.approx(expected, rel=1e-12)
        hard = np.array([[1.0, 0.0]])
        assert gbt.ce_loss(hard, np.array([1])) == pytest.approx(-np.log(1e-15))


def _sorted_rows(X, cols, rows=None, row_id=np.uint16):
    """Node row-id matrix as the trainer builds it: one sorted row per feature.

    The trainer's row ids are uint16 up to 65,536 rows and int32 above.
    """
    if rows is None:
        rows = np.arange(X.shape[0])
    return np.stack(
        [rows[np.argsort(X[rows, f], kind="stable")] for f in cols]
    ).astype(row_id)


def _tie_flags(X, cols):
    """Per candidate feature, whether its column repeats a value, as fit computes it."""
    return gbt._tied_columns(X, _sorted_rows(X, np.arange(X.shape[1])))[cols]


def _brute_split(X, g, h, cols, lam, msl):
    """(gain, local feature, position) of the best split, scanned one by one.

    A split after sorted position i sends the first i + 1 rows left; a
    later candidate replaces the best only on a strictly greater gain.
    """
    best = (-np.inf, -1, -1)
    n = X.shape[0]
    G, H = g.sum(), h.sum()
    parent = G * G / (H + lam)
    for j, f in enumerate(cols):
        order = np.argsort(X[:, f], kind="stable")
        v = X[order, f]
        for i in range(n - 1):
            if v[i + 1] <= v[i] or i + 1 < msl or n - i - 1 < msl:
                continue
            GL = g[order[: i + 1]].sum()
            HL = h[order[: i + 1]].sum()
            GR, HR = G - GL, H - HL
            gain = 0.5 * (GL**2 / (HL + lam) + GR**2 / (HR + lam) - parent)
            if gain > best[0]:
                best = (gain, j, i)
    return best


def _brute_best_split(X, g, h, cols, lam, msl):
    return _brute_split(X, g, h, cols, lam, msl)[0]


@st.composite
def _tied_nodes(draw):
    """A node with dyadic g and h whose columns hold few distinct values or none repeated.

    Every sum of a few dyadic values is exact in any order, so the blocked
    search and the one-by-one scan compute bit-identical gains and must
    break ties between equal gains the same way.
    """
    n = draw(st.integers(2, 40))
    width = draw(st.integers(1, 12))
    levels = draw(st.integers(1, 4))
    tied_column = st.lists(st.integers(0, levels), min_size=n, max_size=n)
    X = np.array(
        [draw(st.one_of(tied_column, st.permutations(range(n)))) for _ in range(width)],
        dtype=np.float64,
    ).T
    g = np.array(draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))) / 4.0
    h = np.array(draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))) / 8.0
    msl = draw(st.integers(1, max(1, n // 2)))
    block = draw(st.sampled_from([1, 2, 3, 5, gbt._SPLIT_BLOCK]))
    return X, g, h, msl, block


class TestSplitSearch:
    def test_matches_brute_force(self, rng):
        for trial in range(25):
            n, f = 40, 5
            X = np.round(rng.standard_normal((n, f)), 1)  # duplicates on purpose
            g = rng.standard_normal(n)
            h = rng.uniform(0.05, 1.0, size=n)
            msl = int(rng.integers(1, 8))
            cols = np.arange(f)
            got = gbt._best_split(
                _sorted_rows(X, cols), X, g, h, cols, _tie_flags(X, cols), 1.0, msl
            )
            want = _brute_best_split(X, g, h, cols, 1.0, msl)
            if want == -np.inf or want <= 0:
                assert got is None
            else:
                assert got is not None
                assert got[0] == pytest.approx(want, rel=1e-9)

    def test_tie_prefers_lowest_feature(self, rng):
        base = rng.standard_normal(30)
        X = np.stack([base, base], axis=1)  # identical columns, identical gains
        g = rng.standard_normal(30)
        h = np.full(30, 0.5)
        cols = np.arange(2)
        got = gbt._best_split(
            _sorted_rows(X, cols), X, g, h, cols, _tie_flags(X, cols), 1.0, 1
        )
        assert got is not None
        assert got[1] == 0

    def test_min_samples_leaf_blocks_splits(self, rng):
        X = rng.standard_normal((10, 2))
        g = rng.standard_normal(10)
        h = np.full(10, 0.5)
        cols = np.arange(2)
        assert gbt._best_split(
            _sorted_rows(X, cols), X, g, h, cols, _tie_flags(X, cols), 1.0, 6
        ) is None

    def test_threshold_never_leaks_right_neighbor(self):
        # adjacent representable floats: the midpoint rounds up, so the
        # threshold must fall back to the left value
        lo = 1.0
        hi = np.nextafter(1.0, 2.0)
        X = np.array([[lo], [hi], [2.0], [2.5]])
        g = np.array([-5.0, 5.0, 5.0, 5.0])
        h = np.full(4, 0.5)
        cols = np.arange(1)
        got = gbt._best_split(
            _sorted_rows(X, cols), X, g, h, cols, _tie_flags(X, cols), 1.0, 1
        )
        assert got is not None
        _, _, i, thr = got
        if i == 0:
            assert thr == lo
            assert thr < hi

    def test_constant_feature_yields_no_split(self):
        X = np.ones((12, 1))
        g = np.linspace(-1, 1, 12)
        h = np.full(12, 0.5)
        cols = np.arange(1)
        assert gbt._best_split(
            _sorted_rows(X, cols), X, g, h, cols, _tie_flags(X, cols), 1.0, 1
        ) is None

    @settings(max_examples=250, deadline=None)
    @given(node=_tied_nodes(), row_id=st.sampled_from([np.uint16, np.int32]))
    def test_agrees_with_one_by_one_scan_under_ties(self, node, row_id):
        X, g, h, msl, block = node
        cols = np.arange(X.shape[1])
        want = _brute_split(X, g, h, cols, 1.0, msl)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gbt, "_SPLIT_BLOCK", block)
            S = _sorted_rows(X, cols, row_id=row_id)
            got = gbt._best_split(S, X, g, h, cols, _tie_flags(X, cols), 1.0, msl)
        if not want[0] > 0:
            assert got is None
            return
        assert got is not None
        gain, j, i, thr = got
        assert (gain, j, i) == want
        # the threshold sends exactly the first i + 1 sorted rows left
        assert (X[:, cols[j]] <= thr).sum() == i + 1


def _blobs(rng, n_per=30, k=3):
    X = np.concatenate(
        [rng.standard_normal((n_per, 2)) * 0.3 + [3.0 * c, -2.0 * c] for c in range(k)]
    )
    y = np.repeat(np.arange(k), n_per)
    return X, y


def _is_leaf(tree):
    return tree.children[::2] == np.arange(len(tree.feature))


def _assert_well_formed(tree, max_leaves, cols):
    n = len(tree.feature)
    node = np.arange(n)
    left, right = tree.children[::2], tree.children[1::2]
    leaf = _is_leaf(tree)
    split = node[~leaf]
    assert tree.roots.tolist() == [0]
    # a leaf's children are itself; every node but the root has exactly
    # one parent, a split made before it
    assert (right[leaf] == node[leaf]).all()
    assert sorted(np.concatenate([left[split], right[split]]).tolist()) == list(range(1, n))
    assert (left[split] > split).all() and (right[split] > split).all()
    level = np.zeros(n, dtype=int)
    for i in split:
        level[[left[i], right[i]]] = level[i] + 1
    assert tree.depth == level[leaf].max()
    assert leaf.sum() <= max_leaves
    assert np.isin(tree.feature[split], cols).all()


class TestFitPredict:
    def test_separable_blobs_reach_full_train_accuracy(self, rng):
        X, y = _blobs(rng)
        cfg = gbt.TrainConfig(
            n_iterations=20, eta=0.3, max_leaves=4, min_samples_leaf=2, data_subsample=1.0
        )
        model = gbt.fit(X, y, cfg)
        assert (gbt.predict_label(model, X) == y).mean() == 1.0
        p = gbt.predict_proba(model, X)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=1e-9)

    def test_loss_is_monotone_without_row_subsampling(self, rng):
        X, y = _blobs(rng)
        cfg = gbt.TrainConfig(
            n_iterations=40, eta=0.1, max_leaves=6, min_samples_leaf=2, data_subsample=1.0
        )
        model = gbt.fit(X, y, cfg)
        losses = np.asarray(model.train_loss)
        assert np.all(np.diff(losses) <= 1e-12)

    def test_base_score_is_log_prior(self, rng):
        X = rng.standard_normal((40, 3))
        y = np.array([0] * 30 + [1] * 10)
        cfg = gbt.TrainConfig(n_iterations=0)
        model = gbt.fit(X, y, cfg)
        p = gbt.predict_proba(model, rng.standard_normal((5, 3)))
        np.testing.assert_allclose(p, [[0.75, 0.25]] * 5, rtol=1e-12)

    def test_leaf_budget_respected(self, rng):
        X, y = _blobs(rng, n_per=50)
        cfg = gbt.TrainConfig(
            n_iterations=3, eta=0.3, max_leaves=4, min_samples_leaf=1, data_subsample=1.0
        )
        model = gbt.fit(X, y, cfg)

        for row in model.trees:
            for tree in row:
                assert _is_leaf(tree).sum() <= 4

    def test_same_seed_same_model_different_seed_differs(self, rng):
        X, y = _blobs(rng)
        cfg = gbt.TrainConfig(n_iterations=6, eta=0.2, max_leaves=4, min_samples_leaf=2)
        a = gbt.model_to_json(gbt.fit(X, y, cfg))
        b = gbt.model_to_json(gbt.fit(X, y, cfg))
        c = gbt.model_to_json(gbt.fit(X, y, gbt.TrainConfig(
            n_iterations=6, eta=0.2, max_leaves=4, min_samples_leaf=2, seed=99
        )))
        assert a == b
        assert a != c

    def test_degenerate_training_data_rejected(self, rng):
        X = rng.standard_normal((10, 2))
        with pytest.raises(DegenerateData):
            gbt.fit(X, np.zeros(10, dtype=int))  # single class
        with pytest.raises(DegenerateData):
            gbt.fit(X, np.array([0] * 9 + [1]))  # class with one sample
        with pytest.raises(DegenerateData):
            gbt.fit(X, np.arange(5))  # label/row mismatch
        bad = X.copy()
        bad[0, 0] = np.nan
        with pytest.raises(NonFiniteFeature):
            gbt.fit(bad, np.array([0] * 5 + [1] * 5))

    def test_trees_are_well_formed(self, rng, monkeypatch, tmp_path):
        X, y = _blobs(rng, n_per=40)
        X = np.hstack([X, rng.standard_normal((len(y), 4))])
        cfg = gbt.TrainConfig(
            n_iterations=5, eta=0.3, max_leaves=5, min_samples_leaf=2, feature_subsample=0.5
        )
        grown = []
        grow = gbt._grow_tree

        def recording_grow(*args):
            tree = grow(*args)
            grown.append((tree, args[4]))
            return tree

        monkeypatch.setattr(gbt, "_grow_tree", recording_grow)
        model = gbt.fit(X, y, cfg)
        path = tmp_path / "model.json"
        gbt.save_model(model, path)
        loaded = [t for row in gbt.load_model(path).trees for t in row]
        fitted = [t for row in model.trees for t in row]

        assert len(grown) == len(fitted) == len(loaded) == 15
        # the class trees of an iteration grow on threads, so they finish in
        # any order: pair each grown tree with its fitted tree by identity
        cols_of = {id(tree): cols for tree, cols in grown}
        assert len(cols_of) == 15
        for tree, reread in zip(fitted, loaded):
            assert id(tree) in cols_of  # each fitted tree is a grown tree
            cols = cols_of[id(tree)]
            assert len(cols) == 3
            for t in (tree, reread):
                _assert_well_formed(t, cfg.max_leaves, cols)
        assert any(t.depth > 0 for t in fitted)

    def test_class_weights_shape_checked(self, rng):
        X = rng.standard_normal((20, 2))
        y = np.array([0] * 10 + [1] * 10)
        with pytest.raises(DegenerateData):
            gbt.fit(X, y, gbt.TrainConfig(class_weights=(1.0, 1.0, 1.0)))


    @pytest.mark.parametrize("max_leaves", [2, 4, 31])
    def test_budget_filling_split_searches_neither_child(self, rng, monkeypatch, max_leaves):
        # the split that makes the last leaf leaves both children as leaves,
        # so of the 2L - 1 nodes only the root and L - 2 splits' children
        # are searched: 2L - 3 searches
        X = rng.standard_normal((400, 6))
        g, h = rng.standard_normal(400), np.ones(400)
        order_t, tied = gbt._sorted_columns(X)
        cols = np.arange(6)
        searched = []
        search = gbt._best_split

        def counted(*args):
            searched.append(args[0].shape[1])
            return search(*args)

        monkeypatch.setattr(gbt, "_best_split", counted)
        cfg = gbt.TrainConfig(max_leaves=max_leaves, min_samples_leaf=2)
        tree = gbt._grow_tree(X, g, h, order_t[cols], cols, tied[cols], cfg)
        assert _is_leaf(tree).sum() == max_leaves
        assert len(searched) == 2 * max_leaves - 3


class TestSerialization:
    def test_json_round_trip_preserves_predictions(self, rng, tmp_path):
        X, y = _blobs(rng)
        cfg = gbt.TrainConfig(n_iterations=8, eta=0.2, max_leaves=5, min_samples_leaf=2)
        model = gbt.fit(X, y, cfg, feature_layout=(("a", 1), ("b", 1)), meta={"task": "t"})
        path = tmp_path / "model.json"
        gbt.save_model(model, path)
        loaded = gbt.load_model(path)
        np.testing.assert_array_equal(
            gbt.predict_label(loaded, X), gbt.predict_label(model, X)
        )
        np.testing.assert_allclose(
            gbt.predict_proba(loaded, X), gbt.predict_proba(model, X), rtol=1e-15
        )
        assert loaded.feature_layout == model.feature_layout
        assert loaded.meta == model.meta
        assert gbt.model_to_json(loaded) == gbt.model_to_json(model)

    def test_serialization_is_canonical(self, rng):
        X, y = _blobs(rng)
        model = gbt.fit(X, y, gbt.TrainConfig(n_iterations=2, min_samples_leaf=2))
        text = gbt.model_to_json(model)
        assert '"format_version":1' in text
        assert '"kind":"gbt-softmax"' in text
        assert "\n" not in text

    def test_wrong_kind_or_version_rejected(self):
        with pytest.raises(ModelIncompatible):
            gbt.model_from_json('{"kind":"other"}')
        with pytest.raises(ModelIncompatible):
            gbt.model_from_json('{"kind":"gbt-softmax","format_version":99}')
        with pytest.raises(ModelIncompatible):
            gbt.model_from_json("not json at all")

    def test_predict_rejects_wrong_width(self, rng):
        X, y = _blobs(rng)
        model = gbt.fit(X, y, gbt.TrainConfig(n_iterations=2, min_samples_leaf=2))
        with pytest.raises(FeatureCountMismatch):
            gbt.predict_proba(model, rng.standard_normal((4, 7)))


def _pinned_doc() -> dict:
    return json.loads(PINNED.read_text())


def _edited(edit):
    """Bytes of the pinned document after ``edit`` mutates its parsed form."""
    doc = _pinned_doc()
    edit(doc)
    return json.dumps(doc).encode()


def _root_without(key):
    return _edited(lambda d: d["trees"][0][0].pop(key))


def _root_feature(f):
    return _edited(lambda d: d["trees"][0][0].update(feature=f))


def _key_paths(node, prefix=()):
    """Every (key, ..., key) path into nested dicts and lists."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


_DROPPED = object()
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _load_or_coded_error(tmp_path_factory, data: bytes) -> None:
    path = tmp_path_factory.getbasetemp() / "fuzzed-model.json"
    path.write_bytes(data)
    try:
        gbt.load_model(path)
    except (ModelIncompatible, FileUnreadable):
        pass


MALFORMED = {
    "kind and version only": lambda: b'{"kind":"gbt-softmax","format_version":1}',
    "not utf-8": lambda: PINNED.read_bytes().replace(b"format-v1 pin", b"format-v1 \xe9 pin"),
    "unknown config key": lambda: _edited(lambda d: d["config"].update(colour="red")),
    "nested 100000 deep": lambda: b"[" * 100_000 + b"]" * 100_000,
    "internal node without feature": lambda: _root_without("feature"),
    "internal node without threshold": lambda: _root_without("threshold"),
    "internal node without left": lambda: _root_without("left"),
    "internal node without right": lambda: _root_without("right"),
    "feature past feature_count": lambda: _root_feature(5),
    "negative feature": lambda: _root_feature(-1),
    "trees row too short": lambda: _edited(lambda d: d["trees"][1].pop()),
    "base_score too long": lambda: _edited(lambda d: d["base_score"].append(0.0)),
    "no classes": lambda: _edited(
        lambda d: d.update(num_classes=0, base_score=[], trees=[[] for _ in d["trees"]])
    ),
    "infinite feature_count": lambda: _edited(lambda d: d.update(feature_count=float("inf"))),
    "meta not an object": lambda: _edited(lambda d: d.update(meta=[["task", "usability"]])),
    "epoch_len_s not a number": lambda: _edited(lambda d: d["meta"].update(epoch_len_s="ten")),
    "zero epoch_len_s": lambda: _edited(lambda d: d["meta"].update(epoch_len_s=0)),
    "epoch of no sample": lambda: _edited(lambda d: d["meta"].update(fs=256, epoch_len_s=1e-3)),
    "negative fs": lambda: _edited(lambda d: d["meta"].update(fs=-256.0)),
    "fs true": lambda: _edited(lambda d: d["meta"].update(fs=True)),
    "infinite fs": lambda: _edited(lambda d: d["meta"].update(fs=float("inf"))),
    "include_stats not a bool": lambda: _edited(lambda d: d["meta"].update(include_stats=1)),
    "binary not a bool": lambda: _edited(lambda d: d["meta"].update(binary="no")),
}


class TestMalformedModels:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_raises_model_incompatible(self, case, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(MALFORMED[case]())
        with pytest.raises(ModelIncompatible):
            gbt.load_model(path)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.binary(max_size=200)
        | st.builds(lambda n: PINNED.read_bytes()[:n], st.integers(0, 3100))
    )
    def test_any_bytes_raise_only_coded_errors(self, data, tmp_path_factory):
        _load_or_coded_error(tmp_path_factory, data)

    @settings(max_examples=200, deadline=None)
    @given(
        path=st.sampled_from(sorted(_key_paths(_pinned_doc()), key=repr)),
        new=st.just(_DROPPED) | _JSON,
    )
    def test_one_key_dropped_or_replaced_raises_only_coded_errors(
        self, path, new, tmp_path_factory
    ):
        doc = _pinned_doc()
        *parents, last = path
        holder = doc
        for key in parents:
            holder = holder[key]
        if new is _DROPPED:
            del holder[last]
        else:
            holder[last] = new
        _load_or_coded_error(tmp_path_factory, json.dumps(doc).encode())


def _walk(node: dict, x: np.ndarray) -> float:
    """Reference predict: follow one row down a tree of nested dicts."""
    while "value" not in node:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return node["value"]


def _splits(node: dict):
    if "value" not in node:
        yield node["feature"], node["threshold"]
        yield from _splits(node["left"])
        yield from _splits(node["right"])


class TestFormatV1:
    def test_pinned_file_rewrites_byte_for_byte(self):
        text = gbt.model_to_json(gbt.load_model(PINNED)) + "\n"
        assert text.encode() == PINNED.read_bytes()

    def test_predictions_equal_a_walk_over_the_raw_document(self, rng):
        doc = _pinned_doc()
        X = rng.standard_normal((60, doc["feature_count"])) * 2.0 + 2.0
        splits = [s for row in doc["trees"] for root in row for s in _splits(root)]
        for i, (f, thr) in enumerate(splits):  # rows on a threshold must go left
            X[i, f] = thr
        margins = np.tile(np.asarray(doc["base_score"]), (len(X), 1))
        for row in doc["trees"]:
            for cls, root in enumerate(row):
                margins[:, cls] += [_walk(root, x) for x in X]
        np.testing.assert_array_equal(
            gbt.predict_proba(gbt.load_model(PINNED), X), gbt.softmax(margins)
        )


def _pinned_fit_data():
    """150 rows of 3 classes; every other of the 140 columns repeats values."""
    rng = np.random.default_rng(2024)
    X = rng.standard_normal((150, 140))
    X[:, ::2] = np.round(X[:, ::2], 1)
    score = X[:, 0] + X[:, 1] - X[:, 3] + 0.5 * rng.standard_normal(150)
    return X, np.digitize(score, [-0.7, 0.7])


class TestPinnedFit:
    def test_data_covers_both_searches_and_several_blocks(self):
        X, y = _pinned_fit_data()
        tied = gbt._tied_columns(X, _sorted_rows(X, np.arange(X.shape[1])))
        assert tied[::2].all() and not tied[1::2].any()
        assert PINNED_FIT_CONFIG.feature_subsample * X.shape[1] > gbt._SPLIT_BLOCK
        assert np.bincount(y).min() >= 30

    def test_fit_reproduces_the_pinned_bytes(self, tmp_path):
        X, y = _pinned_fit_data()
        path = tmp_path / "model.json"
        gbt.save_model(gbt.fit(X, y, PINNED_FIT_CONFIG), path)
        assert path.read_bytes() == PINNED_FIT.read_bytes()


class TestRowIds:
    """Sort orders hold uint16 row ids up to 65,536 rows and int32 above."""

    @pytest.mark.parametrize("n, row_id", [(65_536, np.uint16), (65_537, np.int32)])
    def test_type_follows_the_row_count(self, rng, n, row_id):
        # two columns of few values, so nearly every row ties, and one without ties
        X = np.column_stack(
            [rng.integers(0, 3, n), rng.integers(0, 500, n), rng.permutation(n)]
        ).astype(np.float64)
        order_t, tied = gbt._sorted_columns(X)
        assert order_t.dtype == row_id
        assert tied.tolist() == [True, True, False]
        want = np.argsort(X, axis=0, kind="stable").T
        assert np.array_equal(order_t.astype(np.int64), want)

    def test_fit_above_the_uint16_rows_runs_and_predicts(self, rng):
        n = gbt._MAX_UINT16_ROWS + 1
        X = rng.standard_normal((n, 2))
        y = (X[:, 1] > 0.25).astype(np.int64)
        model = gbt.fit(X, y, gbt.TrainConfig(n_iterations=1, eta=0.5, max_leaves=2))
        assert [[int(t.feature[0]) for t in row] for row in model.trees] == [[1, 1]]
        assert (gbt.predict_label(model, X) == y).mean() > 0.99


def _mobility_data():
    """A short accelerometer sequence holding all four wearing states twice."""
    blocks = [(state, 6) for state in MobilityState] * 2
    axes, states = gen_mobility_sequence(blocks, 32.0, 10.0, seed=4)
    return TriAxialAcc(*axes), states


class _TreeFault(Exception):
    pass


class TestPackedForest:
    """predict_proba walks one joined forest with the per-tree formula's bits."""

    def test_pinned_fit_model(self, rng, per_tree_proba):
        model = gbt.load_model(PINNED_FIT)
        X, _ = _pinned_fit_data()
        X = np.concatenate([X, rng.standard_normal((50, X.shape[1]))])
        np.testing.assert_array_equal(gbt.predict_proba(model, X), per_tree_proba(model, X))

    def test_trees_of_unequal_depth(self, rng, per_tree_proba):
        leaf = {"value": 0.7}
        stump = {"feature": 1, "threshold": 0.25, "left": {"value": -0.5}, "right": {"value": 0.5}}
        # four levels, each split but the root's on the right
        chain = {
            "feature": 0, "threshold": 0.0, "left": {"value": -0.2}, "right": {
                "feature": 1, "threshold": 0.5, "left": {"value": 0.1}, "right": {
                    "feature": 2, "threshold": -0.3, "left": {"value": 0.9}, "right": {
                        "feature": 0, "threshold": 1.0,
                        "left": {"value": -0.6}, "right": {"value": 0.3},
                    },
                },
            },
        }
        model = _hand_built([[chain, leaf], [stump, chain], [leaf, stump]], [0.4, 0.6], 3)
        X = rng.standard_normal((200, 3))
        X[:4] = [[0.0, 0.5, -0.3], [1.0, 0.25, 0.0], [2.0, 0.6, -0.3], [0.5, 0.25, -0.2]]
        assert model.forest.depth == 4
        np.testing.assert_array_equal(gbt.predict_proba(model, X), per_tree_proba(model, X))

    def test_single_leaf_trees(self, rng, per_tree_proba):
        leaves = [{"value": v} for v in (0.3, -0.1, 0.05)]
        model = _hand_built([leaves, leaves[::-1]], [0.2, 0.3, 0.5], 4)
        X = rng.standard_normal((7, 4))
        assert model.forest.depth == 0
        np.testing.assert_array_equal(gbt.predict_proba(model, X), per_tree_proba(model, X))

    def test_nan_threshold_sends_rows_right(self, rng, per_tree_proba):
        # no X <= NaN, so the file format sends every row right of a NaN threshold
        stump = {
            "feature": 0, "threshold": math.nan, "left": {"value": -1.0}, "right": {"value": 1.0}
        }
        model = _hand_built([[stump, {"value": 0.0}]], [0.5, 0.5], 1)
        X = rng.standard_normal((9, 1))
        want = gbt.softmax(np.tile([1.0, 0.0] + np.log(0.5), (9, 1)))
        np.testing.assert_array_equal(gbt.predict_proba(model, X), want)
        np.testing.assert_array_equal(per_tree_proba(model, X), want)
        assert gbt.model_to_json(model).count('"threshold":NaN') == 1


def _hand_built(rows, priors, feature_count):
    """A model of nested-dict trees, read as the model file's reader reads them."""
    return gbt.Model(
        trees=[[gbt._tree_from_dict(tree, feature_count) for tree in row] for row in rows],
        base_score=np.log(priors),
        num_classes=len(priors),
        feature_count=feature_count,
        config=gbt.TrainConfig(),
    )


@st.composite
def _small_fits(draw):
    """A small fit at 2, 4 or 31 leaves; a leaf-size floor of n rows leaves every tree a leaf."""
    n = draw(st.integers(8, 40))
    width = draw(st.integers(1, 4))
    k = draw(st.integers(2, 4))
    X = np.array(draw(st.lists(st.integers(-20, 20), min_size=n * width, max_size=n * width)))
    y = np.arange(n) % k  # every class holds at least 2 rows
    cfg = gbt.TrainConfig(
        n_iterations=draw(st.integers(1, 3)),
        eta=0.5,
        max_leaves=draw(st.sampled_from([2, 4, 31])),
        min_samples_leaf=draw(st.integers(1, 3) | st.just(n)),
        seed=draw(st.integers(0, 3)),
    )
    return X.reshape(n, width) / 2.0, y, cfg


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(case=_small_fits())
    def test_save_load_save_keeps_bytes_and_predictions(self, case):
        X, y, cfg = case
        model = gbt.fit(X, y, cfg)
        text = gbt.model_to_json(model)
        loaded = gbt.model_from_json(text)
        assert gbt.model_to_json(loaded) == text
        for fitted, reread in zip(
            (t for row in model.trees for t in row), (t for row in loaded.trees for t in row)
        ):
            _assert_well_formed(reread, cfg.max_leaves, np.arange(X.shape[1]))
            assert reread.depth == fitted.depth
        Z = np.concatenate([X, X + 0.25])
        np.testing.assert_array_equal(gbt.predict_proba(loaded, Z), gbt.predict_proba(model, Z))


class TestCpuCount:
    """Trees grow on the kept CPU pool; how many CPUs it has changes no byte."""

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_pinned_fit_at_any_cpu_count(self, monkeypatch, tmp_path, cpus):
        monkeypatch.setattr(features, "available_cpus", lambda: cpus)
        X, y = _pinned_fit_data()
        path = tmp_path / "model.json"
        gbt.save_model(gbt.fit(X, y, PINNED_FIT_CONFIG), path)
        assert path.read_bytes() == PINNED_FIT.read_bytes()

    def test_binary_and_mobility_fits_at_one_and_three_cpus(self, rng, monkeypatch):
        X = rng.standard_normal((120, 150))
        X[:, ::3] = np.round(X[:, ::3], 1)
        y = (X[:, 0] - X[:, 5] + 0.5 * rng.standard_normal(120) > 0).astype(np.int64)
        cfg = gbt.TrainConfig(n_iterations=4, eta=0.3, max_leaves=6, min_samples_leaf=3, seed=7)
        acc, states = _mobility_data()
        mobility_cfg = gbt.TrainConfig(n_iterations=3, eta=0.3, min_samples_leaf=2, seed=1)
        docs = []
        for cpus in (1, 3):
            monkeypatch.setattr(features, "available_cpus", lambda cpus=cpus: cpus)
            binary = gbt.fit(X, y, cfg)
            mobility = fit_mobility(acc, states, 32.0, 10.0, config=mobility_cfg)
            assert (binary.num_classes, mobility.num_classes) == (2, 4)
            docs.append((gbt.model_to_json(binary), gbt.model_to_json(mobility)))
        assert docs[0] == docs[1]

    def test_error_while_a_tree_grows_reaches_the_caller(self, rng, monkeypatch):
        monkeypatch.setattr(features, "available_cpus", lambda: 3)
        X, y = _blobs(rng)
        grow = gbt._grow_tree
        calls = itertools.count()
        raised_on = []

        def failing_grow(*args):
            if next(calls) == 4:  # a tree of the second iteration
                raised_on.append(threading.current_thread().name)
                raise _TreeFault("tree growth failed")
            return grow(*args)

        monkeypatch.setattr(gbt, "_grow_tree", failing_grow)
        with pytest.raises(_TreeFault, match="tree growth failed"):
            gbt.fit(X, y, gbt.TrainConfig(n_iterations=3, eta=0.3, min_samples_leaf=2))
        assert raised_on[0].startswith("floss")

    def test_fit_in_a_pool_task_gives_the_same_model(self, rng, monkeypatch):
        # one worker: a fit that waited on the pool from its only thread
        # would wait for ever, so the timeout fails the test instead of hanging it
        monkeypatch.setattr(features, "available_cpus", lambda: 1)
        X, y = _blobs(rng)
        cfg = gbt.TrainConfig(n_iterations=3, eta=0.3, min_samples_leaf=2)
        future = features.cpu_pool().submit(gbt.fit, X, y, cfg)
        on_pool = gbt.model_to_json(future.result(timeout=60))
        assert on_pool == gbt.model_to_json(gbt.fit(X, y, cfg))


_SPLIT_VALUES = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1.0])
_TREES = st.recursive(
    st.builds(lambda v: {"value": v}, st.floats(-1.0, 1.0, allow_nan=False)),
    lambda below: st.builds(
        lambda f, t, left, right: {"feature": f, "threshold": t, "left": left, "right": right},
        st.integers(0, 2), _SPLIT_VALUES, below, below,
    ),
    max_leaves=10,
)


def _walk(node: dict, x: np.ndarray) -> float:
    while "value" not in node:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return node["value"]


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(1, 3),
    data=st.data(),
    X=st.lists(st.lists(_SPLIT_VALUES | st.floats(-2.0, 2.0, allow_nan=False), min_size=3,
                        max_size=3), min_size=1, max_size=20).map(np.array),
)
def test_depth_ordered_walk_equals_one_tree_at_a_time(k, data, X):
    """The joined forest steps only the trees still deeper than each level,
    deepest first, and gives each leaf value in iteration order."""
    rows = data.draw(st.lists(st.lists(_TREES, min_size=k, max_size=k), min_size=1, max_size=6))
    model = _hand_built(rows, [1.0 / k] * k, 3)
    want = np.array([[_walk(tree, x) for row in rows for tree in row] for x in X])
    np.testing.assert_array_equal(gbt._leaf_values(model.forest, X), want)
    order, live = model.forest.deepest_first
    depths = model.forest.depths[order]
    assert (np.diff(depths) <= 0).all()
    assert list(live) == [int((depths > level).sum()) for level in range(model.forest.depth)]
