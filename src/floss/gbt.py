"""Multiclass gradient boosting over regression trees, written from scratch.

One tree per class per iteration fits the softmax cross-entropy gradients
with second-order leaf values.  Trees grow leaf-wise: the candidate leaf
with the highest split gain is expanded until the leaf budget or the
minimum leaf size binds.  Split search is exact over sorted feature values;
all randomness flows from one seeded generator, so a (seed, config) pair
reproduces the model bit for bit.  An iteration draws the column sets of
its K class trees first, in class order, then grows the trees on the kept
CPU pool (``features.cpu_pool``) and adds their margins in class order;
growth draws no random numbers, so the trees do not depend on the number of
CPUs.  ``fit`` refuses to run in a task on that pool.

The exact search is blocked and tie-aware, in the way of XGBoost's exact
greedy method (Chen & Guestrin, KDD 2016, section 4).  ``fit`` sorts each
column once, a block of columns per task on the pool, and notes which
columns repeat a value.  The sort orders hold row ids as uint16 when X has
at most 65,536 rows and as int32 above that, and every order derived from
them, down to a node's, keeps their type.  A node scores its features a
block at a time, over only the positions that leave both children
``min_samples_leaf`` rows, and reads X only in the repeating columns, to
forbid a split between equal values: in any other column the sorted values
strictly increase.  Every gain takes the operations of one whole-node
formula in the same order, so the trees do not depend on the block size.

A tree is a ``Forest`` of one: node arrays in which node i's children are
``children[2 * i]`` and ``children[2 * i + 1]`` and a leaf's children are
itself.  Growth writes these arrays directly, model JSON writes them as
nested dicts, and reading builds them back in preorder.  Prediction walks
every tree of a model joined into one forest, built once per model
(``Model.forest``).  Rows move down the trees one level at a time, and at
each level only through the trees still deeper than it: the forest keeps
its trees ordered deepest first, so those are a prefix.  The leaf values
go back in iteration order, and each row's margins add them in that
order, so the margins are those of one tree after another.  Fit walks
each new tree the same way, as the forest of one it is.
"""
from __future__ import annotations

import functools
import heapq
import json
import math
from concurrent.futures import Executor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateData,
    FeatureCountMismatch,
    ModelIncompatible,
    NonFiniteFeature,
)
from .features import cpu_pool, in_row_blocks, on_pool_thread
from .signal_io import open_input

FORMAT_VERSION = 1
PROB_CLIP = 1e-15
#: features the split search scores at a time; its cumsum and gain
#: temporaries then stay a few (_SPLIT_BLOCK, rows) arrays however wide X is
_SPLIT_BLOCK = 64
#: the most rows whose ids fit in uint16 (``_sorted_columns``)
_MAX_UINT16_ROWS = 1 << 16


@dataclass(frozen=True)
class TrainConfig:
    """Boosting hyperparameters; defaults match the shipped recipe."""

    n_iterations: int = 150
    eta: float = 0.01
    max_leaves: int = 31
    min_samples_leaf: int = 20
    reg_lambda: float = 1.0
    feature_subsample: float = 0.8
    data_subsample: float = 0.7
    data_resample_period: int = 10
    class_weights: tuple[float, ...] | None = None
    seed: int = 0


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def grad_hess(
    probs: np.ndarray, y: np.ndarray, class_weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample, per-class gradient p - onehot(y) and hessian p(1-p).

    A sample's class weight (by its true class) multiplies both.
    """
    probs = np.asarray(probs, dtype=np.float64)
    n, k = probs.shape
    g = probs.copy()
    g[np.arange(n), y] -= 1.0
    h = probs * (1.0 - probs)
    if class_weights is not None:
        w = np.asarray(class_weights, dtype=np.float64)[y][:, None]
        g = g * w
        h = h * w
    return g, h


def ce_loss(probs: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy with probabilities clipped away from 0 and 1."""
    p = np.clip(probs[np.arange(len(y)), y], PROB_CLIP, 1.0 - PROB_CLIP)
    return float(-np.mean(np.log(p)))


def _tied_columns(X: np.ndarray, order_t: np.ndarray) -> np.ndarray:
    """Per column of X, whether it holds a repeated value.

    ``order_t`` is X's stable argsort, transposed to one row per column.
    A column without a repeat is strictly increasing in any node's sorted
    order, so the split search compares X values only in tied columns.
    """
    tied = np.empty(X.shape[1], dtype=bool)
    for start in range(0, X.shape[1], _SPLIT_BLOCK):
        block = np.arange(start, min(start + _SPLIT_BLOCK, X.shape[1]))
        v = X[order_t[block], block[:, None]]
        tied[block] = (v[:, 1:] == v[:, :-1]).any(axis=1)
    return tied


def _sorted_columns(X: np.ndarray, pool: Executor) -> tuple[np.ndarray, np.ndarray]:
    """X's stable argsort, one row per column, and ``_tied_columns``.

    Row ids are uint16 when X has at most _MAX_UINT16_ROWS rows and int32
    above that: the same permutations, in half the memory for every order
    the fit derives from them.  Columns are sorted _SPLIT_BLOCK at a time
    on ``pool``; each block writes its own rows of the result, so the bits
    do not depend on the threads.
    """
    row_id = np.uint16 if X.shape[0] <= _MAX_UINT16_ROWS else np.int32
    order_t = np.empty((X.shape[1], X.shape[0]), dtype=row_id)
    tied = np.empty(X.shape[1], dtype=bool)

    def sort(start: int) -> None:
        block = slice(start, start + _SPLIT_BLOCK)
        order_t[block] = np.argsort(X[:, block], axis=0, kind="stable").T
        tied[block] = _tied_columns(X[:, block], order_t[block])

    # reading every result raises the first error of a block
    for _ in pool.map(sort, range(0, X.shape[1], _SPLIT_BLOCK)):
        pass
    return order_t, tied


def _best_split(
    S: np.ndarray,
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    cols: np.ndarray,
    tied: np.ndarray,
    reg_lambda: float,
    min_samples_leaf: int,
) -> tuple[float, int, int, float] | None:
    """Exact best split over a node.

    ``S`` holds the node's row ids sorted per candidate feature, one row
    per feature; ``tied[j]`` says whether column ``cols[j]`` of X holds a
    repeated value (``_tied_columns``).  Returns (gain, local feature index,
    split position, threshold) or None when no positive-gain split
    satisfies the leaf-size floor.  Ties resolve to the lowest feature
    index, then position.

    Features are scored _SPLIT_BLOCK at a time, and only the positions that
    leave both children ``min_samples_leaf`` rows: a split after sorted
    position i for ``lo <= i < hi``.  Every gain takes the same operations
    in the same order as one whole-node formula, so the result does not
    depend on the block size.
    """
    nf, n = S.shape
    m = max(min_samples_leaf, 1)
    if n < 2 * m:
        return None
    G = g[S[0]].sum()
    H = h[S[0]].sum()
    parent = (G * G) / (H + reg_lambda)
    lo, hi = m - 1, n - m

    # g and h as one complex array: one gather and one cumsum serve both,
    # and complex addition adds the parts exactly as two real sums would
    gh = np.empty(len(g), dtype=np.complex128)
    gh.real = g
    gh.imag = h
    best, best_j, best_i = -np.inf, 0, 0
    for start in range(0, nf, _SPLIT_BLOCK):
        # take gathers by uint16 or int32 row ids faster than gh[...] does
        left_sums = np.cumsum(np.take(gh, S[start : start + _SPLIT_BLOCK, :hi]), axis=1)
        GL = left_sums.real[:, lo:]
        HL = left_sums.imag[:, lo:]
        GR = G - GL
        HR = H - HL
        HL = HL + reg_lambda
        HR += reg_lambda
        gain = np.square(GL)
        gain /= HL
        np.square(GR, out=GR)
        GR /= HR
        gain += GR
        gain -= parent
        gain *= 0.5
        tb = np.flatnonzero(tied[start : start + _SPLIT_BLOCK])
        if tb.size:  # no split between equal values
            v = X[S[start + tb, lo : hi + 1], cols[start + tb, None]]
            masked = gain[tb]
            np.putmask(masked, v[:, 1:] <= v[:, :-1], -np.inf)
            gain[tb] = masked

        k = int(np.argmax(gain))
        top = gain.flat[k]
        if top != top:  # NaN: an argmax over the whole node would pick it and find no split
            return None
        if top > best:
            best = float(top)
            best_j, best_i = start + k // gain.shape[1], lo + k % gain.shape[1]

    if not best > 0.0:
        return None
    left = X[S[best_j, best_i], cols[best_j]]
    right = X[S[best_j, best_i + 1], cols[best_j]]
    thr = 0.5 * (left + right)
    if thr >= right:  # midpoint rounded up to the right value
        thr = left
    return best, best_j, best_i, float(thr)


def _leaf_value(S: np.ndarray, g: np.ndarray, h: np.ndarray, cfg: TrainConfig) -> float:
    rows = S[0]
    G = g[rows].sum()
    H = h[rows].sum()
    return float(-cfg.eta * G / (H + cfg.reg_lambda))


@dataclass
class Forest:
    """Regression trees as one set of node arrays; a tree is a forest of one.

    Tree t's root is node ``roots[t]``.  Node i's children are nodes
    ``children[2 * i]`` (X <= threshold) and ``children[2 * i + 1]``
    (X > threshold); a leaf has feature 0 and both children itself, so a
    row that reaches it stays there however many levels remain.  Tree t's
    depth, ``depths[t]``, is the level of its deepest leaf, a root's level
    being 0.
    """

    feature: np.ndarray
    threshold: np.ndarray
    children: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    depths: np.ndarray

    def __post_init__(self) -> None:
        self.feature = np.asarray(self.feature, dtype=np.intp)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.children = np.asarray(self.children, dtype=np.intp)
        self.value = np.asarray(self.value, dtype=np.float64)
        self.roots = np.asarray(self.roots, dtype=np.intp)
        self.depths = np.asarray(self.depths, dtype=np.intp)

    @property
    def depth(self) -> int:
        """The deepest tree's depth; 0 for a forest without trees."""
        return int(self.depths.max(initial=0))

    @functools.cached_property
    def deepest_first(self) -> tuple[np.ndarray, np.ndarray]:
        """The trees ordered by depth, deepest first (ties in iteration
        order), and how many of them are deeper than each level."""
        order = np.argsort(-self.depths, kind="stable")
        live = (self.depths[:, None] > np.arange(self.depth)).sum(axis=0)
        return order, live

    @classmethod
    def join(cls, forests: list["Forest"]) -> "Forest":
        """The trees of ``forests``, in order, as one forest.

        A NaN threshold becomes -inf: no X <= NaN, so the file format sends
        every row right of it, and X > -inf does so for every finite X.
        """
        sizes = np.array([len(f.feature) for f in forests], dtype=np.intp)
        starts = np.cumsum(sizes) - sizes
        n_roots = np.array([len(f.roots) for f in forests], dtype=np.intp)

        def joined(name: str) -> np.ndarray:
            return np.concatenate([getattr(f, name) for f in forests] or [np.empty(0)])

        threshold = joined("threshold")
        threshold[np.isnan(threshold)] = -np.inf
        return cls(
            feature=joined("feature"),
            threshold=threshold,
            children=joined("children").astype(np.intp) + np.repeat(starts, 2 * sizes),
            value=joined("value"),
            roots=joined("roots").astype(np.intp) + np.repeat(starts, n_roots),
            depths=joined("depths"),
        )


def _grow_tree(
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    S_root: np.ndarray,
    cols: np.ndarray,
    tied: np.ndarray,
    cfg: TrainConfig,
) -> Forest:
    """Leaf-wise growth: always expand the pending leaf with the best gain."""
    # a new node is a leaf, its children itself, until it splits
    feature, threshold, children, value, level = [0], [0.0], [0, 0], [0.0], [0]
    # entries carry the node index, which breaks gain ties in creation order
    heap: list[tuple[float, int, np.ndarray, tuple[float, int, int, float]]] = []

    def settle(node: int, S: np.ndarray) -> None:  # queue the best split or make a leaf
        # once the leaves fill the budget no node splits, so none is searched
        cand = None
        if n_leaves < cfg.max_leaves:
            cand = _best_split(S, X, g, h, cols, tied, cfg.reg_lambda, cfg.min_samples_leaf)
        if cand is None:
            value[node] = _leaf_value(S, g, h, cfg)
        else:
            heapq.heappush(heap, (-cand[0], node, S, cand))

    n_leaves = 1
    settle(0, S_root)
    while heap and n_leaves < cfg.max_leaves:
        _, node, S, (gain, j, i, thr) = heapq.heappop(heap)
        left, right = len(feature), len(feature) + 1
        feature[node] = int(cols[j])
        threshold[node] = thr
        children[2 * node : 2 * node + 2] = left, right
        feature += [0, 0]
        threshold += [0.0, 0.0]
        children += [left, left, right, right]
        value += [0.0, 0.0]
        level += [level[node] + 1] * 2
        n_leaves += 1

        member_left = np.zeros(X.shape[0], dtype=bool)
        member_left[S[j, : i + 1]] = True
        # flat compress keeps each feature's order and beats 2-D boolean indexing
        mask = np.take(member_left, S).ravel()
        settle(left, np.compress(mask, S).reshape(S.shape[0], i + 1))
        settle(right, np.compress(~mask, S).reshape(S.shape[0], S.shape[1] - i - 1))

    for _, node, S, _ in heap:  # leaves cut off by the budget
        value[node] = _leaf_value(S, g, h, cfg)
    return Forest(feature, threshold, children, value, [0], [max(level)])


def _grown(
    X: np.ndarray,
    order_t: np.ndarray,
    tied: np.ndarray,
    cfg: TrainConfig,
    cols: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
) -> tuple[Forest, np.ndarray]:
    """One class's tree, grown on columns ``cols``, and its value at every row of X."""
    tree = _grow_tree(X, g, h, order_t[cols], cols, tied[cols], cfg)
    return tree, _leaf_values(tree, X)[:, 0]


def _leaf_values(forest: Forest, X: np.ndarray) -> np.ndarray:
    """(rows, trees): the value of the leaf each row of X reaches in each tree.

    Every row moves down the trees one level at a time, at each level only
    through the trees deeper than it; in the others it has reached its leaf.
    """
    n, n_features = X.shape
    order, live = forest.deepest_first
    node = np.tile(forest.roots[order], (n, 1))
    row_start = np.arange(0, n * n_features, n_features)[:, None]
    for trees in live:
        at = node[:, :trees]
        x = X.take(row_start + forest.feature.take(at))
        node[:, :trees] = forest.children.take(2 * at + (x > forest.threshold.take(at)))
    values = np.empty(node.shape)
    values[:, order] = forest.value.take(node)
    return values


@dataclass
class Model:
    """A fitted booster: trees[iteration][class] plus the log-prior offset."""

    trees: list[list[Forest]]
    base_score: np.ndarray
    num_classes: int
    feature_count: int
    config: TrainConfig
    feature_layout: tuple[tuple[str, int], ...] | None = None
    meta: dict = field(default_factory=dict)
    train_loss: list[float] = field(default_factory=list)

    @functools.cached_property
    def forest(self) -> Forest:
        """Every tree, iteration by iteration and class by class, joined once."""
        return Forest.join([tree for row in self.trees for tree in row])


def _validate_matrix(X: np.ndarray) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DegenerateData(f"feature matrix must be 2-D, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise NonFiniteFeature("feature matrix contains non-finite values")
    return X


def fit(
    X: np.ndarray,
    y: np.ndarray,
    config: TrainConfig = TrainConfig(),
    feature_layout: tuple[tuple[str, int], ...] | None = None,
    meta: dict | None = None,
) -> Model:
    """Fit the booster on labels 0..K-1.

    Row subsampling redraws every ``data_resample_period`` iterations;
    feature subsampling redraws per tree.  Trees are fit on the subsample
    but update the margins of every row.  Raises RuntimeError on a thread
    of the kept CPU pool, which fit waits on.
    """
    if on_pool_thread():
        raise RuntimeError("gbt.fit cannot run in a task on the kept CPU pool: it waits on that pool")
    X = _validate_matrix(X)
    y = np.asarray(y, dtype=np.int64)
    if len(y) != X.shape[0]:
        raise DegenerateData(f"{X.shape[0]} rows vs {len(y)} labels")
    if y.size == 0 or y.min() < 0:
        raise DegenerateData("labels must be non-negative and non-empty")
    n, n_features = X.shape
    k = int(y.max()) + 1
    if k < 2:
        raise DegenerateData("training data holds a single class")
    counts = np.bincount(y, minlength=k)
    if (counts < 2).any():
        lacking = [int(c) for c in np.flatnonzero(counts < 2)]
        raise DegenerateData(f"classes {lacking} have fewer than 2 training samples")

    weights = None
    if config.class_weights is not None:
        weights = np.asarray(config.class_weights, dtype=np.float64)
        if weights.shape != (k,):
            raise DegenerateData(f"class_weights must have {k} entries")

    rng = np.random.default_rng(config.seed)
    pool = cpu_pool()
    order_t, tied = _sorted_columns(X, pool)  # (F, N)

    base = np.log(counts / n)
    margins = np.tile(base, (n, 1))
    n_rows_sub = max(2, int(np.ceil(config.data_subsample * n)))
    n_cols_sub = max(1, int(np.ceil(config.feature_subsample * n_features)))

    order_sub_t = order_t
    trees: list[list[Forest]] = []
    train_loss: list[float] = []
    for t in range(config.n_iterations):
        if config.data_subsample < 1.0 and t % config.data_resample_period == 0:
            rows = rng.choice(n, size=n_rows_sub, replace=False)
            member = np.zeros(n, dtype=bool)
            member[rows] = True
            order_sub_t = order_t[member[order_t]].reshape(n_features, n_rows_sub)

        probs = softmax(margins)
        g, h = grad_hess(probs, y, weights)
        if config.feature_subsample < 1.0:
            col_sets = [
                np.sort(rng.choice(n_features, size=n_cols_sub, replace=False)) for _ in range(k)
            ]
        else:
            col_sets = [np.arange(n_features)] * k
        grow = functools.partial(_grown, X, order_sub_t, tied, config)
        row: list[Forest] = []
        for cls, (tree, update) in enumerate(pool.map(grow, col_sets, g.T, h.T)):
            margins[:, cls] += update
            row.append(tree)
        trees.append(row)
        train_loss.append(ce_loss(softmax(margins), y))

    return Model(
        trees=trees,
        base_score=base,
        num_classes=k,
        feature_count=n_features,
        config=config,
        feature_layout=feature_layout,
        meta=dict(meta or {}),
        train_loss=train_loss,
    )


def predict_proba(model: Model, X: np.ndarray) -> np.ndarray:
    """Class probabilities, rows summing to 1.

    Rows go through the joined forest a block at a time on the kept CPU
    pool; each row's margin adds its trees' values in iteration order.
    """
    X = _validate_matrix(X)
    if X.shape[1] != model.feature_count:
        raise FeatureCountMismatch(
            f"model expects {model.feature_count} features, got {X.shape[1]}"
        )
    forest, k = model.forest, model.num_classes

    def kernel(rows: np.ndarray) -> np.ndarray:
        values = _leaf_values(forest, rows)
        margins = np.tile(model.base_score, (rows.shape[0], 1))
        for start in range(0, values.shape[1], k):
            margins += values[:, start : start + k]
        return softmax(margins)

    return in_row_blocks(kernel, [X], X.shape[:1], (k,))


def predict_label(model: Model, X: np.ndarray) -> np.ndarray:
    """Most probable class per row; ties take the smallest class index."""
    return np.argmax(predict_proba(model, X), axis=1)


def _tree_to_dict(tree: Forest, node: int = 0) -> dict:
    """The subtree under ``node`` as the nested dicts of the JSON format."""
    left, right = tree.children[2 * node], tree.children[2 * node + 1]
    if left == node:
        return {"value": float(tree.value[node])}
    return {
        "feature": int(tree.feature[node]),
        "threshold": float(tree.threshold[node]),
        "left": _tree_to_dict(tree, left),
        "right": _tree_to_dict(tree, right),
    }


def _tree_from_dict(root: dict, feature_count: int) -> Forest:
    """Nested dicts to a tree's node arrays in preorder; a split's feature must be in range."""
    feature, threshold, children, value, depth = [], [], [], [], 0
    # (subtree, the slot of children that names its root, its root's level);
    # the root names itself, as a leaf does
    pending = [(root, 0, 0)]
    while pending:
        d, slot, level = pending.pop()
        node = len(feature)
        children += (node, node)
        children[slot] = node
        if "value" in d:
            feature.append(0)
            threshold.append(0.0)
            value.append(float(d["value"]))
            if level > depth:
                depth = level
            continue
        f = int(d["feature"])
        if not 0 <= f < feature_count:
            raise ModelIncompatible(f"split on feature {f} of {feature_count}")
        feature.append(f)
        threshold.append(float(d["threshold"]))
        value.append(0.0)
        pending.append((d["right"], 2 * node + 1, level + 1))
        pending.append((d["left"], 2 * node, level + 1))
    return Forest(feature, threshold, children, value, [0], [depth])


def model_to_json(model: Model) -> str:
    """Serialize deterministically: sorted keys, no whitespace drift."""
    cfg = asdict(model.config)
    if cfg["class_weights"] is not None:
        cfg["class_weights"] = [float(w) for w in cfg["class_weights"]]
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "gbt-softmax",
        "num_classes": model.num_classes,
        "feature_count": model.feature_count,
        "base_score": [float(b) for b in model.base_score],
        "config": cfg,
        "feature_layout": None
        if model.feature_layout is None
        else [[name, int(width)] for name, width in model.feature_layout],
        "meta": model.meta,
        "train_loss": [float(v) for v in model.train_loss],
        "trees": [[_tree_to_dict(t) for t in row] for row in model.trees],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _checked_meta(meta: object) -> dict:
    """The meta object, after checking the values the pipeline reads from it."""
    if not isinstance(meta, dict):
        raise ModelIncompatible("meta must be an object")
    for key in ("fs", "epoch_len_s"):
        # an absent value passes here; input_epoch_len refuses it where it is read
        v = meta.get(key, 1.0)
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 < v < math.inf:
            raise ModelIncompatible(f"meta.{key} must be a finite positive number, got {v!r}")
    if "fs" in meta and "epoch_len_s" in meta and round(meta["fs"] * meta["epoch_len_s"]) < 1:
        raise ModelIncompatible("an epoch of meta.epoch_len_s at meta.fs holds no sample")
    for key in ("include_stats", "binary"):
        if not isinstance(meta.get(key, False), bool):
            raise ModelIncompatible(f"meta.{key} must be true or false, got {meta[key]!r}")
    return dict(meta)


def input_epoch_len(model: Model, task: str, fs: float) -> float:
    """The epoch length in seconds of the input a ``task`` model reads at ``fs`` Hz.

    Raises ModelIncompatible when the model was fit for another task, at
    another rate, or names no epoch length.
    """
    meta = model.meta
    if meta.get("task") != task:
        raise ModelIncompatible(f"model task {meta.get('task')!r} is not {task}")
    if meta.get("fs") != fs:
        raise ModelIncompatible(f"model was fit at {meta.get('fs')} Hz, data is {fs} Hz")
    if "epoch_len_s" not in meta:
        raise ModelIncompatible("model meta names no epoch_len_s")
    return float(meta["epoch_len_s"])


def check_layout(model: Model, layout: tuple[tuple[str, int], ...]) -> None:
    """Refuse features laid out otherwise than the ones the model was fit on."""
    if model.feature_layout is not None and tuple(layout) != tuple(model.feature_layout):
        raise ModelIncompatible(
            f"feature layout {layout} does not match the model's {model.feature_layout}"
        )


def model_from_json(text: str | bytes) -> Model:
    """Parse a model document; any fault in it raises ModelIncompatible."""
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict) or doc.get("kind") != "gbt-softmax":
            raise ModelIncompatible("not a gbt-softmax model file")
        if doc.get("format_version") != FORMAT_VERSION:
            raise ModelIncompatible(
                f"model format {doc.get('format_version')} unsupported (expected {FORMAT_VERSION})"
            )
        num_classes = int(doc["num_classes"])
        feature_count = int(doc["feature_count"])
        base_score = np.asarray(doc["base_score"], dtype=np.float64)
        if num_classes < 2 or base_score.shape != (num_classes,):
            raise ModelIncompatible("base_score must hold num_classes >= 2 entries")
        trees = [[_tree_from_dict(t, feature_count) for t in row] for row in doc["trees"]]
        if any(len(row) != num_classes for row in trees):
            raise ModelIncompatible(f"every row of trees must hold {num_classes} trees")
        cfg_dict = dict(doc["config"])
        if cfg_dict.get("class_weights") is not None:
            cfg_dict["class_weights"] = tuple(cfg_dict["class_weights"])
        layout = doc.get("feature_layout")
        return Model(
            trees=trees,
            base_score=base_score,
            num_classes=num_classes,
            feature_count=feature_count,
            config=TrainConfig(**cfg_dict),
            feature_layout=None if layout is None else tuple((n, int(w)) for n, w in layout),
            meta=_checked_meta(doc.get("meta", {})),
            train_loss=[float(v) for v in doc.get("train_loss", [])],
        )
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise ModelIncompatible(f"malformed model file: {type(exc).__name__}: {exc}") from exc


def save_model(model: Model, path: str | Path) -> None:
    Path(path).write_text(model_to_json(model) + "\n")


def load_model(path: str | Path) -> Model:
    with open_input(path, "rb") as handle:
        return model_from_json(handle.read())
