"""The acceptance tests' confusion-matrix metrics, against hand and brute force."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confusion import Confusion


def _pairs(counts) -> tuple[np.ndarray, np.ndarray]:
    """(y_true, y_pred) holding counts[t][p] pairs of each (t, p)."""
    pairs = [(t, p) for t, row in enumerate(counts) for p, n in enumerate(row) for _ in range(n)]
    return np.array([t for t, _ in pairs]), np.array([p for _, p in pairs])


def test_hand_worked_matrix():
    # 50 epochs, 35 agreed: observed 0.7; the marginals (25, 25) and (30, 20)
    # agree by chance (25 * 30 + 25 * 20) / 50**2 = 0.5, so kappa is 0.4.
    # F1: class 0 has precision 20/30 and recall 20/25, so 8/11; class 1 has
    # 15/20 and 15/25, so 2/3; their mean is 23/33.
    m = Confusion(*_pairs([[20, 5], [10, 15]]), n_classes=2)
    np.testing.assert_array_equal(m.counts, [[20, 5], [10, 15]])
    assert m.kappa() == pytest.approx(0.4, abs=1e-15)
    assert m.macro_f1() == pytest.approx(23 / 33, abs=1e-15)
    assert (m.recall(0), m.recall(1)) == (0.8, 0.6)


@pytest.mark.parametrize(
    "counts, kappa",
    [
        ([[5, 0, 0], [0, 3, 0], [0, 0, 2]], 1.0),  # perfect agreement
        ([[4, 0], [0, 0]], 1.0),  # one class on both sides
        ([[1, 1], [1, 1]], 0.0),  # agreement at chance
        ([[0, 3], [3, 0]], -1.0),  # always wrong on a balanced pair
    ],
)
def test_kappa_edges(counts, kappa):
    assert Confusion(*_pairs(counts), n_classes=len(counts)).kappa() == kappa


def _brute(pairs: list[tuple[int, int]], k: int) -> tuple[float, float]:
    """Kappa and macro-F1 from the pairs, counted one pair at a time."""
    n = len(pairs)
    observed = sum(t == p for t, p in pairs) / n
    expected = sum(
        sum(t == c for t, _ in pairs) / n * (sum(p == c for _, p in pairs) / n) for c in range(k)
    )
    kappa = 1.0 if expected == 1 else (observed - expected) / (1 - expected)
    f1 = []
    for c in range(k):
        tp = sum(t == c and p == c for t, p in pairs)
        fp = sum(t != c and p == c for t, p in pairs)
        fn = sum(t == c and p != c for t, p in pairs)
        f1.append(2 * tp / (2 * tp + fp + fn) if tp else 0.0)
    return kappa, sum(f1) / k


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(2, 5),
    raw=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=60),
)
def test_against_brute_force(k, raw):
    pairs = [(t % k, p % k) for t, p in raw]
    m = Confusion([t for t, _ in pairs], [p for _, p in pairs], n_classes=k)
    kappa, f1 = _brute(pairs, k)
    assert m.kappa() == pytest.approx(kappa, rel=1e-12, abs=1e-12)
    assert m.macro_f1() == pytest.approx(f1, rel=1e-12, abs=1e-12)
    for c in range(k):
        true_c = [p for t, p in pairs if t == c]
        if true_c:
            assert m.recall(c) == sum(p == c for p in true_c) / len(true_c)
