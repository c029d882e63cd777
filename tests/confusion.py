"""Classification metrics of the acceptance tests, from one confusion matrix.

The paper reports eegUsability's macro-F1, Cohen's kappa and usable recall
on held-out participants.
"""
from __future__ import annotations

import numpy as np


class Confusion:
    """``counts[t, p]``: how many epochs of true class t were predicted p."""

    def __init__(self, y_true, y_pred, n_classes: int) -> None:
        self.counts = np.zeros((n_classes, n_classes), dtype=np.int64)
        np.add.at(self.counts, (np.asarray(y_true), np.asarray(y_pred)), 1)

    def recall(self, label: int) -> float:
        return float(self.counts[label, label] / self.counts[label].sum())

    def macro_f1(self) -> float:
        """The mean over classes of F1; a class never true nor predicted scores 0."""
        scores = []
        for c in range(len(self.counts)):
            tp = self.counts[c, c]
            precision = tp / self.counts[:, c].sum() if self.counts[:, c].sum() else 0.0
            recall = tp / self.counts[c].sum() if self.counts[c].sum() else 0.0
            scores.append(
                2 * precision * recall / (precision + recall) if precision + recall else 0.0
            )
        return float(np.mean(scores))

    def kappa(self) -> float:
        """Cohen's kappa: agreement beyond that of the two marginals by chance.

        When chance agreement is certain (every epoch true and predicted as
        one class), so is the observed one, and kappa is 1.
        """
        n = self.counts.sum()
        observed = np.trace(self.counts) / n
        expected = (self.counts.sum(axis=1) * self.counts.sum(axis=0)).sum() / n**2
        return 1.0 if expected == 1 else float((observed - expected) / (1 - expected))
