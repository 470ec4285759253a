"""GBDT baseline — gradient boosting from scratch (Friedman, 2001).

The paper's GBDT baseline is "a scalable tree-based model for recommending
and ranking tasks, which is generally used in industry".  No boosting
library is available offline, so this module implements binary-logistic
gradient boosting with exact greedy regression trees on numpy.

Two boosters are trained — one for the origin label, one for the
destination label — over hand-crafted features (the industry-standard
recipe): the temporal statistics x_st, candidate popularity, history match
counts, current-city match, and candidate-to-current distance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.base import Ranker
from ..data.dataset import ODBatch, ODDataset
from ..tensor.functional import sigmoid

__all__ = ["GBDTRanker", "GradientBoostingClassifier", "RegressionTree"]


# ---------------------------------------------------------------------------
# Regression trees
# ---------------------------------------------------------------------------

@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class RegressionTree:
    """Exact greedy CART regression tree on gradient/hessian statistics.

    Leaf values are the Newton step ``-sum(g) / (sum(h) + lambda)`` as in
    modern boosting implementations.
    """

    def __init__(
        self,
        max_depth: int = 3,
        min_samples_leaf: int = 10,
        reg_lambda: float = 1.0,
        min_gain: float = 1e-6,
    ):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda
        self.min_gain = min_gain
        self._root: _Node | None = None

    def fit(self, features: np.ndarray, grad: np.ndarray, hess: np.ndarray) -> None:
        self._root = self._build(features, grad, hess, depth=0)

    def _leaf_value(self, grad: np.ndarray, hess: np.ndarray) -> float:
        return float(-grad.sum() / (hess.sum() + self.reg_lambda))

    def _build(
        self, features: np.ndarray, grad: np.ndarray, hess: np.ndarray, depth: int
    ) -> _Node:
        node = _Node(value=self._leaf_value(grad, hess))
        if depth >= self.max_depth or len(grad) < 2 * self.min_samples_leaf:
            return node
        best = self._best_split(features, grad, hess)
        if best is None:
            return node
        feature, threshold, gain = best
        if gain < self.min_gain:
            return node
        mask = features[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(features[mask], grad[mask], hess[mask], depth + 1)
        node.right = self._build(features[~mask], grad[~mask], hess[~mask], depth + 1)
        return node

    def _best_split(
        self, features: np.ndarray, grad: np.ndarray, hess: np.ndarray
    ) -> tuple[int, float, float] | None:
        n, num_features = features.shape
        g_total, h_total = grad.sum(), hess.sum()
        parent_score = g_total ** 2 / (h_total + self.reg_lambda)
        best: tuple[int, float, float] | None = None
        for feature in range(num_features):
            order = np.argsort(features[:, feature], kind="mergesort")
            values = features[order, feature]
            g_cum = np.cumsum(grad[order])
            h_cum = np.cumsum(hess[order])
            # Valid split positions: between distinct values, leaf sizes ok.
            idx = np.arange(self.min_samples_leaf - 1, n - self.min_samples_leaf)
            if idx.size == 0:
                continue
            distinct = values[idx] < values[idx + 1]
            idx = idx[distinct]
            if idx.size == 0:
                continue
            g_left, h_left = g_cum[idx], h_cum[idx]
            g_right, h_right = g_total - g_left, h_total - h_left
            gains = (
                g_left ** 2 / (h_left + self.reg_lambda)
                + g_right ** 2 / (h_right + self.reg_lambda)
                - parent_score
            )
            pos = int(np.argmax(gains))
            gain = float(gains[pos])
            if best is None or gain > best[2]:
                threshold = float(
                    (values[idx[pos]] + values[idx[pos] + 1]) / 2.0
                )
                best = (feature, threshold, gain)
        return best

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("tree not fitted")
        out = np.empty(len(features))
        # Iterative traversal over index partitions (vectorised per node).
        stack = [(self._root, np.arange(len(features)))]
        while stack:
            node, idx = stack.pop()
            if node.is_leaf:
                out[idx] = node.value
                continue
            mask = features[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
        return out


class GradientBoostingClassifier:
    """Binary logistic boosting: f_{m+1} = f_m + lr * tree_m(g, h)."""

    def __init__(
        self,
        n_trees: int = 50,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 10,
        subsample: float = 0.8,
        reg_lambda: float = 1.0,
        seed: int = 0,
    ):
        self.n_trees = n_trees
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.reg_lambda = reg_lambda
        self.seed = seed
        self._trees: list[RegressionTree] = []
        self._base_score = 0.0

    def fit(self, features: np.ndarray, labels: np.ndarray) -> None:
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        rng = np.random.default_rng(self.seed)
        positive_rate = np.clip(labels.mean(), 1e-6, 1 - 1e-6)
        self._base_score = float(np.log(positive_rate / (1 - positive_rate)))
        raw = np.full(len(labels), self._base_score)
        self._trees = []
        for _ in range(self.n_trees):
            prob = sigmoid(raw)
            grad = prob - labels
            hess = prob * (1.0 - prob)
            if self.subsample < 1.0:
                pick = rng.random(len(labels)) < self.subsample
                if pick.sum() < 4 * self.min_samples_leaf:
                    pick = np.ones(len(labels), dtype=bool)
            else:
                pick = np.ones(len(labels), dtype=bool)
            tree = RegressionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                reg_lambda=self.reg_lambda,
            )
            tree.fit(features[pick], grad[pick], hess[pick])
            raw += self.learning_rate * tree.predict(features)
            self._trees.append(tree)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        raw = np.full(len(features), self._base_score)
        for tree in self._trees:
            raw += self.learning_rate * tree.predict(features)
        return sigmoid(raw)


# ---------------------------------------------------------------------------
# The ranker
# ---------------------------------------------------------------------------

class GBDTRanker(Ranker):
    """Feature-engineered boosting baseline for both OD tasks."""

    name = "GBDT"

    def __init__(self, n_trees: int = 50, max_depth: int = 3, seed: int = 0):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.seed = seed
        self._model_o: GradientBoostingClassifier | None = None
        self._model_d: GradientBoostingClassifier | None = None
        self._distance_km: np.ndarray | None = None
        self._popularity: np.ndarray | None = None
        self._od_mode = True

    # ------------------------------------------------------------------
    def _features(self, batch: ODBatch, side: str) -> np.ndarray:
        """Hand-crafted candidate features (the industrial GBDT recipe).

        Note: the temporal-statistics vector x_st is *not* included — it is
        part of ODNET's design (Section IV-B), not of the generic GBDT
        baseline; GBDT gets the standard count/popularity/distance recipe.
        """
        if side == "o":
            candidate = batch.candidate_origin
            long_seq, short_seq = batch.long_origins, batch.short_origins
        else:
            candidate = batch.candidate_destination
            long_seq, short_seq = batch.long_destinations, batch.short_destinations

        cand_col = candidate[:, None]
        long_matches = ((long_seq == cand_col) & batch.long_mask).sum(axis=1)
        short_matches = ((short_seq == cand_col) & batch.short_mask).sum(axis=1)
        is_current = (candidate == batch.current_city).astype(np.float64)
        distance = self._distance_km[batch.current_city, candidate]
        popularity = self._popularity[candidate]
        last_long = long_seq[np.arange(len(candidate)),
                             np.maximum(batch.long_mask.sum(axis=1) - 1, 0)]
        is_last = (candidate == last_long).astype(np.float64)
        return np.column_stack(
            [
                np.log1p(long_matches),
                np.log1p(short_matches),
                is_current,
                is_last,
                np.log1p(distance),
                popularity,
            ]
        )

    def _collect(self, dataset: ODDataset) -> tuple[np.ndarray, ...]:
        feats_o, feats_d, labels_o, labels_d = [], [], [], []
        for batch in dataset.iter_batches("train", batch_size=1024, shuffle=False):
            feats_o.append(self._features(batch, "o"))
            feats_d.append(self._features(batch, "d"))
            labels_o.append(batch.label_o)
            labels_d.append(batch.label_d)
        return (
            np.concatenate(feats_o),
            np.concatenate(feats_d),
            np.concatenate(labels_o),
            np.concatenate(labels_d),
        )

    def fit(self, dataset: ODDataset, config=None) -> float:
        start = time.perf_counter()
        self._distance_km = dataset.distance_km
        self._popularity = dataset.popularity
        self._od_mode = dataset.od_mode
        feats_o, feats_d, labels_o, labels_d = self._collect(dataset)
        self._model_d = GradientBoostingClassifier(
            n_trees=self.n_trees, max_depth=self.max_depth, seed=self.seed
        )
        self._model_d.fit(feats_d, labels_d)
        if self._od_mode:
            self._model_o = GradientBoostingClassifier(
                n_trees=self.n_trees, max_depth=self.max_depth, seed=self.seed + 1
            )
            self._model_o.fit(feats_o, labels_o)
        return time.perf_counter() - start

    def predict(self, batch: ODBatch) -> tuple[np.ndarray, np.ndarray]:
        if self._model_d is None:
            raise RuntimeError("GBDTRanker.predict called before fit")
        p_d = self._model_d.predict_proba(self._features(batch, "d"))
        if self._model_o is None:
            return p_d, p_d
        p_o = self._model_o.predict_proba(self._features(batch, "o"))
        return p_o, p_d

    def score_pairs(self, batch: ODBatch) -> np.ndarray:
        p_o, p_d = self.predict(batch)
        if not self._od_mode:
            return p_d
        return 0.5 * p_o + 0.5 * p_d
