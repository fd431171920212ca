"""Multiclass gradient-boosted trees (XGBoost stand-in).

The paper's attribute-inference attack trains XGBoost with default parameters
on the RS+FD output tuples.  This module provides a compact, dependency-free
reimplementation of the relevant functionality: gradient boosting with a
softmax objective, one regression tree per class per round, second-order
gradients and shrinkage.  It is deliberately small but captures the signal
the attack exploits (systematic differences between the LDP report and the
fake data), which is what matters for reproducing the paper's orderings.

Hot-path layout: every round's ``n_classes`` trees are grown as one stacked
forest by :func:`repro.ml.tree.grow_forest` (one histogram pass over the
feature matrix per tree level for the whole round), the feature matrix is
converted to float64 exactly once per fit, and prediction walks each
round's trees together (:func:`repro.ml.tree.forest_values`), adding
``learning_rate * value`` into one score buffer round by round.
"""

from __future__ import annotations

import numpy as np

from ..core.rng import RngLike, ensure_rng
from ..exceptions import InvalidParameterError, NotFittedError
from .tree import BinaryFeatureRegressionTree, feature_bits, forest_values, grow_forest
from .validation import validate_feature_matrix, validate_labels


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with the usual max-shift for numerical stability."""
    scores = np.asarray(scores, dtype=float)
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class GradientBoostingClassifier:
    """Multiclass gradient boosting on binary features.

    Parameters
    ----------
    n_estimators:
        Number of boosting rounds.
    learning_rate:
        Shrinkage applied to each tree's output.
    max_depth, min_samples_leaf, reg_lambda:
        Passed to the base :class:`~repro.ml.tree.BinaryFeatureRegressionTree`.
    subsample:
        Fraction of rows sampled (without replacement) per round; 1.0 uses
        all rows.
    rng:
        Seed or generator controlling row subsampling.
    tree_class:
        Base-learner class; defaults to the level-wise
        :class:`~repro.ml.tree.BinaryFeatureRegressionTree` (trained via the
        stacked :func:`~repro.ml.tree.grow_forest` fast path).  Any class
        with the same constructor, ``fit`` and flat breadth-first
        ``structure()`` — e.g. the recursive reference tree in
        :mod:`repro.ml.tree_reference` — can be substituted for parity
        testing and benchmarking; non-default classes are fitted one tree at
        a time.
    """

    def __init__(
        self,
        n_estimators: int = 30,
        learning_rate: float = 0.3,
        max_depth: int = 4,
        min_samples_leaf: int = 10,
        reg_lambda: float = 1.0,
        subsample: float = 1.0,
        rng: RngLike = None,
        tree_class: type | None = None,
    ) -> None:
        if n_estimators < 1:
            raise InvalidParameterError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise InvalidParameterError("learning_rate must be in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise InvalidParameterError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda
        self.subsample = subsample
        self.tree_class = tree_class or BinaryFeatureRegressionTree
        self._rng = ensure_rng(rng)
        self._trees: list[list] = []
        self._base_scores: np.ndarray | None = None
        self.n_classes_: int | None = None

    # ------------------------------------------------------------------ #
    def fit(self, features: np.ndarray, labels: np.ndarray) -> "GradientBoostingClassifier":
        """Fit the boosting ensemble on integer class labels."""
        # one float64 conversion shared by every tree of every round
        features = validate_feature_matrix(features, dtype=np.float64)
        labels, n_classes = validate_labels(features, labels)
        n_samples = features.shape[0]

        self.n_classes_ = n_classes
        one_hot = np.zeros((n_samples, n_classes), dtype=float)
        one_hot[np.arange(n_samples), labels] = 1.0

        # start from the log class priors so the untrained model already
        # predicts the majority class
        class_priors = one_hot.mean(axis=0)
        class_priors = np.clip(class_priors, 1e-12, None)
        self._base_scores = np.log(class_priors)

        scores = np.tile(self._base_scores, (n_samples, 1))
        # feature bits shared by every round's batched prediction (only
        # needed when trees must be re-applied to the full matrix)
        bits = (
            feature_bits(features)
            if self.subsample < 1.0 or self.tree_class is not BinaryFeatureRegressionTree
            else None
        )
        self._trees = []
        for _ in range(self.n_estimators):
            probabilities = softmax(scores)
            gradients = probabilities - one_hot
            hessians = np.clip(probabilities * (1.0 - probabilities), 1e-6, None)
            if self.subsample < 1.0:
                sample_size = max(1, int(round(self.subsample * n_samples)))
                rows = self._rng.choice(n_samples, size=sample_size, replace=False)
                round_trees, _ = self._fit_round(
                    features[rows], gradients[rows], hessians[rows]
                )
            else:
                round_trees, leaf_ids = self._fit_round(features, gradients, hessians)
                if leaf_ids is not None:
                    # growth already routed every training row to its leaf:
                    # the score update is a plain gather, no re-application
                    # of the trees to the training matrix
                    for class_index, (tree, leaves) in enumerate(
                        zip(round_trees, leaf_ids)
                    ):
                        scores[:, class_index] += self.learning_rate * tree._value[leaves]
                    self._trees.append(round_trees)
                    continue
            scores += (
                self.learning_rate * forest_values(round_trees, bits, n_samples)
            ).T
            self._trees.append(round_trees)
        return self

    def _fit_round(
        self, features: np.ndarray, gradients: np.ndarray, hessians: np.ndarray
    ) -> tuple[list, "list[np.ndarray] | None"]:
        """Train one boosting round: one tree per class.

        Returns ``(trees, leaf_ids)``; ``leaf_ids`` carries each training
        row's leaf per tree on the stacked fast path and is ``None`` for
        substituted tree classes (which are fitted one tree at a time).
        """
        if self.tree_class is BinaryFeatureRegressionTree:
            return grow_forest(
                features,
                gradients,
                hessians,
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                reg_lambda=self.reg_lambda,
                return_leaf_ids=True,
            )
        round_trees = []
        for class_index in range(gradients.shape[1]):
            tree = self.tree_class(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                reg_lambda=self.reg_lambda,
            )
            tree.fit(features, gradients[:, class_index], hessians[:, class_index])
            round_trees.append(tree)
        return round_trees, None

    # ------------------------------------------------------------------ #
    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Raw (pre-softmax) scores for every class.

        Walks each round's trees together and adds ``learning_rate * value``
        into one ``(n, n_classes)`` score buffer round by round — bit for
        bit the same as adding each tree's scaled prediction in turn.
        """
        if self._base_scores is None or self.n_classes_ is None:
            raise NotFittedError("classifier is not fitted")
        features = validate_feature_matrix(features)
        n = features.shape[0]
        scores = np.empty((n, self.n_classes_), dtype=np.float64)
        scores[:] = self._base_scores
        bits = feature_bits(features)
        for round_trees in self._trees:
            scores += (self.learning_rate * forest_values(round_trees, bits, n)).T
        return scores

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Class-membership probabilities."""
        return softmax(self.decision_function(features))

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Most likely class per row."""
        return np.argmax(self.decision_function(features), axis=1)
