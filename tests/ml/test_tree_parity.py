"""Parity tests: level-wise histogram trees vs the recursive reference.

The level-wise builder (:mod:`repro.ml.tree`) and the recursive reference
(:mod:`repro.ml.tree_reference`) implement the same split rule with the same
first-max tie-breaking, so they must grow identical trees whenever gains are
untied; floating-point summation order is their only difference.  When
gains *are* mathematically tied (two features inducing the same partition,
or the piecewise-constant gradients of boosting round 0 producing equal
contingency counts), either implementation may round the tie its own way —
those cases are covered by prediction-level equivalence instead.
"""

import numpy as np
import pytest

from repro.ml.gradient_boosting import GradientBoostingClassifier
from repro.ml.tree import BinaryFeatureRegressionTree, grow_forest
from repro.ml.tree_reference import RecursiveBinaryFeatureRegressionTree


def untied_problem(seed, n=400, n_features=12):
    """Continuous random gradients: exact gain ties are (essentially) impossible."""
    rng = np.random.default_rng(seed)
    features = rng.integers(0, 2, size=(n, n_features)).astype(np.float32)
    gradients = rng.normal(size=n)
    hessians = np.clip(rng.random(n), 1e-6, None)
    return features, gradients, hessians


def classification_problem(seed, n=1500, n_features=12, n_classes=3):
    """Binary features with per-feature densities (avoids contingency ties)."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=n)
    features = (rng.random((n, n_features)) < rng.random(n_features) * 0.8 + 0.1).astype(
        np.float32
    )
    for c in range(n_classes):
        mask = labels == c
        features[mask, c] = (rng.random(int(mask.sum())) < 0.85).astype(np.float32)
    return features, labels


def assert_same_structure(level_wise, recursive):
    new = level_wise.structure()
    ref = recursive.structure()
    np.testing.assert_array_equal(new["feature"], ref["feature"])
    np.testing.assert_array_equal(new["left"], ref["left"])
    np.testing.assert_array_equal(new["right"], ref["right"])
    np.testing.assert_allclose(new["value"], ref["value"], rtol=1e-9, atol=1e-12)


class TestTreeParity:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize(
        "max_depth,min_samples_leaf,reg_lambda",
        [(1, 5, 1.0), (3, 5, 1.0), (4, 10, 2.5), (4, 8, 0.0)],
    )
    def test_identical_splits_when_gains_untied(
        self, seed, max_depth, min_samples_leaf, reg_lambda
    ):
        features, gradients, hessians = untied_problem(seed)
        level_wise = BinaryFeatureRegressionTree(
            max_depth, min_samples_leaf, reg_lambda
        ).fit(features, gradients, hessians)
        recursive = RecursiveBinaryFeatureRegressionTree(
            max_depth, min_samples_leaf, reg_lambda
        ).fit(features, gradients, hessians)
        assert_same_structure(level_wise, recursive)
        np.testing.assert_allclose(
            level_wise.predict(features),
            recursive.predict(features),
            rtol=1e-9,
            atol=1e-12,
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_predictions_match_on_deep_small_leaf_trees(self, seed):
        # deep trees with tiny leaves hit gain ties (features partitioning a
        # small node identically); the chosen feature may then differ, but
        # the induced partition — and hence every prediction — must not
        features, gradients, hessians = untied_problem(seed, n=300, n_features=25)
        level_wise = BinaryFeatureRegressionTree(6, 1, 0.5).fit(
            features, gradients, hessians
        )
        recursive = RecursiveBinaryFeatureRegressionTree(6, 1, 0.5).fit(
            features, gradients, hessians
        )
        assert level_wise.node_count == recursive.node_count
        np.testing.assert_allclose(
            level_wise.predict(features),
            recursive.predict(features),
            rtol=1e-8,
            atol=1e-10,
        )

    def test_predict_on_unseen_rows_matches(self):
        features, gradients, hessians = untied_problem(3)
        held_out = untied_problem(99)[0]
        level_wise = BinaryFeatureRegressionTree(3, 5).fit(features, gradients, hessians)
        recursive = RecursiveBinaryFeatureRegressionTree(3, 5).fit(
            features, gradients, hessians
        )
        np.testing.assert_allclose(
            level_wise.predict(held_out), recursive.predict(held_out), rtol=1e-9
        )


class TestGrowForest:
    def test_matches_single_tree_fits(self):
        rng = np.random.default_rng(0)
        features = rng.integers(0, 2, size=(500, 10)).astype(np.float32)
        gradients = rng.normal(size=(500, 3))
        hessians = np.clip(rng.random((500, 3)), 1e-6, None)
        forest = grow_forest(features, gradients, hessians, max_depth=3, min_samples_leaf=5)
        for t, tree in enumerate(forest):
            alone = BinaryFeatureRegressionTree(3, 5).fit(
                features, gradients[:, t], hessians[:, t]
            )
            lock = tree.structure()
            solo = alone.structure()
            np.testing.assert_array_equal(lock["feature"], solo["feature"])
            np.testing.assert_array_equal(lock["left"], solo["left"])
            np.testing.assert_allclose(lock["value"], solo["value"], rtol=1e-12)

    def test_leaf_ids_match_apply(self):
        features, gradients, hessians = untied_problem(5)
        trees, leaf_ids = grow_forest(
            features,
            gradients[:, None],
            hessians[:, None],
            max_depth=4,
            min_samples_leaf=5,
            return_leaf_ids=True,
        )
        np.testing.assert_array_equal(trees[0].apply(features), leaf_ids[0])


class TestBoostingGoldenParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_fixed_seed_predictions_identical(self, seed):
        features, labels = classification_problem(seed)
        kwargs = dict(n_estimators=10, max_depth=3, min_samples_leaf=10, rng=0)
        level_wise = GradientBoostingClassifier(**kwargs).fit(features, labels)
        recursive = GradientBoostingClassifier(
            tree_class=RecursiveBinaryFeatureRegressionTree, **kwargs
        ).fit(features, labels)
        np.testing.assert_array_equal(
            level_wise.predict(features), recursive.predict(features)
        )
        np.testing.assert_allclose(
            level_wise.predict_proba(features),
            recursive.predict_proba(features),
            rtol=1e-8,
            atol=1e-10,
        )

    def test_subsample_path_matches(self):
        # both implementations must consume the subsampling rng identically
        features, labels = classification_problem(1)
        kwargs = dict(
            n_estimators=6, max_depth=3, min_samples_leaf=10, subsample=0.7, rng=7
        )
        level_wise = GradientBoostingClassifier(**kwargs).fit(features, labels)
        recursive = GradientBoostingClassifier(
            tree_class=RecursiveBinaryFeatureRegressionTree, **kwargs
        ).fit(features, labels)
        np.testing.assert_array_equal(
            level_wise.predict(features), recursive.predict(features)
        )
