"""Parity tests: the stacked forest grower vs the per-tree reference.

:func:`repro.ml.tree.grow_forest` grows all trees of a boosting round in one
stacked pass per level; :func:`repro.ml.tree_reference.grow_forest_per_tree`
runs the older per-tree level protocol.  Both build the same histogram
product from the same weight matrix, so every tree and every leaf id must be
equal *bit for bit* — including under exact gain ties, where any change in
tie-breaking, sibling choice or node numbering shows up at once.

Prediction walks each round's trees together; it must equal adding every
tree's scaled prediction in turn, bit for bit.

The module runs on whichever kernel backend ``REPRO_KERNEL_BACKEND`` selects
(CI runs it on numpy, on numba and under two BLAS threads).
"""

import numpy as np
import pytest

from repro.kernels import active_backend_name, resolve_backend_name
from repro.ml.gradient_boosting import GradientBoostingClassifier, softmax
from repro.ml.tree import feature_bits, forest_values, grow_forest
from repro.ml.tree_reference import (
    RecursiveBinaryFeatureRegressionTree,
    grow_forest_per_tree,
)

MIN_SAMPLES_LEAF = 5


def one_hot_problem(n, n_trees, seed, attributes=6, k=5):
    """fig17-like: one-hot attributes, softmax gradients of a boosting round.

    Gradients and hessians take a handful of distinct values, so many
    features tie exactly on gain.
    """
    rng = np.random.default_rng(seed)
    columns = rng.integers(0, k, size=(n, attributes))
    features = np.zeros((n, attributes * k), dtype=np.float32)
    features[np.arange(n)[:, None], np.arange(attributes) * k + columns] = 1.0
    n_classes = max(n_trees, 2)
    labels = (columns[:, 0] + columns[:, 1] * (rng.random(n) < 0.7)) % n_classes
    one_hot = np.eye(n_classes)[labels]
    # scores of a model that has partly learned the labels
    probabilities = softmax(0.5 * one_hot)
    gradients = (probabilities - one_hot)[:, :n_trees]
    hessians = np.clip(probabilities * (1.0 - probabilities), 1e-6, None)[:, :n_trees]
    return features, gradients, hessians


def bit_problem(n, n_trees, seed, n_features=24):
    """UE-like: independent report bits of mixed density, continuous gradients."""
    rng = np.random.default_rng(seed)
    density = rng.uniform(0.05, 0.6, size=n_features)
    features = (rng.random((n, n_features)) < density).astype(np.float64)
    gradients = rng.normal(size=(n, n_trees)) + features[:, :1] * 0.8
    hessians = np.clip(rng.random((n, n_trees)), 1e-6, None)
    return features, gradients, hessians


def constant_problem(n, n_trees, seed, n_features=16):
    """Constant gradients and hessians: every split of a node ties with its mirror."""
    rng = np.random.default_rng(seed)
    features = (rng.random((n, n_features)) < 0.5).astype(np.float32)
    gradients = np.tile(np.linspace(-1.0, 1.0, n_trees), (n, 1))
    hessians = np.full((n, n_trees), 0.25)
    return features, gradients, hessians


PROBLEMS = {"one_hot": one_hot_problem, "bits": bit_problem, "constant": constant_problem}


def assert_same_forest(features, gradients, hessians, **params):
    trees, leaves = grow_forest(features, gradients, hessians, return_leaf_ids=True, **params)
    ref_trees, ref_leaves = grow_forest_per_tree(
        features, gradients, hessians, return_leaf_ids=True, **params
    )
    assert len(trees) == len(ref_trees) == gradients.shape[1]
    for t, (tree, ref) in enumerate(zip(trees, ref_trees)):
        new, old = tree.structure(), ref.structure()
        for key in ("feature", "left", "right", "value"):
            assert new[key].dtype == old[key].dtype, (t, key)
            assert new[key].tobytes() == old[key].tobytes(), (t, key)
        assert leaves[t].dtype == ref_leaves[t].dtype
        assert leaves[t].tobytes() == ref_leaves[t].tobytes(), t
        np.testing.assert_array_equal(tree.apply(features), leaves[t])
    return trees


class TestStackedGrowerParity:
    @pytest.mark.parametrize("problem", sorted(PROBLEMS))
    @pytest.mark.parametrize(
        "n", [1, 2 * MIN_SAMPLES_LEAF - 1, 2 * MIN_SAMPLES_LEAF, 1200]
    )
    @pytest.mark.parametrize("n_trees", [1, 2, 18])
    def test_bitwise_equal_trees_and_leaf_ids(self, problem, n, n_trees):
        features, gradients, hessians = PROBLEMS[problem](n, n_trees, seed=n * 31 + n_trees)
        assert_same_forest(
            features, gradients, hessians,
            max_depth=4, min_samples_leaf=MIN_SAMPLES_LEAF, reg_lambda=1.0,
        )

    @pytest.mark.parametrize("problem", sorted(PROBLEMS))
    @pytest.mark.parametrize("max_depth", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("reg_lambda", [0.0, 1.0])
    def test_every_depth_and_lambda(self, problem, max_depth, reg_lambda):
        features, gradients, hessians = PROBLEMS[problem](600, 18, seed=max_depth)
        assert_same_forest(
            features, gradients, hessians,
            max_depth=max_depth, min_samples_leaf=3, reg_lambda=reg_lambda,
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_min_gain_stops_growth_early(self, seed):
        features, gradients, hessians = bit_problem(800, 18, seed)
        # scale the trees so about half of them stop at the root or level 1
        gradients = gradients * np.linspace(0.02, 1.0, 18)
        trees = assert_same_forest(
            features, gradients, hessians,
            max_depth=5, min_samples_leaf=4, reg_lambda=1.0, min_gain=2.0,
        )
        sizes = [tree.node_count for tree in trees]
        assert min(sizes) == 1 and max(sizes) > 7  # some stop, some grow

    @pytest.mark.parametrize("seed", range(3))
    def test_trees_stopping_at_different_levels(self, seed):
        # trees with few samples per leaf next to trees that grow fully:
        # the weight block shrinks and grows again from level to level
        features, gradients, hessians = bit_problem(400, 18, seed + 10)
        gradients[:, ::3] = 0.0
        assert_same_forest(
            features, gradients, hessians, max_depth=5, min_samples_leaf=12, reg_lambda=0.0,
        )

    def test_fig17_shape_one_hot_round(self):
        features, gradients, hessians = one_hot_problem(1200, 18, seed=17, attributes=18, k=11)
        assert_same_forest(
            features, gradients, hessians, max_depth=4, min_samples_leaf=20, reg_lambda=1.0,
        )

    def test_no_trees(self):
        features = np.zeros((5, 3))
        assert grow_forest(features, np.zeros((5, 0)), np.zeros((5, 0))) == []
        assert grow_forest(
            features, np.zeros((5, 0)), np.zeros((5, 0)), return_leaf_ids=True
        ) == ([], [])


def walk_tree(tree, features):
    """One tree's leaf values, walked row by row from its node arrays."""
    structure = tree.structure()
    feature, left, right = structure["feature"], structure["left"], structure["right"]
    rows = np.arange(features.shape[0])
    node = np.zeros(features.shape[0], dtype=np.int64)
    for _ in range(feature.size):
        tested = feature[node]
        goes_right = features[rows, np.maximum(tested, 0)] > 0.5
        child = np.where(goes_right, right[node], left[node])
        node = np.where(tested >= 0, child, node)
    return structure["value"][node]


def per_tree_scores(model, features):
    """Every tree's scaled prediction added in turn, round by round."""
    scores = np.empty((features.shape[0], model.n_classes_), dtype=np.float64)
    scores[:] = model._base_scores
    for round_trees in model._trees:
        for class_index, tree in enumerate(round_trees):
            scores[:, class_index] += model.learning_rate * walk_tree(tree, features)
    return scores


def reference_boosting(features, labels, n_estimators, learning_rate, subsample, seed, **params):
    """The boosting loop on the per-tree grower and the row-by-row walk."""
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    one_hot = np.eye(int(labels.max()) + 1)[labels]
    scores = np.tile(np.log(np.clip(one_hot.mean(axis=0), 1e-12, None)), (n, 1))
    rng = np.random.default_rng(seed)
    rounds = []
    for _ in range(n_estimators):
        probabilities = softmax(scores)
        gradients = probabilities - one_hot
        hessians = np.clip(probabilities * (1.0 - probabilities), 1e-6, None)
        rows = np.arange(n)
        if subsample < 1.0:
            rows = rng.choice(n, size=max(1, int(round(subsample * n))), replace=False)
        trees = grow_forest_per_tree(features[rows], gradients[rows], hessians[rows], **params)
        for class_index, tree in enumerate(trees):
            scores[:, class_index] += learning_rate * walk_tree(tree, features)
        rounds.append(trees)
    return rounds


class TestStackedPredictionParity:
    @pytest.mark.parametrize("subsample", [1.0, 0.6])
    def test_fit_grows_the_reference_loops_trees(self, subsample):
        # the score updates between rounds (leaf-id gather, or stacked
        # prediction when subsampling) feed the next round's gradients
        features = one_hot_problem(700, 5, seed=12)[0]
        labels = np.random.default_rng(12).integers(0, 5, size=700)
        labels[features[:, 0] > 0.5] = 0
        model = GradientBoostingClassifier(
            n_estimators=6, learning_rate=0.3, max_depth=4, min_samples_leaf=8,
            subsample=subsample, rng=4,
        ).fit(features, labels)
        reference = reference_boosting(
            features, labels, 6, 0.3, subsample, seed=4,
            max_depth=4, min_samples_leaf=8, reg_lambda=1.0,
        )
        for round_trees, ref_trees in zip(model._trees, reference, strict=True):
            for tree, ref in zip(round_trees, ref_trees, strict=True):
                new, old = tree.structure(), ref.structure()
                for key in ("feature", "left", "right", "value"):
                    assert new[key].tobytes() == old[key].tobytes()

    @pytest.mark.parametrize("subsample", [1.0, 0.6])
    def test_decision_function_equals_per_tree_accumulation(self, subsample):
        features, gradients, _ = bit_problem(900, 4, seed=5)
        labels = np.argmax(gradients, axis=1)
        held_out = bit_problem(300, 4, seed=6)[0]
        model = GradientBoostingClassifier(
            n_estimators=8, max_depth=4, min_samples_leaf=10, subsample=subsample, rng=3
        ).fit(features, labels)
        for rows in (features, held_out):
            assert model.decision_function(rows).tobytes() == per_tree_scores(model, rows).tobytes()

    def test_round_with_a_tree_that_never_splits(self):
        # class 1 has no examples: its gradients are tiny and constant, so
        # its tree stays a single leaf while the others split
        features, gradients, _ = bit_problem(900, 3, seed=8)
        labels = np.where(gradients[:, 0] > 0, 0, 2)
        model = GradientBoostingClassifier(n_estimators=5, max_depth=3, rng=0).fit(
            features, labels
        )
        sizes = [[tree.node_count for tree in round_trees] for round_trees in model._trees]
        assert all(row[1] == 1 for row in sizes) and max(max(row) for row in sizes) > 1
        assert model.decision_function(features).tobytes() == per_tree_scores(model, features).tobytes()

    def test_recursive_tree_class_takes_the_same_path(self):
        features, gradients, _ = bit_problem(500, 3, seed=9)
        labels = np.argmax(gradients, axis=1)
        model = GradientBoostingClassifier(
            n_estimators=4, max_depth=3, min_samples_leaf=10, rng=0,
            tree_class=RecursiveBinaryFeatureRegressionTree,
        ).fit(features, labels)
        assert model.decision_function(features).tobytes() == per_tree_scores(model, features).tobytes()

    def test_forest_values_equal_each_tree_predict(self):
        features, gradients, hessians = one_hot_problem(700, 18, seed=4)
        trees = grow_forest(features, gradients, hessians, max_depth=5, min_samples_leaf=3)
        values = forest_values(trees, feature_bits(features), features.shape[0])
        for t, tree in enumerate(trees):
            assert values[t].tobytes() == walk_tree(tree, features).tobytes()
            assert values[t].tobytes() == tree.predict(features).tobytes()


def test_runs_on_the_backend_the_environment_selects():
    # guards the CI jobs that run this module under REPRO_KERNEL_BACKEND
    assert active_backend_name() == resolve_backend_name(None)
