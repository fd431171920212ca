"""Regression trees on binary features for gradient boosting.

The attribute-inference attack of the paper trains an XGBoost multiclass
classifier.  This reproduction has no network access, so the classifier is
rebuilt from scratch: :class:`BinaryFeatureRegressionTree` is the base
learner of the gradient-boosting machine in
:mod:`repro.ml.gradient_boosting`.

All features are binary (the encoders in :mod:`repro.ml.encoding` produce
one-hot / indicator features), which makes the split search a single matrix
product: the gradient and hessian sums of the "feature == 1" branch of a
node are ``X^T (g * 1[sample in node])``.

Trees are grown **level-wise**: instead of recursing node by node (and
fancy-indexing a fresh copy of the feature block at every node, as the
reference implementation in :mod:`repro.ml.tree_reference` does), the
builder keeps one node-slot index per sample and computes the
gradient/hessian/count histograms of *every* frontier node in a single
``X^T W`` product over the original feature matrix, where ``W`` scatters
``(g, h, 1)`` into one row triple per frontier node.

Because that product is memory-bound on streaming ``X`` (its cost barely
depends on the number of weight rows), :func:`grow_forest` grows many trees
over the same feature matrix as **one stacked forest**: each level is one
pass over the flat per-(tree, sample) state of every tree, one shared
histogram product, and one split search over the stacked frontier of all
trees.  The boosting loop uses this to build all ``n_classes`` trees of a
round with a single pass over ``X`` per level.

Fitted trees are flat breadth-first ``feature/left/right/value`` arrays, so
prediction is iterative batched node-index propagation with no recursion
and no per-sample dispatch; :func:`forest_values` propagates all trees of a
round at once.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import InvalidParameterError, NotFittedError
from ..kernels import get_backend
from .validation import validate_aligned_targets, validate_feature_matrix


def _validate_hyperparameters(
    max_depth: int, min_samples_leaf: int, reg_lambda: float
) -> None:
    if max_depth < 1:
        raise InvalidParameterError("max_depth must be >= 1")
    if min_samples_leaf < 1:
        raise InvalidParameterError("min_samples_leaf must be >= 1")
    if reg_lambda < 0:
        raise InvalidParameterError("reg_lambda must be non-negative")


def feature_bits(features: np.ndarray) -> np.ndarray:
    """Flat ``(1 + F) * n`` boolean transpose of ``features > 0.5``.

    Entry ``(f + 1) * n + i`` tells whether sample ``i`` has feature ``f``,
    so the samples of one node read one contiguous row.  Row 0 is all
    ``False``: a sample pointed there (a leaf's test, ``feature + 1 == 0``)
    goes left.
    """
    n, n_features = features.shape
    bits = np.zeros((1 + n_features, n), dtype=bool)
    bits[1:] = (features > 0.5).T
    return bits.reshape(-1)


class BinaryFeatureRegressionTree:
    """Depth-limited regression tree over binary features, grown level-wise.

    The tree minimizes the second-order boosting objective: each leaf outputs
    ``-G / (H + reg_lambda)`` and splits are chosen by the usual XGBoost-style
    gain formula.  Splits, tie-breaking (first feature with the maximal gain)
    and stopping rules match the recursive reference implementation
    (:class:`repro.ml.tree_reference.RecursiveBinaryFeatureRegressionTree`)
    exactly up to floating-point summation order.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root = depth 0).
    min_samples_leaf:
        Minimum number of samples required in each child.
    reg_lambda:
        L2 regularization on leaf values.
    min_gain:
        Minimum gain required to split a node.
    """

    def __init__(
        self,
        max_depth: int = 4,
        min_samples_leaf: int = 10,
        reg_lambda: float = 1.0,
        min_gain: float = 1e-6,
    ) -> None:
        _validate_hyperparameters(max_depth, min_samples_leaf, reg_lambda)
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda
        self.min_gain = min_gain
        # flat breadth-first node arrays; feature == -1 marks a leaf
        self._feature: np.ndarray | None = None
        self._left: np.ndarray | None = None
        self._right: np.ndarray | None = None
        self._value: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    def fit(
        self, features: np.ndarray, gradients: np.ndarray, hessians: np.ndarray
    ) -> "BinaryFeatureRegressionTree":
        """Fit the tree to per-sample gradients and hessians."""
        gradients = np.asarray(gradients, dtype=np.float64).ravel()
        hessians = np.asarray(hessians, dtype=np.float64).ravel()
        fitted = grow_forest(
            features,
            gradients[:, None],
            hessians[:, None],
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            reg_lambda=self.reg_lambda,
            min_gain=self.min_gain,
        )[0]
        self._adopt(fitted._feature, fitted._left, fitted._right, fitted._value)
        return self

    def _adopt(
        self,
        feature: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
    ) -> None:
        """Install fitted flat node arrays."""
        self._feature = feature
        self._left = left
        self._right = right
        self._value = value

    # ------------------------------------------------------------------ #
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict the leaf value of every row of ``features``."""
        return self._value[self.apply(features)]

    def apply(self, features: np.ndarray) -> np.ndarray:
        """Leaf index reached by every row — iterative batched propagation."""
        if self._feature is None:
            raise NotFittedError("tree is not fitted")
        features = validate_feature_matrix(features)
        # one tree: flat node indices are the tree's own
        leaves = _FlatForest([self]).leaves(feature_bits(features), features.shape[0])
        return leaves.astype(np.int32)

    # ------------------------------------------------------------------ #
    @property
    def node_count(self) -> int:
        """Number of nodes in the fitted tree."""
        return 0 if self._feature is None else int(self._feature.size)

    def structure(self) -> dict[str, np.ndarray]:
        """Flat breadth-first node arrays (``feature/left/right/value``).

        Leaves have ``feature == left == right == -1``.  The same layout is
        produced by the recursive reference tree, making structures directly
        comparable in the parity tests.
        """
        if self._feature is None:
            raise NotFittedError("tree is not fitted")
        return {
            "feature": self._feature.copy(),
            "left": self._left.copy(),
            "right": self._right.copy(),
            "value": self._value.copy(),
        }


# --------------------------------------------------------------------------- #
# stacked prediction
# --------------------------------------------------------------------------- #
class _FlatForest:
    """Several trees laid out in one flat node space.

    Tree ``t``'s node ``j`` sits at ``offset[t] + j``.  The layout is the
    breadth-first one of :meth:`BinaryFeatureRegressionTree.structure`, in
    which the right child of an internal node directly follows its left
    child, so one step is ``node = next[node] + bit``.  A leaf steps to
    itself and tests the all-``False`` row 0 of :func:`feature_bits`, so
    every row rests at its leaf after ``hops`` steps, whatever the leaf's
    depth.
    """

    def __init__(self, trees: Sequence) -> None:
        structures = [tree.structure() for tree in trees]
        sizes = np.asarray([s["feature"].size for s in structures], dtype=np.int64)
        self.offset = np.cumsum(sizes) - sizes
        feature = np.concatenate([s["feature"] for s in structures]).astype(np.int64)
        left = np.concatenate(
            [s["left"] + offset for s, offset in zip(structures, self.offset)]
        ).astype(np.int64)
        internal = feature >= 0
        self.next = np.where(internal, left, np.arange(feature.size))
        self.test_row = feature + 1
        self.value = np.concatenate([s["value"] for s in structures])
        # the depth of the deepest leaf, walked level by level; no tree is
        # deeper than its node count, which also ends the walk on a layout
        # whose children loop back
        self.hops = 0
        frontier = self.offset[internal[self.offset]]
        while frontier.size and self.hops < feature.size:
            self.hops += 1
            children = np.concatenate((left[frontier], left[frontier] + 1))
            frontier = children[internal[children]]

    def leaves(self, bits: np.ndarray, n: int) -> np.ndarray:
        """Flat node index of the leaf each row reaches, tree by tree.

        ``bits`` comes from :func:`feature_bits` over ``n`` rows; entry
        ``t * n + i`` of the result is row ``i``'s leaf in tree ``t``.
        """
        n_trees = self.offset.size
        test_at = self.test_row * n
        sample = np.tile(np.arange(n, dtype=np.int64), n_trees)
        node = np.repeat(self.offset, n)
        for _ in range(self.hops):
            index = np.take(test_at, node)
            index += sample
            node = np.take(self.next, node) + np.take(bits, index)
        return node


def forest_values(trees: Sequence, bits: np.ndarray, n: int) -> np.ndarray:
    """``(T, n)`` leaf value of ``n`` rows in each of ``trees``.

    ``bits`` is :func:`feature_bits` of the rows.  All trees advance
    together, one gather per step for the whole group; any tree exposing
    the flat :meth:`~BinaryFeatureRegressionTree.structure` layout works.
    Row ``t`` equals ``trees[t].predict(features)`` bit for bit.
    """
    forest = _FlatForest(trees)
    return np.take(forest.value, forest.leaves(bits, n)).reshape(len(trees), n)


# --------------------------------------------------------------------------- #
# stacked level-wise growth
# --------------------------------------------------------------------------- #
def _score(grad: np.ndarray, hess: np.ndarray, reg_lambda: float) -> np.ndarray:
    """XGBoost-style structure score ``G^2 / (H + lambda)``."""
    denominator = hess + reg_lambda
    with np.errstate(divide="ignore", invalid="ignore"):
        value = grad * grad / denominator
    return np.where(denominator > 0, value, 0.0)


def grow_forest(
    features: np.ndarray,
    gradients: np.ndarray,
    hessians: np.ndarray,
    max_depth: int = 4,
    min_samples_leaf: int = 10,
    reg_lambda: float = 1.0,
    min_gain: float = 1e-6,
    return_leaf_ids: bool = False,
) -> "list[BinaryFeatureRegressionTree] | tuple[list[BinaryFeatureRegressionTree], list[np.ndarray]]":
    """Grow one tree per column of ``gradients``/``hessians`` as one forest.

    All trees share the same ``(n, F)`` feature matrix.  Each level of the
    whole group is one stacked pass:

    * one entry per (tree, sample) pair holds the *global node id* of the
      node the sample sits in for that tree (nodes of every tree and level
      numbered consecutively); an entry whose id lies below the current
      level's first id has retired at a leaf;
    * the ``(g, h, 1)`` rows of every tree's computed frontier nodes are
      scattered into one weight matrix — tree by tree, each tree's block
      ``[g rows | h rows | 1 rows]`` — and a single ``X^T W`` product gives
      all their histograms.  Retired entries and entries of nodes whose
      histogram is derived scatter into one junk row past the block, zeroed
      with the block after the product;
    * one split search runs over the stacked ``(nodes, F)`` histograms of
      every splittable node of every tree;
    * one gather into the transposed feature bits routes every entry.

    Two classic histogram tricks keep the per-level work small:

    * **sibling subtraction** — when both children of a split can split,
      only the smaller child's histogram is computed (ties on the left
      child); the sibling's is the parent's histogram minus it;
    * **derived totals** — each child's gradient/hessian/count totals are
      read off the parent's histogram at the chosen split feature (ones
      branch) or derived by subtraction (zeros branch).

    Each returned tree is identical, bit for bit, to fitting a
    :class:`BinaryFeatureRegressionTree` on its column alone.  The boosting
    loop calls this with the ``(n, n_classes)`` gradient/hessian matrices of
    one round.

    With ``return_leaf_ids=True`` the result is ``(trees, leaf_ids)`` where
    ``leaf_ids[t]`` is the leaf node index each training row ends up in for
    tree ``t`` — a byproduct of routing that saves the boosting loop a full
    re-application of every tree to the training matrix.
    """
    features = validate_feature_matrix(features)
    gradients = np.asarray(gradients, dtype=np.float64)
    hessians = np.asarray(hessians, dtype=np.float64)
    if gradients.ndim != 2 or hessians.ndim != 2:
        raise InvalidParameterError("gradients and hessians must be 2-D (n, n_trees)")
    if gradients.shape != hessians.shape:
        raise InvalidParameterError("gradients and hessians must have the same shape")
    validate_aligned_targets(features, gradients, hessians, names="gradients and hessians")
    _validate_hyperparameters(max_depth, min_samples_leaf, reg_lambda)
    # the histogram product accumulates in float64; binary features are exact
    # in float64, so this single conversion is the only copy of the feature
    # matrix made while growing the whole group
    features64 = np.asarray(features, dtype=np.float64)
    n = features64.shape[0]
    gradients_t = np.ascontiguousarray(gradients.T)
    hessians_t = np.ascontiguousarray(hessians.T)
    n_trees = gradients_t.shape[0]
    if n_trees == 0:
        return ([], []) if return_leaf_ids else []

    grad_flat = gradients_t.reshape(-1)
    hess_flat = hessians_t.reshape(-1)
    bits = feature_bits(features64)
    sample = np.tile(np.arange(n, dtype=np.int64), n_trees)
    # entry t * n + i: global node id of sample i in tree t; the roots are
    # ids 0..T-1
    entry = np.repeat(np.arange(n_trees, dtype=np.int64), n)

    # the frontier: every tree's open nodes, tree by tree.  From depth 1 on
    # each tree holds an even number of them (children come in pairs), so
    # siblings are global slots s and s ^ 1 and the parent is split s // 2
    slot_tree = np.arange(n_trees)
    slot_node = np.zeros(n_trees, dtype=np.int64)
    # root totals are the only ones computed by direct summation
    grad_tot = np.asarray([row.sum() for row in gradients_t])
    hess_tot = np.asarray([row.sum() for row in hessians_t])
    count_tot = np.full(n_trees, float(n))
    next_node = np.ones(n_trees, dtype=np.int64)  # node 0 is each root
    level_base = 0  # global id of the frontier's first slot
    parent_hist: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    levels: list[tuple[np.ndarray, ...]] = []  # per level: the frontier's slot arrays
    weights_t = np.zeros((0, n))  # reused; all zero between levels

    for depth in range(max_depth + 1):
        n_slots = slot_tree.size
        n_ids = level_base + n_slots  # global ids so far, this level's included
        with np.errstate(divide="ignore", invalid="ignore"):
            value = -grad_tot / (hess_tot + reg_lambda)
        feature = np.full(n_slots, -1, dtype=np.int32)
        left = np.full(n_slots, -1, dtype=np.int32)
        right = np.full(n_slots, -1, dtype=np.int32)
        levels.append((slot_tree, slot_node, feature, left, right, value))
        if depth >= max_depth:
            break
        can_split = count_tot >= 2 * min_samples_leaf
        splittable = np.flatnonzero(can_split)
        if not splittable.size:
            break

        # which splittable slots get a computed histogram: every root does;
        # otherwise a slot computes unless its sibling is also splittable and
        # strictly smaller (ties computed on the left child)
        if parent_hist is None:
            computed = np.ones(splittable.size, dtype=bool)
        else:
            siblings = splittable ^ 1
            own_count = count_tot[splittable]
            sibling_count = count_tot[siblings]
            computed = ~can_split[siblings] | (
                (own_count < sibling_count)
                | ((own_count == sibling_count) & (splittable % 2 == 0))
            )
        comp_slots = splittable[computed]
        comp_tree = slot_tree[comp_slots]
        n_comp = np.bincount(comp_tree, minlength=n_trees)
        comp_first = np.cumsum(n_comp) - n_comp
        # tree t's block starts at row 3 * comp_first[t]; its c-th computed
        # slot owns rows (g, h, 1) = block + (c, n_comp + c, 2 n_comp + c)
        grad_row = 2 * comp_first[comp_tree] + np.arange(comp_slots.size)
        row_step = n_comp[comp_tree]
        total = 3 * comp_slots.size
        if weights_t.shape[0] <= total:
            weights_t = np.zeros((total + 1, n))
        if parent_hist is None:
            # roots: every sample of every tree, plain row copies
            weights_t[0:total:3] = gradients_t
            weights_t[1:total:3] = hessians_t
            weights_t[2:total:3] = 1.0
        else:
            flat = weights_t.reshape(-1)
            row_of = np.full(n_ids, total * n, dtype=np.int64)  # junk row
            row_of[level_base + comp_slots] = grad_row * n
            step_of = np.zeros(n_ids, dtype=np.int64)
            step_of[level_base + comp_slots] = row_step * n
            index = np.take(row_of, entry)
            index += sample
            flat[index] = grad_flat
            step = np.take(step_of, entry)
            index += step
            flat[index] = hess_flat
            index += step
            flat[index] = 1.0
        # resolved per call: the active backend may be swapped at run time
        hist = get_backend().histogram_product(weights_t[:total], features64)
        weights_t[: total + 1] = 0.0

        # stacked (splittable slots, F) histograms, in slot order
        hist_row = np.zeros(splittable.size, dtype=np.int64)
        hist_row[computed] = grad_row
        hist_step = np.zeros(splittable.size, dtype=np.int64)
        hist_step[computed] = row_step
        grad_ones = hist[hist_row]
        hist_row += hist_step
        hess_ones = hist[hist_row]
        hist_row += hist_step
        count_ones = hist[hist_row]
        derived = np.flatnonzero(~computed)
        if derived.size:
            # parent minus (already-filled) computed sibling
            derived_slots = splittable[derived]
            sibling = np.searchsorted(splittable, derived_slots ^ 1)
            pair = derived_slots // 2
            parent_grad, parent_hess, parent_count = parent_hist
            grad_ones[derived] = parent_grad[pair] - grad_ones[sibling]
            hess_ones[derived] = parent_hess[pair] - hess_ones[sibling]
            count_ones[derived] = parent_count[pair] - count_ones[sibling]

        grad_sub = grad_tot[splittable]
        hess_sub = hess_tot[splittable]
        count_sub = count_tot[splittable]
        grad_zeros = grad_sub[:, None] - grad_ones
        hess_zeros = hess_sub[:, None] - hess_ones
        count_zeros = count_sub[:, None] - count_ones
        # the parent score is constant per slot, so the argmax over features
        # only needs the children's score sum; the parent term re-enters in
        # the min_gain threshold below
        score_sum = _score(grad_ones, hess_ones, reg_lambda) + _score(
            grad_zeros, hess_zeros, reg_lambda
        )
        valid = (count_ones >= min_samples_leaf) & (count_zeros >= min_samples_leaf)
        score_sum = np.where(valid, score_sum, -np.inf)
        best_feature = np.argmax(score_sum, axis=1)  # first max wins, per slot
        best_gain = 0.5 * (
            score_sum[np.arange(splittable.size), best_feature]
            - _score(grad_sub, hess_sub, reg_lambda)
        )
        split = np.flatnonzero(np.isfinite(best_gain) & (best_gain >= min_gain))
        if not split.size:
            break

        # children of a tree's j-th splitting slot (in slot order) get that
        # tree's next two node indices; globally they become the next
        # frontier's slots 2k and 2k + 1 for the k-th split overall
        split_slots = splittable[split]
        split_tree = slot_tree[split_slots]
        split_feature = best_feature[split]
        n_split = np.bincount(split_tree, minlength=n_trees)
        rank = np.arange(split.size) - (np.cumsum(n_split) - n_split)[split_tree]
        child_left = next_node[split_tree] + 2 * rank
        next_node += 2 * n_split
        feature[split_slots] = split_feature
        left[split_slots] = child_left
        right[split_slots] = child_left + 1

        # next level's totals come straight off the split histograms: the
        # ones branch (right child) is the histogram at the split feature,
        # the zeros branch (left child) follows by subtraction
        right_grad = grad_ones[split, split_feature]
        right_hess = hess_ones[split, split_feature]
        right_count = count_ones[split, split_feature]
        grad_tot = np.empty(2 * split.size)
        hess_tot = np.empty(2 * split.size)
        count_tot = np.empty(2 * split.size)
        grad_tot[0::2] = grad_sub[split] - right_grad
        grad_tot[1::2] = right_grad
        hess_tot[0::2] = hess_sub[split] - right_hess
        hess_tot[1::2] = right_hess
        count_tot[0::2] = count_sub[split] - right_count
        count_tot[1::2] = right_count
        parent_hist = (grad_ones[split], hess_ones[split], count_ones[split])
        slot_tree = np.repeat(split_tree, 2)
        slot_node = np.empty(2 * split.size, dtype=np.int64)
        slot_node[0::2] = child_left
        slot_node[1::2] = child_left + 1

        # route the entries of splitting slots to their children; every
        # other entry stays where it is (it tests the all-False row 0 and
        # its target is its own id).  Each child holds >= min_samples_leaf
        # samples by the validity mask above
        target = np.arange(n_ids)
        target[level_base + split_slots] = n_ids + 2 * np.arange(split.size)
        test_at = np.zeros(n_ids, dtype=np.int64)
        test_at[level_base + split_slots] = (split_feature + 1) * n
        index = np.take(test_at, entry)
        index += sample
        goes_right = np.take(bits, index)
        entry = np.take(target, entry)
        entry += goes_right
        level_base = n_ids

    # every level lists its slots tree by tree, so a stable sort by tree
    # gathers each tree's nodes in breadth-first order; global node ids
    # index the unsorted concatenation
    tree_of, node_of, *arrays = (np.concatenate(part) for part in zip(*levels))
    order = np.argsort(tree_of, kind="stable")
    node_feature, node_left, node_right, node_value = (array[order] for array in arrays)
    bounds = np.cumsum(np.bincount(tree_of, minlength=n_trees))
    trees = []
    for t in range(n_trees):
        begin, end = (bounds[t - 1] if t else 0), bounds[t]
        tree = BinaryFeatureRegressionTree(
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            reg_lambda=reg_lambda,
            min_gain=min_gain,
        )
        tree._adopt(
            node_feature[begin:end],
            node_left[begin:end],
            node_right[begin:end],
            node_value[begin:end],
        )
        trees.append(tree)
    if return_leaf_ids:
        leaves = np.take(node_of.astype(np.int32), entry).reshape(n_trees, n)
        return trees, list(leaves)
    return trees
