from math import exp, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import (
    LabeledTree,
    TreeShape,
    empirical_pair,
    lattice_size,
    sample_mean,
    tree_metric,
)
from treeshift.errors import (
    InadmissibleTree,
    Overflow,
    ShapeMismatch,
    SupportMismatch,
    TooLarge,
)

from conftest import enumerate_blocks


class TestLatticeSize:
    def test_values(self):
        assert lattice_size(2, 4) == 31
        assert lattice_size(3, 2) == 13
        assert lattice_size(2, 0) == 1

    def test_overflow_guard(self):
        with pytest.raises(Overflow):
            lattice_size(2, 64)

    def test_node_cap(self):
        # NODE_CAP = 2^25 nodes: depth 24 at d = 2 holds 2^25 - 1
        assert TreeShape(2, 24).node_count == 2**25 - 1
        for depth in (25, 40):
            with pytest.raises(TooLarge):
                TreeShape(2, depth)


class TestShape:
    @given(st.integers(2, 4), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_parent_child_bijection(self, d, n):
        shape = TreeShape(d, n)
        for i in range(shape.node_count):
            kids = [c for c in shape.children(i) if c < shape.node_count]
            for c in kids:
                assert shape.parent(c) == i
            if i > 0:
                assert shape.parent(i) < i

    def test_level_slices_partition(self):
        shape = TreeShape(2, 4)
        seen = []
        for k in range(5):
            sl = shape.level_slice(k)
            seen.extend(range(sl.start, sl.stop))
        assert seen == list(range(31))


class TestEmpiricalPair:
    def test_depth_one_full_shift(self, full2):
        tree = LabeledTree(TreeShape(2, 1), np.array([0, 0, 1]))
        pair = empirical_pair(tree, full2)
        assert pair.dists[0].tolist() == [1.0, 0.0]
        assert pair.dists[1].tolist() == [0.5, 0.5]
        assert pair.trans[0][:, 0].tolist() == [0.5, 0.5]
        # absent parent symbol falls back to the normalized adjacency column
        assert pair.trans[0][:, 1].tolist() == [0.5, 0.5]

    def test_constant_tree_point_masses(self, golden):
        tree = LabeledTree(TreeShape(2, 2), np.zeros(7, dtype=int))
        pair = empirical_pair(tree, golden)
        for dist in pair.dists:
            assert dist.tolist() == [1.0, 0.0]
        for eta in pair.trans:
            assert eta[:, 0].tolist() == [1.0, 0.0]

    def test_counts_reconstruct_under_enumeration(self, full2):
        # every depth-2 binary-alphabet tree: eta_k applied to level counts
        # reproduces the next level's direct counts
        listing = enumerate_blocks(full2, 2, want_list=True).trees
        assert len(listing) == 2**7
        for labels in listing:
            tree = LabeledTree(TreeShape(2, 2), np.array(labels))
            pair = empirical_pair(tree, full2)
            for k in range(2):
                level = tree.level_labels(k)
                counts = np.bincount(level, minlength=2).astype(float)
                nxt = np.bincount(tree.level_labels(k + 1), minlength=2).astype(float)
                assert pair.trans[k] @ (2 * counts) == pytest.approx(nxt.tolist(), abs=1e-9)

    def test_inadmissible_rejected(self, golden):
        tree = LabeledTree(TreeShape(2, 1), np.array([1, 0, 1]))  # child 1 under parent 1
        with pytest.raises(InadmissibleTree):
            empirical_pair(tree, golden)


class TestSampleMean:
    def test_all_ones_weight(self, full2):
        tree = LabeledTree(TreeShape(2, 3), np.zeros(15, dtype=int))
        assert sample_mean(tree, np.ones((2, 2))) == 0.0

    def test_single_weighted_edge(self, golden):
        # weight 2 on the child-1-under-parent-0 edge; the tree has exactly one
        w = np.array([[1.0, 2.0], [2.0, 0.0]])
        tree = LabeledTree(TreeShape(2, 1), np.array([0, 0, 1]))
        assert sample_mean(tree, w) == pytest.approx(log(2) / 3, abs=1e-15)

    def test_support_mismatch(self, golden):
        tree = LabeledTree(TreeShape(2, 1), np.array([0, 0, 1]))
        w = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(SupportMismatch):
            sample_mean(tree, w)

    def test_level_decomposition_identity(self, example1):
        # (1/|L|) sum log W == sum_k (|L(k+1)|/|L|) 1^T (eta_k ∘ log W) pi_k
        # exactly, for every enumerated admissible tree
        model = example1.base
        log_w = np.where(example1.W > 0, np.log(np.where(example1.W > 0, example1.W, 1)), 0.0)
        for n in (1, 2, 3):
            total = lattice_size(2, n)
            for labels in enumerate_blocks(model, n, want_list=True).trees:
                tree = LabeledTree(TreeShape(2, n), np.array(labels))
                direct = sample_mean(tree, example1.W)
                pair = empirical_pair(tree, model)
                level = 1.0
                acc = 0.0
                for k in range(n):
                    level *= 2
                    acc += level / total * float(
                        (pair.trans[k] * log_w).sum(axis=0) @ pair.dists[k]
                    )
                assert acc == pytest.approx(direct, abs=1e-12)


class TestMetric:
    def test_identical_truncated(self, full2):
        a = LabeledTree(TreeShape(2, 2), np.zeros(7, dtype=int))
        b = LabeledTree(TreeShape(2, 2), np.zeros(7, dtype=int))
        res = tree_metric(a, b)
        assert res.value == 0.0
        assert res.truncated

    def test_root_disagreement(self, full2):
        a = LabeledTree(TreeShape(2, 1), np.array([0, 0, 0]))
        b = LabeledTree(TreeShape(2, 1), np.array([1, 0, 0]))
        res = tree_metric(a, b)
        assert res.value == 1.0
        assert not res.truncated

    def test_agree_to_level_one(self, full2):
        a = LabeledTree(TreeShape(2, 2), np.array([0, 1, 0, 1, 1, 0, 0]))
        b = LabeledTree(TreeShape(2, 2), np.array([0, 1, 0, 1, 1, 0, 1]))
        res = tree_metric(a, b)
        assert res.value == pytest.approx(exp(-3), abs=1e-18)
        assert res.agree_depth == 1

    def test_shape_mismatch(self):
        a = LabeledTree(TreeShape(2, 1), np.zeros(3, dtype=int))
        b = LabeledTree(TreeShape(2, 2), np.zeros(7, dtype=int))
        with pytest.raises(ShapeMismatch):
            tree_metric(a, b)
