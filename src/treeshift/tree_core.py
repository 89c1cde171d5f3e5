"""Finite rooted d-trees: flat BFS storage, empirical statistics, the metric.

Nodes are stored breadth-first: the root has index 0 and node i's children
occupy indices d*i+1 .. d*i+d.  Level k holds the d^k nodes at generation
distance k from the root.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .alphabet_graph import AdjacencyModel
from .errors import InadmissibleTree, Overflow, ShapeMismatch, SupportMismatch, TooLarge

INT64_MAX = 2**63 - 1
# nodes a stored tree may hold: 2^25 int16 labels are 64 MB
NODE_CAP = 2**25


def lattice_size(d: int, n: int) -> int:
    """Number of nodes in the first n+1 levels: (d^(n+1) - 1) / (d - 1)."""
    if d < 2 or n < 0:
        raise ValueError(f"need d >= 2 and n >= 0, got d={d}, n={n}")
    size = (d ** (n + 1) - 1) // (d - 1)
    if size > INT64_MAX:
        raise Overflow(f"|Lambda({n})| = {size} exceeds 2**63 - 1")
    return size


@dataclass(frozen=True)
class TreeShape:
    """Geometry of a depth-n rooted d-tree of at most NODE_CAP nodes."""

    arity: int
    depth: int

    def __post_init__(self):
        count = lattice_size(self.arity, self.depth)
        if count > NODE_CAP:
            raise TooLarge(f"|Lambda({self.depth})| = {count} exceeds the node cap {NODE_CAP}")

    @property
    def node_count(self) -> int:
        return lattice_size(self.arity, self.depth)

    def level_size(self, k: int) -> int:
        return self.arity**k

    def level_start(self, k: int) -> int:
        return 0 if k == 0 else lattice_size(self.arity, k - 1)

    def level_slice(self, k: int) -> slice:
        start = self.level_start(k)
        return slice(start, start + self.level_size(k))

    def parent(self, i: int) -> int:
        if i == 0:
            raise ValueError("the root has no parent")
        return (i - 1) // self.arity

    def children(self, i: int) -> range:
        return range(self.arity * i + 1, self.arity * i + self.arity + 1)

    def parent_indices(self) -> np.ndarray:
        """Parent index of every non-root node, in BFS order."""
        return (np.arange(1, self.node_count) - 1) // self.arity


@dataclass(frozen=True)
class LabeledTree:
    """Symbol labels over a TreeShape, breadth-first."""

    shape: TreeShape
    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int16)
        if labels.shape != (self.shape.node_count,):
            raise ShapeMismatch(
                f"expected {self.shape.node_count} labels, got {labels.shape}"
            )
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    def level_labels(self, k: int) -> np.ndarray:
        return self.labels[self.shape.level_slice(k)]


def validate_admissible(tree: LabeledTree, model: AdjacencyModel) -> None:
    """Raise InadmissibleTree unless every edge is allowed by the adjacency."""
    parents = tree.shape.parent_indices()
    ok = model.adjacency[tree.labels[1:], tree.labels[parents]] == 1
    if not ok.all():
        i = int(np.argmin(ok)) + 1
        raise InadmissibleTree(
            f"edge into node {i}: child {tree.labels[i]} under parent "
            f"{tree.labels[tree.shape.parent(i)]} is not admissible"
        )


@dataclass(frozen=True)
class EmpiricalPair:
    """Per-level label distributions pi_0..pi_n and transitions eta_0..eta_{n-1}.

    Each eta_k is column-stochastic (column = parent symbol).  Columns of
    parent symbols absent at level k fall back to the normalized adjacency
    column, so eta_k is total.
    """

    dists: tuple[np.ndarray, ...]
    trans: tuple[np.ndarray, ...]


def empirical_pair(tree: LabeledTree, model: AdjacencyModel) -> EmpiricalPair:
    """Exact per-level counting of label frequencies and parent-child transitions."""
    validate_admissible(tree, model)
    n_sym = model.n_symbols
    d = tree.shape.arity
    adj = model.adjacency.astype(float)
    fallback = adj / adj.sum(axis=0, keepdims=True)

    dists = []
    trans = []
    for k in range(tree.shape.depth + 1):
        level = tree.level_labels(k)
        counts = np.bincount(level, minlength=n_sym).astype(float)
        dists.append(counts / level.size)
        if k == tree.shape.depth:
            break
        child = tree.level_labels(k + 1)
        parent = np.repeat(level, d)
        pair_counts = np.bincount(
            child.astype(np.int64) * n_sym + parent.astype(np.int64),
            minlength=n_sym * n_sym,
        ).reshape(n_sym, n_sym).astype(float)
        eta = fallback.copy()
        present = counts > 0
        eta[:, present] = pair_counts[:, present] / (d * counts[present])
        trans.append(eta)
    return EmpiricalPair(tuple(dists), tuple(trans))


def sample_mean(tree: LabeledTree, w: np.ndarray, n: int | None = None) -> float:
    """(1/|Lambda(n)|) * sum over non-root nodes g of log w[label(g), label(parent(g))]."""
    if n is None:
        n = tree.shape.depth
    if n > tree.shape.depth:
        raise ShapeMismatch(f"tree stores depth {tree.shape.depth}, requested {n}")
    w = np.asarray(w, dtype=float)
    count = lattice_size(tree.shape.arity, n)
    labels = tree.labels[:count]
    parents = (np.arange(1, count) - 1) // tree.shape.arity
    weights = w[labels[1:], labels[parents]]
    if (weights <= 0).any():
        i = int(np.argmax(weights <= 0)) + 1
        raise SupportMismatch(f"zero weight on the edge into node {i}")
    return float(np.log(weights).sum() / count)


class MetricResult(NamedTuple):
    value: float
    truncated: bool
    agree_depth: int


def tree_metric(t: LabeledTree, u: LabeledTree) -> MetricResult:
    """exp(-|Lambda(n*)|) where n* is the deepest level block on which t and u agree.

    Convention for finite storage: distance 1 when the roots differ (empty
    agreement), and distance 0 with ``truncated=True`` when the trees agree on
    everything stored (the true metric on infinite trees may be positive).
    """
    if t.shape.arity != u.shape.arity or t.shape.depth != u.shape.depth:
        raise ShapeMismatch("trees must share arity and depth")
    agree = -1
    for k in range(t.shape.depth + 1):
        if not np.array_equal(t.level_labels(k), u.level_labels(k)):
            break
        agree = k
    if agree < 0:
        return MetricResult(1.0, False, -1)
    if agree == t.shape.depth:
        return MetricResult(0.0, True, agree)
    return MetricResult(float(np.exp(-lattice_size(t.shape.arity, agree))), False, agree)
