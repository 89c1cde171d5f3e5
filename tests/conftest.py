import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from treeshift import (
    AdjacencyModel,
    chain_from_matrices,
    find_a0_and_period,
    is_irreducible,
    reciprocal_on_support,
)
from treeshift.errors import TooLarge
from treeshift.transfer_op import log_weights, psi

NINE_ADJACENCY = [
    [0, 0, 0, 0, 1, 1, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 1, 0, 0],
    [0, 1, 1, 0, 0, 0, 0, 0, 0],
    [1, 0, 1, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 0, 0],
]


def make_model(adjacency, d=2):
    n = len(adjacency)
    return AdjacencyModel(tuple(str(i) for i in range(n)), adjacency, d)


def block_counts(model, n: int) -> list[int]:
    """Exact number of admissible depth-n labeled trees per root symbol.

    Uses the recursion c_{k+1}(b) = (sum_a A[a, b] c_k(a))^d on big integers.
    """
    counts = [1] * model.n_symbols
    adj = model.adjacency
    for _ in range(n):
        counts = [
            int(sum(counts[a] for a in range(model.n_symbols) if adj[a, b])) ** model.arity
            for b in range(model.n_symbols)
        ]
    return counts


def full_cycle(model, r, x, rotation=0):
    """The full-matrix p-step cycle, starting with exponent r_rotation.

    Each step is ``psi`` on the whole log adjacency, so this is the
    reference for the eigen loop, which steps class block by class block.
    """
    log_adj = log_weights(model.adjacency)
    x = np.asarray(x, dtype=float)
    p = len(r)
    for i in range(p):
        x = psi(log_adj, float(r[(rotation + i) % p]), x)
    return x


# Listing reference: every admissible tree written out, against which the
# block-count recursion is checked.


@dataclass(frozen=True)
class BlockCounts:
    counts: tuple[int, ...]
    total: int
    trees: tuple[tuple[int, ...], ...] | None


def enumerate_blocks(model, n, root=None, want_list=False, list_guard=10**8):
    """Counts via the exact recursion, plus an optional explicit listing.

    The recursion is unbounded; the listing is guarded by ``list_guard`` and
    raises TooLarge beyond it.
    """
    counts = block_counts(model, n)
    if root is not None:
        total = counts[root]
    else:
        total = sum(counts)
    trees = None
    if want_list:
        if total > list_guard:
            raise TooLarge(f"{total} trees exceed the listing guard {list_guard}")
        roots = [root] if root is not None else list(range(model.n_symbols))
        trees = tuple(
            tree for r in roots for tree in _list_trees(model, n, r)
        )
    return BlockCounts(tuple(counts), total, trees)


def _list_trees(model, n, root):
    """Admissible depth-n labelings in BFS order, root fixed.

    Grows every tree one level at a time, each held as its flat labeling so
    far and its last level, whose slots pick the next level's labels.
    """
    d = model.arity
    children = [tuple(int(a) for a in model.children_of(b)) for b in range(model.n_symbols)]

    def levels_under(last):
        return itertools.product(*[children[b] for b in last for _ in range(d)])

    if n == 0:
        return [(root,)]
    layer = [((root,), (root,))]
    for _ in range(n - 1):
        layer = [(prefix + level, level) for prefix, last in layer for level in levels_under(last)]
    # the deepest level needs no pairs, only the flat trees
    return [tree for prefix, last in layer for tree in map(prefix.__add__, levels_under(last))]


def class_prob(fractions, cls):
    """A type class's exact probability, count * prod_(a,b) M[a,b]^K[a,b] with
    K the edge counts summed over the levels; ``fractions`` is M as
    ``oracle._exact_fractions`` gives it."""
    num, den = cls.count, 1
    for (a, b), k in np.ndenumerate(cls.total_edge_counts):
        num *= fractions[a][b].numerator ** int(k)
        den *= fractions[a][b].denominator ** int(k)
    return Fraction(num, den)


def ring_model(n):
    """A slow-mixing period-2 ring: child i + 1 under parent i (mod n), and
    the one chord 0 -> 3, for even n.  Its cycles have lengths n and n - 2,
    so the eigenvalue gap of its transfer cycle shrinks as n grows."""
    adj = np.zeros((n, n), dtype=int)
    adj[(np.arange(n) + 1) % n, np.arange(n)] = 1
    adj[3, 0] = 1
    return make_model(adj.tolist())


@pytest.fixture(scope="session")
def full2():
    return make_model([[1, 1], [1, 1]])


@pytest.fixture(scope="session")
def full3():
    return make_model([[1, 1, 1]] * 3)


@pytest.fixture(scope="session")
def golden():
    return make_model([[1, 1], [1, 0]])


@pytest.fixture(scope="session")
def swap2():
    return make_model([[0, 1], [1, 0]])


@pytest.fixture(scope="session")
def period2():
    return make_model([[0, 1, 1], [1, 0, 0], [1, 0, 0]])


@pytest.fixture(scope="session")
def nine():
    return make_model(NINE_ADJACENCY, d=3)


@pytest.fixture(scope="session")
def example1():
    """Primitive 2-symbol chain with one weighted edge (weight 2)."""
    m = [[0.5, 1.0], [0.5, 0.0]]
    w = [[1.0, 2.0], [1.0, 0.0]]
    return chain_from_matrices(m, w, d=2)


@pytest.fixture(scope="session")
def example2():
    """Irreducible period-2 chain with distinct phase limits."""
    m = np.array([[0, 1, 1], [1 / 3, 0, 0], [2 / 3, 0, 0]])
    return chain_from_matrices(m, m, d=2)


@pytest.fixture(scope="session")
def extreme():
    """Period-2 chain whose sample means alternate between two constants (W = M)."""
    m = np.array([[0.0, 1.0, 1.0], [0.5, 0.0, 0.0], [0.5, 0.0, 0.0]])
    return chain_from_matrices(m, m, d=2)


@pytest.fixture(scope="session")
def extreme_recip():
    """Same chain observed through the likelihood-decay weights W = 1/M."""
    m = np.array([[0.0, 1.0, 1.0], [0.5, 0.0, 0.0], [0.5, 0.0, 0.0]])
    return chain_from_matrices(m, reciprocal_on_support(m), d=2)


def random_a0_matrix(rng, n, density=0.55):
    """Random 0/1 matrix with every column sum positive."""
    while True:
        adj = (rng.random((n, n)) < density).astype(int)
        if (adj.sum(axis=0) > 0).all():
            return adj


# (seed, p, d) for ``periodic_model``
periodic_models = st.tuples(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 3))


def periodic_model(seed, p, d, max_symbols=None):
    """Random irreducible model of period p: classes of 1-3 symbols, edges
    only from class k to class k+1 (mod p).  A closed walk through every
    symbol and a p-cycle through the first symbol of each class fix
    irreducibility and the period; every other such edge is present with
    probability 0.6.  ``max_symbols`` draws the class sizes again until
    they add up to at most that many symbols."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 4, size=p)
    while max_symbols is not None and sizes.sum() > max_symbols:
        sizes = rng.integers(1, 4, size=p)
    first = np.cumsum(sizes) - sizes
    cls = np.repeat(np.arange(p), sizes)
    n = len(cls)
    adj = (cls[:, None] == (cls[None, :] + 1) % p) & (rng.random((n, n)) < 0.6)
    walk = [first[k] + t % sizes[k] for t in range(sizes.max()) for k in range(p)]
    walk += list(first)
    for parent, child in zip(walk, walk[1:] + walk[:1]):
        adj[child, parent] = True
    model = make_model(adj.astype(int).tolist(), d=d)
    period = find_a0_and_period(model)
    assert is_irreducible(model) and period.period == p
    return model, period
