"""Exact ground truth at tiny scale: block counts, type classes, finite-n duality.

Counting conventions.  A type class fixes the per-level symbol counts N^(i)
and the per-level edge counts k^(i)[a, b] (children labeled a under parents
labeled b, between levels i and i+1).  Child slots are distinguishable and
labeled independently given the parents, so the class size is the exact
product of multinomials

    prod_i prod_b  (d N^(i)_b)! / prod_a k^(i)[a, b]!

and the probability of any single member is prod M^k.  Counts use Python big
integers throughout; 64-bit multinomials already overflow at n = 4, d = 2.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .alphabet_graph import AdjacencyModel, PeriodStructure, find_a0_and_period
from .errors import ModelValidationError, TooLarge
from .rate_function import WeightedChainModel, _extreme_sums, _legendre, _tilted_recursion
from .tree_core import lattice_size

LIST_GUARD = 10**8
CLASS_GUARD = 10**6


def block_counts(model: AdjacencyModel, n: int) -> list[int]:
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


@dataclass(frozen=True)
class BlockCounts:
    counts: tuple[int, ...]
    total: int
    trees: tuple[tuple[int, ...], ...] | None


def enumerate_blocks(
    model: AdjacencyModel,
    n: int,
    root: int | None = None,
    want_list: bool = False,
    list_guard: int = LIST_GUARD,
) -> BlockCounts:
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


def _list_trees(model: AdjacencyModel, n: int, root: int) -> list[tuple[int, ...]]:
    """Admissible depth-n labelings in BFS order, root fixed.

    Grows every tree one level at a time, each held as its flat labeling so
    far and its last level, whose slots pick the next level's labels.
    """
    d = model.arity
    children = [tuple(int(a) for a in model.children_of(b)) for b in range(model.n_symbols)]

    def levels_under(last: tuple[int, ...]):
        return itertools.product(*[children[b] for b in last for _ in range(d)])

    if n == 0:
        return [(root,)]
    layer = [((root,), (root,))]
    for _ in range(n - 1):
        layer = [(prefix + level, level) for prefix, last in layer for level in levels_under(last)]
    # the deepest level needs no pairs, only the flat trees
    return [tree for prefix, last in layer for tree in map(prefix.__add__, levels_under(last))]


@dataclass(frozen=True)
class TypeClass:
    """All labeled trees sharing the same level counts and edge counts."""

    levels: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[tuple[int, ...], ...], ...]
    count: int
    log_prob: float
    prob: Fraction | None

    @property
    def total_edge_counts(self) -> np.ndarray:
        """Aggregated edge-count matrix K = sum_i k^(i), an integer tensor."""
        out = np.zeros((len(self.levels[0]), len(self.levels[0])), dtype=np.int64)
        for k in self.edges:
            out += np.asarray(k, dtype=np.int64)
        return out

    def empirical_pair(self, model: AdjacencyModel) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Implied level distributions and transitions (adjacency fallback columns)."""
        d = model.arity
        adj = model.adjacency.astype(float)
        fallback = adj / adj.sum(axis=0, keepdims=True)
        taus = []
        etas = []
        for i, level in enumerate(self.levels):
            nvec = np.asarray(level, dtype=float)
            taus.append(nvec / nvec.sum())
            if i < len(self.edges):
                kmat = np.asarray(self.edges[i], dtype=float)
                eta = fallback.copy()
                present = nvec > 0
                eta[:, present] = kmat[:, present] / (d * nvec[present])
                etas.append(eta)
        return taus, etas

    def mean(self, chain: WeightedChainModel) -> float:
        """Exact sample-mean value shared by every member of the class."""
        k = self.total_edge_counts
        sup = k > 0
        total_nodes = sum(sum(level) for level in self.levels)
        return float((k[sup] * chain.log_w[sup]).sum() / total_nodes)


def _log_big(x: int) -> float:
    if x <= 0:
        raise ValueError("log of a nonpositive integer")
    if x.bit_length() <= 900:
        return math.log(x)
    shift = x.bit_length() - 60
    return math.log(x >> shift) + shift * math.log(2.0)


def _multinomial(total: int, parts: tuple[int, ...]) -> int:
    out = math.factorial(total)
    for k in parts:
        out //= math.factorial(k)
    return out


def _exact_sum(values: list[Fraction]) -> Fraction:
    """Sum over one common denominator: one reduction instead of one per term."""
    den = math.lcm(*(v.denominator for v in values))
    return Fraction(sum(v.numerator * (den // v.denominator) for v in values), den)


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _exact_fractions(chain: WeightedChainModel) -> list[list[Fraction]] | None:
    """Fractions for M when its float entries are exactly rational per column.

    Binary floats are exact rationals; the column-sum test distinguishes
    genuinely dyadic input (1/2, 3/4, ...) from rounded decimals (0.333...),
    for which we fall back to log-domain arithmetic.
    """
    n = chain.base.n_symbols
    fr = [[Fraction(float(chain.M[a, b])) for b in range(n)] for a in range(n)]
    for b in range(n):
        if sum(fr[a][b] for a in range(n)) != 1:
            return None
    return fr


class _Column(NamedTuple):
    """One choice of the edge counts k[:, b] under the parents labeled b."""

    counts: tuple[int, ...]  # k[a, b] for every symbol a
    multinomial: int  # (d N_b)! / prod_a k[a, b]!
    log_terms: tuple[float, ...]  # k[a, b] log M[a, b], children in order
    num: int  # prod_a M[a, b]^k[a, b] = num / den, when M is exact
    den: int


def enumerate_type_classes(
    chain: WeightedChainModel,
    n: int,
    root: int | None = None,
    class_guard: int = CLASS_GUARD,
) -> list[TypeClass]:
    """Every integer count system consistent with depth n and the given root.

    One pass: the recursion carries each class's count, edge log-probability
    and exact probability down the levels, multiplying in one column choice
    per parent symbol; the choices are built once per (b, N_b).
    """
    model = chain.base
    d = model.arity
    n_sym = model.n_symbols
    if n < 0:
        raise ModelValidationError(f"depth must be >= 0, got {n}")
    if class_guard < 0:
        raise ModelValidationError(f"class guard must be >= 0, got {class_guard}")
    if root is None:
        root = find_a0_and_period(model).a0
    elif not 0 <= root < n_sym:
        raise ModelValidationError(f"root {root} is not a symbol index below {n_sym}")
    children = [tuple(int(a) for a in model.children_of(b)) for b in range(n_sym)]
    fractions = _exact_fractions(chain)
    log_m = np.where(chain.M > 0, np.log(np.where(chain.M > 0, chain.M, 1.0)), 0.0).tolist()

    @functools.cache
    def columns(b: int, parents: int) -> list[_Column]:
        """Every column k[:, b] under ``parents`` parents labeled b (none for a
        dead symbol that has parents: no admissible continuation)."""
        out = []
        for comp in _compositions(d * parents, len(children[b])):
            counts = [0] * n_sym
            num = den = 1
            for a, k in zip(children[b], comp):
                counts[a] = k
                if fractions is not None:
                    num *= fractions[a][b].numerator ** k
                    den *= fractions[a][b].denominator ** k
            log_terms = tuple(k * log_m[a][b] for a, k in zip(children[b], comp))
            out.append(_Column(tuple(counts), _multinomial(d * parents, comp), log_terms, num, den))
        return out

    results: list[TypeClass] = []

    def rec(nvec, levels, edges, count, log_prob_edges, num, den):
        if len(edges) == n:
            results.append(
                TypeClass(
                    levels=levels,
                    edges=edges,
                    count=count,
                    log_prob=_log_big(count) + log_prob_edges,
                    prob=Fraction(count * num, den) if fractions is not None else None,
                )
            )
            if len(results) > class_guard:
                raise TooLarge(f"more than {class_guard} type classes at depth {n}")
            return
        for combo in itertools.product(*[columns(b, nb) for b, nb in enumerate(nvec)]):
            kmat = tuple(zip(*[col.counts for col in combo]))
            next_n = tuple(map(sum, kmat))
            c, p, q = count, num, den
            for col in combo:
                c *= col.multinomial
                p *= col.num
                q *= col.den
            # terms by parent, then child, summed from 0: the float order of a
            # per-class sum (the zero terms of absent parents change no bit)
            dlog = sum(itertools.chain.from_iterable(col.log_terms for col in combo))
            rec(next_n, levels + (next_n,), edges + (kmat,), c, log_prob_edges + dlog, p, q)

    start = tuple(1 if a == root else 0 for a in range(n_sym))
    rec(start, (start,), (), 1, 0.0, 1, 1)
    return results


@dataclass(frozen=True)
class MeanAtom:
    mean: float
    prob: float
    prob_exact: Fraction | None
    weighted_counts: tuple[tuple[int, int, int], ...]  # (child, parent, count)


@dataclass(frozen=True)
class MeanDistribution:
    """Exact distribution of the depth-n sample mean.

    Grouping keys are integer count vectors over the edges with nonzero
    log-weight, never floating means: equal keys force exactly equal means,
    and no float-equality comparison ever happens.
    """

    atoms: tuple[MeanAtom, ...]
    depth: int
    root: int

    def prob_in(self, lo: float, hi: float) -> float:
        return float(sum(a.prob for a in self.atoms if lo <= a.mean <= hi))

    def prob_in_exact(self, lo: float, hi: float) -> Fraction | None:
        if any(a.prob_exact is None for a in self.atoms):
            return None
        return sum(a.prob_exact for a in self.atoms if lo <= a.mean <= hi)

    def total_prob(self) -> float:
        return float(math.fsum(a.prob for a in self.atoms))


def exact_mean_distribution(
    chain: WeightedChainModel,
    n: int,
    root: int | None = None,
    class_guard: int = CLASS_GUARD,
) -> MeanDistribution:
    """Aggregate type classes by their aggregated edge-count tensor."""
    if root is None:
        root = find_a0_and_period(chain.base).a0
    classes = enumerate_type_classes(chain, n, root, class_guard=class_guard)
    return mean_distribution(chain, classes, n, root)


def mean_distribution(
    chain: WeightedChainModel, classes: list[TypeClass], n: int, root: int
) -> MeanDistribution:
    """Group the depth-n type classes of ``root`` by their weighted edge counts."""
    total_nodes = lattice_size(chain.arity, n)
    log_w = chain.log_w
    weighted_edges = [
        (a, b) for a in range(chain.base.n_symbols)
        for b in range(chain.base.n_symbols) if log_w[a, b] != 0.0
    ]

    grouped: dict[tuple, list[TypeClass]] = {}
    for cls in classes:
        key = tuple((a, b, sum(k[a][b] for k in cls.edges)) for a, b in weighted_edges)
        grouped.setdefault(key, []).append(cls)

    atoms = []
    for key, members in grouped.items():
        mean = float(sum(cnt * log_w[a, b] for a, b, cnt in key) / total_nodes)
        exacts = None
        if members[0].prob is not None:
            exacts = [cls.prob for cls in members if cls.prob is not None]
        atoms.append(
            MeanAtom(
                mean=mean,
                prob=float(math.fsum(math.exp(cls.log_prob) for cls in members)),
                prob_exact=_exact_sum(exacts) if exacts is not None else None,
                weighted_counts=key,
            )
        )
    atoms.sort(key=lambda a: a.mean)
    return MeanDistribution(tuple(atoms), depth=n, root=root)


def finite_rate(
    chain: WeightedChainModel,
    class_index: int,
    n: int,
    alpha: float,
    period: PeriodStructure | None = None,
) -> float:
    """Finite-depth dual value F_{n,j}(alpha) = inf_mu -mu alpha + V_n(mu).

    V_n normalizes the n-step tilted recursion by the exact lattice size
    1/|Lambda(n)| (the infinite-depth pressure uses the idealized weight
    (d-1)/d^(n+1) instead; both share the same x-iteration).  With the exact
    normalization the Chernoff bound gives weak duality against enumerated
    type classes with no tolerance at all, only float roundoff.
    """
    if period is None:
        period = find_a0_and_period(chain.base)
    total = float(lattice_size(chain.arity, n))
    mask = period.class_mask((class_index - n) % period.period, chain.base.n_symbols)

    def value_and_slope(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        top, slope = _tilted_recursion(chain, mu, n, mask)
        return top / total, slope / total

    lo, hi = _extreme_sums(chain, n, mask)
    value, _ = _legendre(np.array([alpha], dtype=float), value_and_slope, lo / total, hi / total)
    return -float(value[0])
