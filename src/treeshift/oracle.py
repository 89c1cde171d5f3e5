"""Exact ground truth at tiny scale: type classes, the law of the sample mean,
finite-n duality.

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

from .alphabet_graph import AdjacencyModel
from .errors import ModelValidationError, TooLarge
from .rate_function import (
    WeightedChainModel, _check_class, _check_finite, _extreme_sums, _legendre, _tilted_recursion,
)
from .tree_core import lattice_size

CLASS_GUARD = 10**6


class TypeClass(NamedTuple):
    """All labeled trees sharing the same level counts and edge counts."""

    levels: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[tuple[int, ...], ...], ...]
    count: int
    log_prob: float

    @property
    def total_edge_counts(self) -> np.ndarray:
        """Aggregated edge-count matrix K = sum_i k^(i), an integer tensor."""
        out = np.zeros((len(self.levels[0]), len(self.levels[0])), dtype=np.int64)
        for k in self.edges:
            out += np.asarray(k, dtype=np.int64)
        return out

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


def _checked_root(model: AdjacencyModel, n: int, root: int | None) -> int:
    """The root symbol (a0 by default), after checking it and the depth."""
    if n < 0:
        raise ModelValidationError(f"depth must be >= 0, got {n}")
    if root is None:
        return model.structure.a0
    if not 0 <= root < model.n_symbols:
        raise ModelValidationError(f"root {root} is not a symbol index below {model.n_symbols}")
    return root


class _Column(NamedTuple):
    """One choice of the edge counts k[:, b] under the parents labeled b."""

    counts: tuple[int, ...]  # k[a, b] for every symbol a
    multinomial: int  # (d N_b)! / prod_a k[a, b]!
    log_terms: tuple[float, ...]  # k[a, b] log M[a, b], children in order


def enumerate_type_classes(
    chain: WeightedChainModel,
    n: int,
    root: int | None = None,
    class_guard: int = CLASS_GUARD,
) -> list[TypeClass]:
    """Every integer count system consistent with depth n and the given root.

    One pass: the recursion carries each class's count and edge
    log-probability down the levels.  The transitions out of a level are built
    once per count vector N: each is one column choice per parent symbol, with
    its edge matrix, the next level's counts, the product of the choices'
    multinomials and the sum of their log terms.  The last level is a
    loop that appends one class per transition, with no call per class.
    """
    model = chain.base
    d = model.arity
    n_sym = model.n_symbols
    if class_guard < 0:
        raise ModelValidationError(f"class guard must be >= 0, got {class_guard}")
    root = _checked_root(model, n, root)
    children = [tuple(int(a) for a in model.children_of(b)) for b in range(n_sym)]
    log_m = np.where(chain.M > 0, np.log(np.where(chain.M > 0, chain.M, 1.0)), 0.0).tolist()

    @functools.cache
    def columns(b: int, parents: int) -> list[_Column]:
        """Every column k[:, b] under ``parents`` parents labeled b (none for a
        dead symbol that has parents: no admissible continuation)."""
        out = []
        for comp in _compositions(d * parents, len(children[b])):
            counts = [0] * n_sym
            for a, k in zip(children[b], comp):
                counts[a] = k
            log_terms = tuple(k * log_m[a][b] for a, k in zip(children[b], comp))
            out.append(_Column(tuple(counts), _multinomial(d * parents, comp), log_terms))
        return out

    @functools.cache
    def steps(nvec: tuple[int, ...]) -> list[tuple]:
        """Every transition out of a level with counts ``nvec``, as
        (kmat, next_n, multinomial, log-probability)."""
        out = []
        for combo in itertools.product(*[columns(b, nb) for b, nb in enumerate(nvec)]):
            kmat = tuple(zip(*[col.counts for col in combo]))
            mult = 1
            for col in combo:
                mult *= col.multinomial
            # terms by parent, then child, summed from 0: the float order of a
            # per-class sum (the zero terms of absent parents change no bit)
            dlog = sum(itertools.chain.from_iterable(col.log_terms for col in combo))
            out.append((kmat, tuple(map(sum, kmat)), mult, dlog))
        return out

    too_many = f"more than {class_guard} type classes at depth {n}"
    results: list[TypeClass] = []
    append = results.append

    def rec(nvec, levels, edges, count, log_prob_edges):
        if len(edges) < n - 1:
            for kmat, next_n, mult, dlog in steps(nvec):
                rec(next_n, levels + (next_n,), edges + (kmat,), count * mult,
                    log_prob_edges + dlog)
            return
        # the last level, one class per transition: the log-probability adds
        # in the float order of a call per class
        for kmat, next_n, mult, dlog in steps(nvec):
            c = count * mult
            append(TypeClass(levels + (next_n,), edges + (kmat,), c,
                             _log_big(c) + (log_prob_edges + dlog)))
            if len(results) > class_guard:
                raise TooLarge(too_many)

    start = tuple(1 if a == root else 0 for a in range(n_sym))
    if n:
        rec(start, (start,), (), 1, 0.0)
    else:
        append(TypeClass((start,), (), 1, 0.0))
        if class_guard < 1:
            raise TooLarge(too_many)
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

    def total_prob(self) -> float:
        return float(math.fsum(a.prob for a in self.atoms))


def exact_mean_distribution(
    chain: WeightedChainModel, n: int, root: int | None = None
) -> MeanDistribution:
    """The law of the depth-n sample mean, from the offspring generating function.

    G_m(b) generates the weighted-edge counts of a depth-m subtree rooted at b
    (the multitype branching-process recursion; Harris, 1963):

        G_0(b) = 1,    G_m(b) = (sum_a M[a, b] z^{e(a, b)} G_{m-1}(a))^d,

    where e(a, b) is the unit exponent of edge (a, b) when log W[a, b] != 0,
    and 0 otherwise.  Each monomial of G_n(root) is one atom: its exponents
    are the atom's key, its coefficient the atom's probability.  For dyadic M
    the coefficients of G_m are integers over D^(|Lambda(m)| - 1), D the lcm
    of M's denominators, so every probability is exact; otherwise they are
    floats.  A product of two polynomials with more than CLASS_GUARD pairs of
    terms raises TooLarge before it starts: the pairs bound its work and its
    terms.
    """
    model = chain.base
    root = _checked_root(model, n, root)
    n_sym = model.n_symbols
    log_w = chain.log_w
    weighted_edges = [(a, b) for a in range(n_sym) for b in range(n_sym) if log_w[a, b] != 0.0]
    total_nodes = lattice_size(chain.arity, n)
    # exponents packed as the digits of one integer in base |Lambda(n)|, which
    # exceeds every edge count: multiplying two monomials adds their keys
    digit = {edge: total_nodes**i for i, edge in enumerate(weighted_edges)}
    fractions = _exact_fractions(chain)
    if fractions is None:
        weight, den = chain.M.tolist(), 1
    else:
        den = math.lcm(*(f.denominator for row in fractions for f in row))
        weight = [[f.numerator * (den // f.denominator) for f in row] for row in fractions]
    terms = [
        [(a, digit.get((a, b), 0), weight[a][b]) for a in map(int, model.children_of(b))]
        for b in range(n_sym)
    ]

    def level(polys: list[dict], b: int) -> dict:
        offspring: dict[int, int | float] = {}
        for a, shift, w in terms[b]:
            for key, coef in polys[a].items():
                offspring[key + shift] = offspring.get(key + shift, 0) + w * coef
        return _power(offspring, model.arity)

    polys = [{0: 1}] * n_sym
    for _ in range(n - 1):
        polys = [level(polys, b) for b in range(n_sym)]
    top = level(polys, root) if n else polys[root]

    scale = den ** (total_nodes - 1)
    atoms = []
    for key, coef in top.items():
        counts = []
        for a, b in weighted_edges:
            key, cnt = divmod(key, total_nodes)
            counts.append((a, b, cnt))
        exact = Fraction(coef, scale) if fractions is not None else None
        atoms.append(
            MeanAtom(
                mean=float(sum(cnt * log_w[a, b] for a, b, cnt in counts) / total_nodes),
                prob=float(coef if exact is None else exact),
                prob_exact=exact,
                weighted_counts=tuple(counts),
            )
        )
    atoms.sort(key=lambda a: (a.mean, a.weighted_counts))
    return MeanDistribution(tuple(atoms), depth=n, root=root)


def _multiply(p: dict, q: dict) -> dict:
    if len(p) * len(q) > CLASS_GUARD:
        raise TooLarge(f"more than {CLASS_GUARD} term pairs in a generating-function product")
    out: dict = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return out


def _power(poly: dict, d: int) -> dict:
    """poly^d by repeated squaring (d >= 1)."""
    out = None
    while True:
        if d & 1:
            out = poly if out is None else _multiply(out, poly)
        d >>= 1
        if not d:
            return out
        poly = _multiply(poly, poly)


def finite_rate(chain: WeightedChainModel, class_index: int, n: int, alpha: float) -> float:
    """Finite-depth dual value F_{n,j}(alpha) = inf_mu -mu alpha + V_n(mu).

    V_n normalizes the n-step tilted recursion by the exact lattice size
    1/|Lambda(n)| (the infinite-depth pressure uses the idealized weight
    (d-1)/d^(n+1) instead; both share the same x-iteration).  With the exact
    normalization the Chernoff bound gives weak duality against enumerated
    type classes with no tolerance at all, only float roundoff.  A
    non-finite ``alpha`` or a class index outside [0, p) raises
    ModelValidationError, as in ``rate``.
    """
    _check_finite("alpha", alpha)
    _check_class(chain, class_index)
    total = float(lattice_size(chain.arity, n))
    mask = chain.base.structure.class_mask(class_index - n)

    def value_and_slope(mu: np.ndarray, stop=None) -> tuple[np.ndarray, np.ndarray]:
        # every row runs to depth n and is read at once: there is no early exit to take
        top, slope = _tilted_recursion(chain, mu, n, mask)
        return top / total, slope / total

    lo, hi = _extreme_sums(chain, n, mask)
    value, _ = _legendre(np.array([alpha], dtype=float), value_and_slope, lo / total, hi / total)
    return -float(value[0])
