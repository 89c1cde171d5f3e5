"""Symbolic model: adjacency matrix, period/partition structure, reachability.

Every structural question (the a0 reduction, a0 and its period, closures,
the recurrent set, SCCs, irreducibility) is read from one dense boolean
transitive closure, ``_reach``: alphabets are small, so no graph traversal.
A model builds that closure once (``AdjacencyModel.reach``) and its period
structure once (``AdjacencyModel.structure``); every layer reads those.

Orientation convention, used everywhere in this package:

    rows index CHILDREN, columns index PARENTS.

``adjacency[a, b] == 1`` means a node labeled ``b`` may have a child labeled
``a``.  The parent-to-child digraph therefore has an edge b -> a exactly when
``adjacency[a, b] == 1``, and powers ``(A^n)[a, b] > 0`` count length-n
descendant chains from ``b`` down to ``a``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import log
from typing import Sequence

import numpy as np

from .errors import (
    A1Violated,
    ClassInconsistency,
    EmptyModel,
    ModelParseError,
    ModelValidationError,
    NoConvergence,
)

MAX_SYMBOLS = 64
# Collatz-Wielandt bracket width and step cap of linear_spectral_radius
PERRON_TOL = 1e-12
PERRON_MAX_ITER = 10**5


@dataclass(frozen=True)
class AdjacencyModel:
    """A 0/1 adjacency matrix over a named alphabet, plus the tree arity d."""

    symbols: tuple[str, ...]
    adjacency: np.ndarray
    arity: int

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=np.int64)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ModelValidationError(f"adjacency must be square, got shape {adj.shape}")
        if adj.shape[0] != len(self.symbols):
            raise ModelValidationError(
                f"{len(self.symbols)} symbols but adjacency is {adj.shape[0]}x{adj.shape[0]}"
            )
        if len(set(self.symbols)) != len(self.symbols):
            raise ModelValidationError("symbol names must be unique")
        bad = np.argwhere((adj != 0) & (adj != 1))
        if bad.size:
            r, c = bad[0]
            raise ModelValidationError(
                f"adjacency entries must be 0 or 1; offending entry at ({r}, {c})",
                row=int(r), col=int(c),
            )
        if self.arity < 2:
            raise ModelValidationError(f"arity must be >= 2, got {self.arity}")
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "symbols", tuple(self.symbols))

    @property
    def n_symbols(self) -> int:
        return len(self.symbols)

    def children_of(self, b: int) -> np.ndarray:
        """Symbols admissible as children of parent symbol b."""
        return np.nonzero(self.adjacency[:, b])[0]

    def satisfies_a0(self) -> bool:
        """Every symbol admits at least one child (all column sums positive)."""
        return bool((self.adjacency.sum(axis=0) > 0).all())

    def submodel(self, keep: Sequence[int]) -> "AdjacencyModel":
        keep = list(keep)
        sub = self.adjacency[np.ix_(keep, keep)]
        return AdjacencyModel(tuple(self.symbols[i] for i in keep), sub, self.arity)

    @cached_property
    def reach(self) -> np.ndarray:
        """The model's one closure ``_reach(adjacency)``, built once and read-only."""
        reach = _reach(self.adjacency)
        reach.setflags(write=False)
        return reach

    @cached_property
    def structure(self) -> "PeriodStructure":
        """a0, its period and the mod-p classes: ``find_a0_and_period``, computed once."""
        return find_a0_and_period(self)


@dataclass(frozen=True)
class PeriodStructure:
    """Distinguished symbol a0, its period p, and the induced class partition.

    ``classes[j]`` holds the symbols reachable from a0 at generation distance
    congruent to j mod p; ``class_of[a]`` is that j (a0 reaches every symbol).
    """

    a0: int
    period: int
    classes: tuple[frozenset[int], ...]
    class_of: tuple[int, ...]

    def class_mask(self, j: int) -> np.ndarray:
        mask = np.zeros(len(self.class_of), dtype=bool)
        mask[list(self.classes[j % self.period])] = True
        return mask


def model_from_dict(data: dict) -> AdjacencyModel:
    """Build a model from the JSON schema {"symbols", "adjacency", "d", ...}.

    ``adjacency`` is row-major with row = child.  Raises ModelParseError for
    missing/ill-typed fields and ModelValidationError (with row/column indices
    where possible) for structural violations.
    """
    if not isinstance(data, dict):
        raise ModelParseError("model document must be a JSON object")
    try:
        symbols = [str(s) for s in data["symbols"]]
        rows = data["adjacency"]
        d = int(data["d"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelParseError(f"model file needs 'symbols', 'adjacency', 'd': {exc}") from exc
    if len(symbols) > MAX_SYMBOLS:
        raise ModelValidationError(f"{len(symbols)} symbols exceeds the cap of {MAX_SYMBOLS}")
    n = len(symbols)
    if not isinstance(rows, list) or len(rows) != n:
        raise ModelValidationError(f"adjacency must have {n} rows", row=len(rows) if isinstance(rows, list) else None)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ModelValidationError(f"adjacency row {i} must have {n} entries", row=i)
    return AdjacencyModel(tuple(symbols), np.array(rows), d)


def _reach(adjacency: np.ndarray) -> np.ndarray:
    """Boolean closure: ``reach[b, a]`` when a is b or a descendant of b.

    ceil(log2(n - 1)) squarings of ``I + A^T`` cover every walk of length
    n - 1; the float entries stay integers at most n, so they are exact.
    """
    n = len(adjacency)
    reach = np.eye(n) + np.asarray(adjacency, dtype=float).T > 0
    for _ in range(max(n - 2, 0).bit_length()):
        step = reach.astype(float)
        reach = step @ step > 0
    return reach


def _sccs(reach: np.ndarray) -> list[list[int]]:
    """Strongly connected components of the parent->child digraph of closure ``reach``.

    Two symbols share a component when each reaches the other; the
    components are listed by their smallest member, each in ascending order.
    """
    mutual = reach & reach.T
    leaders = np.flatnonzero(mutual.argmax(axis=1) == np.arange(len(mutual)))
    return [np.flatnonzero(mutual[a]).tolist() for a in leaders]


def _recurrent(adjacency: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """Mask of symbols on a directed cycle: a child reaches back to them."""
    return (np.asarray(adjacency, dtype=bool) & reach).any(axis=0)


def reduce_a0(model: AdjacencyModel) -> AdjacencyModel:
    """Largest principal submatrix whose column sums are all positive.

    Symbols with no admissible child can never label a node of an infinite
    tree; deleting them (to a fixpoint) leaves the tree-shift unchanged.  The
    fixpoint keeps exactly the symbols that reach a directed cycle.
    """
    reach = model.reach
    keep = np.flatnonzero(reach[:, _recurrent(model.adjacency, reach)].any(axis=1))
    if keep.size == 0:
        raise EmptyModel("every symbol was deleted: no column-positive submatrix exists")
    if keep.size == model.n_symbols:
        return model
    return model.submodel(keep)


def find_a0_and_period(model: AdjacencyModel, a0: int | None = None) -> PeriodStructure:
    """Pick a generating symbol, its period, and the mod-p class partition.

    A symbol qualifies as a0 when every symbol appears among its descendants.
    Ties break to the smallest index (the choice does not change the period
    or any quantity derived from the partition).  The period is the gcd of
    cycle lengths through a0, computed as gcd of dist(u)+1-dist(v) over edges
    u->v inside a0's strongly connected component.  Classes are BFS distance
    from a0 mod p; edge consistency of that labeling is verified and a
    ClassInconsistency is raised where the partition is ill-defined.
    """
    adj = model.adjacency
    if not model.satisfies_a0():
        raise ModelValidationError("model has empty columns; call reduce_a0 first")
    reach = model.reach
    if a0 is None:
        generators = np.flatnonzero(reach.all(axis=1))
        if generators.size == 0:
            raise A1Violated(
                "no symbol generates every symbol as a descendant",
                recurrent=np.flatnonzero(_recurrent(adj, reach)).tolist(),
            )
        a0 = generators[0]
    if not reach[a0].all():
        raise A1Violated(f"symbol {a0} does not generate every symbol", recurrent=())

    # BFS distances from a0, one frontier (a mask of parents) per generation
    dist = np.full(len(adj), -1)
    frontier, k = np.arange(len(adj)) == a0, 0
    while frontier.any():
        dist[frontier] = k
        frontier, k = adj[:, frontier].any(axis=1) & (dist < 0), k + 1

    home = reach[:, a0]  # a0 reaches every symbol: its SCC is what reaches back
    v, u = np.nonzero(adj * np.outer(home, home))
    p = int(np.gcd.reduce(dist[u] + 1 - dist[v]))
    if p == 0:
        # a0 lies on no cycle; (A1) plus (A0) force a cycle somewhere below,
        # so this only happens for a0 outside every cycle, which (A1) forbids.
        raise A1Violated(f"symbol {a0} lies on no cycle", recurrent=())

    class_of = dist % p
    # the first offending edge in parent-major order, as (parent, child)
    bad = np.argwhere((adj.T == 1) & (class_of[None, :] != (class_of[:, None] + 1) % p))
    if bad.size:
        b, a = bad[0]
        raise ClassInconsistency(
            f"edge {b}->{a} breaks the mod-{p} class labeling", row=int(a), col=int(b)
        )
    classes = tuple(frozenset(np.flatnonzero(class_of == j).tolist()) for j in range(p))
    return PeriodStructure(int(a0), p, classes, tuple(class_of.tolist()))


def is_irreducible(model: AdjacencyModel) -> bool:
    """True when the parent->child digraph is strongly connected."""
    return bool(model.reach.all())


def linear_spectral_radius(w: np.ndarray) -> float:
    """log of the spectral radius of a nonnegative matrix.

    Decomposes into SCCs and takes the max Perron value over the diagonal
    blocks; raw power iteration on the full matrix can stall on nilpotent
    parts.  Each block is shifted by the identity so the iteration is
    primitive, and the Collatz-Wielandt bracket gives a certified enclosure.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ModelValidationError(f"matrix must be square, got {w.shape}")
    if (w < 0).any():
        raise ModelValidationError("matrix must be nonnegative")
    best = -np.inf
    for comp in _sccs(_reach(w > 0)):
        rho = _perron_value(w[np.ix_(comp, comp)], PERRON_TOL, PERRON_MAX_ITER)
        best = max(best, log(rho) if rho > 0 else -np.inf)
    return best


def _perron_value(block: np.ndarray, tol: float, max_iter: int) -> float:
    """Perron root of an irreducible nonnegative block, certified by Collatz-Wielandt.

    For a positive x the ratios ((B + I) x)_i / x_i bracket the root plus 1.
    x starts as the modulus of numpy's eigenvector for the largest real
    eigenvalue, which closes the bracket at once even where the spectral gap
    is tiny.  If that seed has a zero entry or its bracket is not below
    ``tol``, shifted power iteration continues from it.
    """
    m = block.shape[0]
    if m == 1:
        return float(block[0, 0])
    vals, vecs = np.linalg.eig(block)
    x = np.abs(vecs[:, np.argmax(vals.real)])
    shifted = block + np.eye(m)
    lo, hi = 0.0, np.inf
    for _ in range(max_iter):
        y = shifted @ x
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = y / x  # inf or nan (no bracket) while x has a zero entry
        lo, hi = ratios.min(), ratios.max()
        if hi - lo < tol:
            return 0.5 * (lo + hi) - 1.0
        x = y / y.sum()
    raise NoConvergence(
        f"Collatz-Wielandt bracket stagnated at width {hi - lo:.3e}",
        bracket=(lo - 1.0, hi - 1.0),
    )
