"""Sizes of finite rooted d-trees.

Level k of a rooted d-tree holds the d^k nodes at generation distance k
from the root, so the first n+1 levels, the block Lambda(n), hold
(d^(n+1) - 1) / (d - 1) nodes.  The package reads a tree only through its
type, the per-level edge counts; this module keeps the node count that
normalizes every sample mean, and the int64 bound it must stay within.
"""
from __future__ import annotations

from .errors import Overflow

INT64_MAX = 2**63 - 1


def lattice_size(d: int, n: int) -> int:
    """Number of nodes in the first n+1 levels: (d^(n+1) - 1) / (d - 1)."""
    if d < 2 or n < 0:
        raise ValueError(f"need d >= 2 and n >= 0, got d={d}, n={n}")
    size = (d ** (n + 1) - 1) // (d - 1)
    if size > INT64_MAX:
        raise Overflow(f"|Lambda({n})| = {size} exceeds 2**63 - 1")
    return size
