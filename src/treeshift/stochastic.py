"""Reproducible Monte-Carlo over tree-indexed chains.

Randomness contract: every draw at level k of trial t comes from one
Philox-4x64 stream keyed by (seed, t << 32 | k), so samples are a pure
function of (seed, trial, level) and independent of evaluation order; trial
rows reduce in trial order.  A root drawn from a law takes the first uniform
of level 0's stream.  Two samplers read these streams.  ``sample_tree`` labels
BFS node i = level start + offset by inverse CDF from the uniform at that
offset of its level's stream, and keeps the whole tree.  ``running_means``
draws only each level's type: with N_b parents labeled b, the edge counts out
of them are Multinomial(d N_b, M[:, b]), drawn for b = 0, 1, ... in order from
the level's stream.  The two share the law of the types, not the draws.
Generator name recorded in reports: "philox4x64".
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import ModelValidationError, TooLarge
from .rate_function import WeightedChainModel, lln_limit
from .tree_core import LabeledTree, TreeShape, lattice_size

GENERATOR_NAME = "philox4x64"
DEFAULT_SAMPLE_CAP = 2**25
# standard errors a phase mean may lie from its limit and pass
PASS_SIGMA = 3.0


@dataclass(frozen=True)
class SampleConfig:
    """Depth, trial count, seed, and root law for sampling runs."""

    depth: int
    trials: int = 1
    seed: int = 0
    root: int | np.ndarray = 0
    node_cap: int = DEFAULT_SAMPLE_CAP

    def __post_init__(self):
        if self.trials < 1:
            raise ModelValidationError(f"need at least one trial, got {self.trials}")
        if self.depth < 0:
            raise ModelValidationError(f"depth must be >= 0, got {self.depth}")

    def check_size(self, d: int) -> int:
        count = lattice_size(d, self.depth)
        if count > self.node_cap:
            raise TooLarge(f"|Lambda({self.depth})| = {count} exceeds cap {self.node_cap}")
        return count


def _level_stream(
    seed: int, trial: int, level: int, rng: np.random.Generator | None = None
) -> np.random.Generator:
    """The Philox-4x64 stream of (seed, trial, level), from its first draw.

    With ``rng`` (a Philox generator) it re-keys that generator instead of
    building a new one: key set, counter zeroed, buffer emptied, which is
    the state a fresh ``Philox(key)`` starts in, for a fraction of the cost.
    """
    mask = 2**64 - 1
    key = np.array([seed & mask, ((trial << 32) | level) & mask], dtype=np.uint64)
    if rng is None:
        return np.random.Generator(np.random.Philox(key=key))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _root_label(chain: WeightedChainModel, config: SampleConfig, trial: int) -> int:
    if isinstance(config.root, (int, np.integer)):
        n = chain.base.n_symbols
        if not 0 <= config.root < n:
            raise ModelValidationError(f"root {config.root} is not a symbol index below {n}")
        return int(config.root)
    pi = np.asarray(config.root, dtype=float)
    u = float(_level_stream(config.seed, trial, 0).random(1)[0])
    return int(min(np.searchsorted(np.cumsum(pi), u, side="right"), pi.size - 1))


def _next_level(chain, parents: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of one full level given the parent labels per slot.

    The label is the count of the parent column's cumulative sums at or below
    u: the slots are grouped by parent symbol and each group takes one binary
    search, so memory stays linear in the level.  A draw past a column total
    that rounds below 1 takes the parent's last supported child, so every
    drawn edge is admissible.
    """
    cum = np.cumsum(chain.M, axis=0)
    order = np.argsort(parents, kind="stable")
    ends = np.cumsum(np.bincount(parents, minlength=cum.shape[1]))
    labels = np.empty(u.size, dtype=np.intp)
    for b, slots in enumerate(np.split(order, ends[:-1])):
        labels[slots] = np.searchsorted(cum[:, b], u[slots], side="right")
    last_child = chain.M.shape[0] - 1 - np.argmax(chain.M[::-1] > 0, axis=0)
    return np.minimum(labels, last_child[parents]).astype(np.int16)


def sample_tree(chain: WeightedChainModel, config: SampleConfig, trial: int = 0) -> LabeledTree:
    """One labeled tree, BFS order, fully materialized (guarded by the node cap)."""
    d = chain.arity
    config.check_size(d)
    levels = [np.array([_root_label(chain, config, trial)], dtype=np.int16)]
    rng = None
    for k in range(1, config.depth + 1):
        parents = np.repeat(levels[-1], d)
        rng = _level_stream(config.seed, trial, k, rng)
        u = rng.random(d**k)
        levels.append(_next_level(chain, parents, u))
    labels = np.concatenate(levels)
    return LabeledTree(TreeShape(d, config.depth, node_cap=config.node_cap), labels)


def _edge_counts(chain: WeightedChainModel, config: SampleConfig, trial: int):
    """Per-level type of one sampled tree: yields N[a, b], the edges b -> a into level k.

    Given the parent counts N_b, the children of the parents labeled b are
    Multinomial(d N_b, M[:, b]), independent across b.  Each draw runs over
    b's supported children only, with the column renormalized, so every
    drawn edge is admissible even where a column sums to slightly below 1.
    """
    d, n = chain.arity, chain.base.n_symbols
    sup = chain.base.adjacency == 1
    children = [np.flatnonzero(col) for col in sup.T]
    law = [chain.M[kids, b] / chain.M[kids, b].sum() for b, kids in enumerate(children)]
    counts = np.zeros(n, dtype=np.int64)
    counts[_root_label(chain, config, trial)] = 1
    rng = None
    for k in range(1, config.depth + 1):
        rng = _level_stream(config.seed, trial, k, rng)
        edges = np.zeros((n, n), dtype=np.int64)
        for b in np.flatnonzero(counts):
            edges[children[b], b] = rng.multinomial(d * counts[b], law[b])
        yield edges
        counts = edges.sum(axis=1)


def running_means(chain: WeightedChainModel, config: SampleConfig, trial: int) -> np.ndarray:
    """Sample means by depth m = 0..depth for one trial, drawn level by level as types.

    Level counts are int64, so a depth with d^depth >= 2^63 is rejected
    before any draw.
    """
    d = chain.arity
    if d ** min(config.depth, 63) >= 2**63:
        raise ModelValidationError(
            f"depth {config.depth} at d = {d}: a level of d^depth nodes overflows int64 counts"
        )
    out = np.zeros(config.depth + 1)
    acc = 0.0
    for k, edges in enumerate(_edge_counts(chain, config, trial), start=1):
        acc += float((edges * chain.log_w).sum())
        out[k] = acc / lattice_size(d, k)
    return out


@dataclass(frozen=True)
class PhaseCheck:
    phase: int
    depth: int
    target: float
    empirical: float
    stderr: float
    z_score: float
    passed: bool


@dataclass(frozen=True)
class ExperimentReport:
    trial_means: np.ndarray
    depth_means: np.ndarray          # trials x (depth+1)
    empirical_mean: float
    stderr: float
    phase_checks: tuple[PhaseCheck, ...]
    passed: bool
    generator: str
    seed: int


def lln_experiment(chain: WeightedChainModel, config: SampleConfig) -> ExperimentReport:
    """Compare sampled running means against the almost-sure phase limits.

    Means at depths congruent to j mod p are tested against the phase-j
    limit; aperiodic chains get a single check at the full depth.  A
    standard error needs at least two trials.
    """
    p = chain.base.structure.period
    if config.trials < 2:
        raise ModelValidationError(
            f"a standard error needs two or more trials, got {config.trials}"
        )
    if config.depth < p:
        raise ModelValidationError(f"depth {config.depth} leaves a phase of period {p} unsampled")
    depth_means = np.vstack([running_means(chain, config, t) for t in range(config.trials)])
    trial_means = depth_means[:, -1]
    emp = float(trial_means.mean())
    se = float(trial_means.std(ddof=1) / sqrt(config.trials))

    checks = []
    for j in range(p):
        depth = config.depth - (config.depth - j) % p  # the deepest level of phase j
        target = lln_limit(chain, j)
        col = depth_means[:, depth]
        c_emp = float(col.mean())
        c_se = float(col.std(ddof=1) / sqrt(config.trials))
        if c_se > 0:
            z = (c_emp - target) / c_se
        else:
            # degenerate sampling distribution: only the finite-depth
            # truncation bias, O(d^-depth), separates mean from limit
            allowance = max(1e-9, chain.log_w_max * (depth + 1) * chain.arity ** (-depth))
            z = 0.0 if abs(c_emp - target) <= allowance else float("inf")
        checks.append(
            PhaseCheck(
                phase=j, depth=depth, target=target, empirical=c_emp,
                stderr=c_se, z_score=float(z), passed=bool(abs(z) <= PASS_SIGMA),
            )
        )
    return ExperimentReport(
        trial_means=trial_means,
        depth_means=depth_means,
        empirical_mean=emp,
        stderr=se,
        phase_checks=tuple(checks),
        passed=all(c.passed for c in checks),
        generator=GENERATOR_NAME,
        seed=config.seed,
    )
