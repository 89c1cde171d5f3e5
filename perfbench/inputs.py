"""Seeded model files for the benchmark workloads.

Every file is a pure function of the benchmark seed, so one seed always
gives byte-identical inputs.  Only the ``wide64_<i>.json`` files are
random; the other files are the worked examples.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

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

# Example 1: primitive 2-symbol chain with one weighted edge
EX1 = {
    "symbols": ["0", "1"],
    "adjacency": [[1, 1], [1, 0]],
    "d": 2,
    "M": [[0.5, 1.0], [0.5, 0.0]],
    "A": [[1.0, 2.0], [1.0, 0.0]],
}

# the extreme period-2 chain
EXTREME = {
    "symbols": ["0", "1", "2"],
    "adjacency": [[0, 1, 1], [1, 0, 0], [1, 0, 0]],
    "d": 2,
    "M": [[0.0, 1.0, 1.0], [0.5, 0.0, 0.0], [0.5, 0.0, 0.0]],
}

WIDE_SYMBOLS = 64
WIDE_EDGE_PROB = 0.3
WIDE_MODELS = 4  # the eigen-iteration count varies by model; four of them average it out
WIDE_MAX_DRAWS = 1000


def _uniform_on_support(adjacency) -> list[list[float]]:
    adj = np.asarray(adjacency, dtype=float)
    return (adj / adj.sum(axis=0, keepdims=True)).tolist()


def wide64_model(seed: int, index: int) -> dict:
    """Random irreducible period-2 model on 64 symbols, d = 2.

    Draws bipartite adjacency matrices (edges only between two halves) and
    rejects each draw until ``is_irreducible`` holds and the period is 2.
    """
    from treeshift.alphabet_graph import AdjacencyModel, find_a0_and_period, is_irreducible

    rng = np.random.default_rng([seed, WIDE_SYMBOLS, index])
    n = WIDE_SYMBOLS
    half = np.arange(n) < n // 2
    cross = half[:, None] != half[None, :]
    symbols = tuple(f"w{i}" for i in range(n))
    for _ in range(WIDE_MAX_DRAWS):
        adj = ((rng.random((n, n)) < WIDE_EDGE_PROB) & cross).astype(int)
        model = AdjacencyModel(symbols, adj, 2)
        if not model.satisfies_a0() or not is_irreducible(model):
            continue
        if find_a0_and_period(model).period == 2:
            return {"symbols": list(symbols), "adjacency": adj.tolist(), "d": 2}
    raise RuntimeError(f"no irreducible period-2 draw in {WIDE_MAX_DRAWS} tries")


def write_inputs(workdir: Path, seed: int) -> dict[str, str]:
    """Write every model file into ``workdir``; returns name -> SHA-256."""
    nine = {"symbols": [f"s{i}" for i in range(9)], "adjacency": NINE_ADJACENCY, "d": 3}
    files = {
        "nine.json": nine,
        "nine_chain.json": dict(nine, M=_uniform_on_support(NINE_ADJACENCY)),
        **{f"wide64_{i}.json": wide64_model(seed, i) for i in range(WIDE_MODELS)},
        "ex1.json": EX1,
        "extreme.json": EXTREME,
    }
    workdir.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, doc in files.items():
        data = json.dumps(doc).encode()
        (workdir / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests
