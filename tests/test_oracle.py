import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from math import inf, log
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import (
    chain_from_matrices,
    find_a0_and_period,
    is_irreducible,
    lattice_size,
    lln_limit,
    rate,
)
from treeshift import oracle
from treeshift.errors import ModelValidationError, TooLarge
from treeshift.oracle import (
    MeanAtom,
    MeanDistribution,
    TypeClass,
    _compositions,
    _exact_fractions,
    _log_big,
    _multinomial,
    enumerate_type_classes,
    exact_mean_distribution,
    finite_rate,
)
from treeshift.rate_function import _tilted_recursion

from conftest import block_counts, class_prob, enumerate_blocks, make_model, random_a0_matrix


# Reference: the per-leaf enumeration the one-pass recursion replaced.  Every
# leaf recomputes the multinomials of all levels and the log-probability of
# every edge.  The property test below holds the fast code to it, class for
# class and bit for bit.


def _ref_enumerate(chain, n, root, class_guard):
    model = chain.base
    d = model.arity
    n_sym = model.n_symbols
    children = [tuple(int(a) for a in model.children_of(b)) for b in range(n_sym)]
    log_m = np.where(chain.M > 0, np.log(np.where(chain.M > 0, chain.M, 1.0)), 0.0)

    results = []

    def rec(level_idx, nvec, levels, edge_mats, log_prob_edges):
        if level_idx == n:
            count = 1
            for i, kmat in enumerate(edge_mats):
                for b in range(n_sym):
                    col = tuple(kmat[a][b] for a in range(n_sym))
                    if sum(col):
                        count *= _multinomial(sum(col), col)
            results.append(
                TypeClass(
                    levels=tuple(levels),
                    edges=tuple(tuple(tuple(row) for row in kmat) for kmat in edge_mats),
                    count=count,
                    log_prob=_log_big(count) + log_prob_edges,
                )
            )
            if len(results) > class_guard:
                raise TooLarge(f"more than {class_guard} type classes at depth {n}")
            return
        parents = [b for b in range(n_sym) if nvec[b] > 0]
        options = []
        for b in parents:
            if not children[b]:
                options.append([])
                continue
            opts = []
            for comp in _compositions(d * nvec[b], len(children[b])):
                col = [0] * n_sym
                for a, cnt in zip(children[b], comp):
                    col[a] = cnt
                opts.append(col)
            options.append(opts)
        for combo in itertools.product(*options):
            kmat = [[0] * n_sym for _ in range(n_sym)]
            for b, col in zip(parents, combo):
                for a in range(n_sym):
                    kmat[a][b] = col[a]
            next_n = tuple(sum(kmat[a][b] for b in parents) for a in range(n_sym))
            dlog = sum(
                kmat[a][b] * log_m[a, b] for b in parents for a in children[b]
            )
            rec(level_idx + 1, next_n, levels + [next_n], edge_mats + [kmat],
                log_prob_edges + dlog)

    start = tuple(1 if a == root else 0 for a in range(n_sym))
    rec(0, start, [start], [], 0.0)
    return results


# Reference: the law of the sample mean as the grouping of the enumerated type
# classes by their weighted edge counts.  The generating function must give
# the same atoms: the same keys and means, and the same exact probabilities
# (each class's from its count and edge counts, ``class_prob``).


def mean_distribution(chain, classes, n, root):
    """Group the depth-n type classes of ``root`` by their weighted edge counts."""
    total_nodes = lattice_size(chain.arity, n)
    log_w = chain.log_w
    fractions = _exact_fractions(chain)
    weighted_edges = [
        (a, b) for a in range(chain.base.n_symbols)
        for b in range(chain.base.n_symbols) if log_w[a, b] != 0.0
    ]

    grouped = {}
    for cls in classes:
        key = tuple((a, b, sum(k[a][b] for k in cls.edges)) for a, b in weighted_edges)
        grouped.setdefault(key, []).append(cls)

    atoms = []
    for key, members in grouped.items():
        atoms.append(
            MeanAtom(
                mean=float(sum(cnt * log_w[a, b] for a, b, cnt in key) / total_nodes),
                prob=float(math.fsum(math.exp(cls.log_prob) for cls in members)),
                prob_exact=None if fractions is None else sum(
                    class_prob(fractions, c) for c in members
                ),
                weighted_counts=key,
            )
        )
    atoms.sort(key=lambda a: (a.mean, a.weighted_counts))
    return MeanDistribution(tuple(atoms), depth=n, root=root)


def assert_same_atoms(got, ref):
    """Keys, means bit for bit, exact probabilities equal; float probabilities
    correctly rounded when exact, else within 1e-12 of the reference."""
    assert (got.depth, got.root) == (ref.depth, ref.root)
    assert [a.weighted_counts for a in got.atoms] == [a.weighted_counts for a in ref.atoms]
    assert [a.mean.hex() for a in got.atoms] == [a.mean.hex() for a in ref.atoms]
    assert [a.prob_exact for a in got.atoms] == [a.prob_exact for a in ref.atoms]
    for g, r in zip(got.atoms, ref.atoms):
        if g.prob_exact is not None:
            assert g.prob == float(g.prob_exact)
        else:
            assert g.prob == pytest.approx(r.prob, rel=1e-12)


def _random_chain(seed, n_sym, d, denominator):
    """Random irreducible chain; M's entries are multiples of 1/denominator."""
    rng = np.random.default_rng(seed)
    while True:
        adj = (rng.random((n_sym, n_sym)) < 0.6).astype(int)
        if (adj.sum(axis=0) > 0).all() and is_irreducible(make_model(adj.tolist(), d=d)):
            break
    m = np.zeros((n_sym, n_sym))
    for b in range(n_sym):
        rows = np.flatnonzero(adj[:, b])
        cuts = np.sort(rng.choice(np.arange(1, denominator), len(rows) - 1, replace=False))
        m[rows, b] = np.diff(np.concatenate([[0], cuts, [denominator]])) / denominator
    w = np.where(adj == 1, rng.choice([0.5, 1.0, 2.0, 3.0], size=adj.shape), 0.0)
    return chain_from_matrices(m, w, d=d)


def _outcome(enumerate_fn, chain, n, root, class_guard):
    try:
        return enumerate_fn(chain, n, root, class_guard)
    except TooLarge:
        return "TooLarge"


def small_fixtures():
    """|A| <= 3 models used for exhaustive cross-checks."""
    models = [
        make_model([[1, 1], [1, 1]]),
        make_model([[1, 1], [1, 0]]),
        make_model([[0, 1], [1, 0]]),
        make_model([[0, 1, 1], [1, 0, 0], [1, 0, 0]]),
        make_model([[0, 1, 1], [1, 0, 0], [1, 0, 1]]),
    ]
    rng = np.random.default_rng(1234)
    for _ in range(4):
        models.append(make_model(random_a0_matrix(rng, 3).tolist()))
    return models


class TestBlockCounts:
    def test_full_shift_depth_one(self, full2):
        bc = enumerate_blocks(full2, 1)
        assert bc.counts == (4, 4)
        assert bc.total == 8

    def test_period2_counts(self, period2):
        assert enumerate_blocks(period2, 1).counts == (4, 1, 1)
        assert enumerate_blocks(period2, 2).counts == (4, 16, 16)

    def test_recursion_matches_listing(self):
        for model in small_fixtures():
            for n in (1, 2, 3):
                recursion = block_counts(model, n)
                for root in range(model.n_symbols):
                    listed = enumerate_blocks(model, n, root=root, want_list=True)
                    assert len(listed.trees) == recursion[root]

    def test_listing_guard(self, full2):
        with pytest.raises(TooLarge):
            enumerate_blocks(full2, 4, want_list=True, list_guard=10)


class TestTypeClasses:
    def test_probabilities_sum_to_one(self, example1):
        for n in (1, 2, 3, 4):
            classes = enumerate_type_classes(example1, n, root=0)
            fractions = _exact_fractions(example1)
            total = sum(class_prob(fractions, c) for c in classes)
            assert isinstance(total, Fraction) and total == 1

    def test_inexact_matrix_falls_back_to_logs(self, example2):
        assert _exact_fractions(example2) is None
        classes = enumerate_type_classes(example2, 2, root=0)
        total = sum(np.exp(c.log_prob) for c in classes)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_counts_partition_blocks(self, example1):
        for n in (1, 2, 3):
            classes = enumerate_type_classes(example1, n, root=0)
            assert sum(c.count for c in classes) == block_counts(example1.base, n)[0]

    def test_level_invariants(self, example1):
        d = example1.arity
        for cls in enumerate_type_classes(example1, 3, root=0):
            for i, kmat in enumerate(cls.edges):
                karr = np.asarray(kmat)
                for b in range(2):
                    assert karr[:, b].sum() == d * cls.levels[i][b]
                assert tuple(karr.sum(axis=1)) == cls.levels[i + 1]
                assert np.all(karr * (1 - example1.base.adjacency) == 0)

    def test_distribution_count_bounds(self):
        # admissible distribution/transition tuples grow subexponentially
        for model in small_fixtures():
            m = np.where(
                model.adjacency.sum(axis=0) > 0,
                model.adjacency / np.maximum(model.adjacency.sum(axis=0), 1),
                0.0,
            )
            chain = chain_from_matrices(m, d=2, symbols=model.symbols)
            n_sym = model.n_symbols
            depths = (2, 3, 4) if n_sym == 2 else (2, 3)
            for n in depths:
                try:
                    classes = enumerate_type_classes(chain, n, root=0)
                except TooLarge:
                    continue
                dists = {cls.levels for cls in classes}
                trans = {cls.edges for cls in classes}
                dist_bound = 1
                trans_bound = 1
                for i in range(n + 1):
                    dist_bound *= (2**i + 1) ** n_sym
                for i in range(n):
                    trans_bound *= (2**i + 1) ** (n_sym * (n_sym + 1))
                assert 1 <= len(dists) <= dist_bound
                assert 1 <= len(trans) <= trans_bound

    def test_depth_zero_is_the_root_alone(self, example1, example2):
        (cls,) = enumerate_type_classes(example1, 0, root=1)
        assert cls == TypeClass(((0, 1),), (), 1, 0.0)
        assert class_prob(_exact_fractions(example1), cls) == 1
        assert enumerate_type_classes(example2, 0, root=0) == [(((1, 0, 0),), (), 1, 0.0)]
        # the one class is more than a guard of 0
        with pytest.raises(TooLarge):
            enumerate_type_classes(example1, 0, root=0, class_guard=0)

    def test_classes_are_immutable_values(self, example1):
        classes = enumerate_type_classes(example1, 3, root=0)
        cls = classes[-1]
        with pytest.raises(AttributeError):
            cls.count = 0
        assert TypeClass(**cls._asdict()) == cls
        assert len(set(classes)) == len(classes)
        k = cls.total_edge_counts
        assert k.dtype == np.int64
        assert k.tolist() == np.sum(cls.edges, axis=0).tolist()
        nodes = sum(map(sum, cls.levels))
        assert cls.mean(example1) == float((k[k > 0] * example1.log_w[k > 0]).sum() / nodes)

    def test_class_guard(self, example1):
        with pytest.raises(TooLarge):
            enumerate_type_classes(example1, 4, root=0, class_guard=100)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 3),
        st.sampled_from([2, 3]),
        st.integers(1, 3),
        st.sampled_from([8, 16, 10, 3]),  # dyadic, or rounded decimals and thirds
    )
    @settings(max_examples=40, deadline=None)
    def test_same_classes_as_reference(self, seed, n_sym, d, n, denominator):
        chain = _random_chain(seed, n_sym, d, max(denominator, n_sym))
        guard = 2000
        for root in range(n_sym):
            ref = _outcome(_ref_enumerate, chain, n, root, guard)
            got = _outcome(enumerate_type_classes, chain, n, root, guard)
            assert got == ref
            if ref == "TooLarge":
                continue
            assert [float(c.log_prob).hex() for c in got] == [
                float(c.log_prob).hex() for c in ref
            ]
            assert mean_distribution(chain, got, n, root) == mean_distribution(
                chain, ref, n, root
            )
            # the guard trips at the same class: one below the total, never at it
            total = len(ref)
            assert _outcome(enumerate_type_classes, chain, n, root, total) == ref
            assert _outcome(enumerate_type_classes, chain, n, root, total - 1) == "TooLarge"
            assert _outcome(_ref_enumerate, chain, n, root, total - 1) == "TooLarge"


class TestExactMeanDistribution:
    def test_unit_weights_single_atom(self, full2):
        m = np.full((2, 2), 0.5)
        chain = chain_from_matrices(m, np.ones((2, 2)))
        dist = exact_mean_distribution(chain, 3, root=0)
        assert len(dist.atoms) == 1
        assert dist.atoms[0].mean == 0.0
        assert dist.atoms[0].prob_exact == 1

    def test_example1_zero_mean_atom(self, example1):
        # mean 0 at depth 2 <=> both root children labeled 0: probability 1/4
        dist = exact_mean_distribution(example1, 2, root=0)
        zero = [a for a in dist.atoms if a.mean == 0.0]
        assert len(zero) == 1
        assert zero[0].prob_exact == Fraction(1, 4)
        near_zero = [a.prob_exact for a in dist.atoms if -1e-9 <= a.mean <= 1e-9]
        assert sum(near_zero) == Fraction(1, 4)

    def test_total_probability(self, example1, example2):
        for chain in (example1, example2):
            dist = exact_mean_distribution(chain, 3, root=0)
            assert dist.total_prob() == pytest.approx(1.0, abs=1e-12)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 3),
        st.sampled_from([2, 3]),
        st.integers(1, 3),
        st.sampled_from([8, 16, 10, 3]),  # dyadic, or rounded decimals and thirds
    )
    @settings(max_examples=40, deadline=None)
    def test_same_atoms_as_grouped_classes(self, seed, n_sym, d, n, denominator):
        chain = _random_chain(seed, n_sym, d, max(denominator, n_sym))
        for root in range(n_sym):
            classes = _outcome(enumerate_type_classes, chain, n, root, 2000)
            if classes != "TooLarge":
                got = exact_mean_distribution(chain, n, root)
                assert_same_atoms(got, mean_distribution(chain, classes, n, root))

    def test_example1_against_grouped_classes(self, example1):
        for n in (3, 4, 5):
            classes = enumerate_type_classes(example1, n, root=0)
            got = exact_mean_distribution(example1, n, root=0)
            assert_same_atoms(got, mean_distribution(example1, classes, n, 0))
            assert sum(a.prob_exact for a in got.atoms) == 1

    def test_example1_depth_eight(self, example1):
        dist = exact_mean_distribution(example1, 8)
        assert len(dist.atoms) == 171
        assert sum(a.prob_exact for a in dist.atoms) == 1
        assert dist.total_prob() == 1.0

    def test_guard(self, example1, monkeypatch):
        # example1's depth-4 law has 11 atoms; its largest product has 36 pairs of terms
        monkeypatch.setattr(oracle, "CLASS_GUARD", 36)
        assert len(exact_mean_distribution(example1, 4, root=0).atoms) == 11
        monkeypatch.setattr(oracle, "CLASS_GUARD", 35)
        with pytest.raises(TooLarge):
            exact_mean_distribution(example1, 4, root=0)

    def test_guard_bounds_the_products(self):
        # 143,904 atoms at depth 4, far below CLASS_GUARD terms, but the
        # products that build them pass CLASS_GUARD pairs: a guard on terms
        # alone let this run for seconds
        with pytest.raises(TooLarge):
            exact_mean_distribution(_random_chain(7, 3, 2, 16), 4)

    @pytest.mark.parametrize("name", ["example1", "dyadic"])
    def test_log_mgf_is_the_tilted_recursion(self, request, name):
        # log E exp(mu S) over the atoms, S = |Lambda(n)| * mean the log-W sum,
        # is log G_n(root) at z = W^mu: the tilted recursion's x_n[root]
        chain = request.getfixturevalue(name) if name == "example1" else _random_chain(0, 2, 2, 16)
        root = chain.base.structure.a0
        mask = np.arange(chain.base.n_symbols) == root
        for n in range(2, 7):
            size = lattice_size(chain.arity, n)
            dist = exact_mean_distribution(chain, n)
            log_p = [_log_big(a.prob_exact.numerator) - _log_big(a.prob_exact.denominator)
                     for a in dist.atoms]
            for mu in (-2.0, -0.5, 0.3, 1.5):
                terms = [lp + mu * a.mean * size for lp, a in zip(log_p, dist.atoms)]
                top = max(terms)
                log_mgf = top + log(math.fsum(math.exp(t - top) for t in terms))
                x, _ = _tilted_recursion(chain, np.array([mu]), n, mask)
                assert log_mgf == pytest.approx(float(x[0]), rel=1e-12)

    def test_log_probability_trend_toward_rate(self, example1):
        # (1/|L(n)|) log P(mean near alpha) drifts toward -rate(alpha)
        alpha = 0.35
        target = -rate(example1, 0, alpha)
        gaps = []
        for n in (2, 3, 4, 5):
            dist = exact_mean_distribution(example1, n, root=0)
            p = sum(a.prob for a in dist.atoms if alpha - 0.05 <= a.mean <= alpha + 0.05)
            gaps.append(abs(log(p) / lattice_size(2, n) - target))
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 0.05


class TestFiniteRate:
    def test_weak_duality_no_violations(self, example1):
        for n in (1, 2, 3, 4):
            size = lattice_size(2, n)
            for cls in enumerate_type_classes(example1, n, root=0):
                lhs = cls.log_prob / size
                bound = finite_rate(example1, 0, n, cls.mean(example1))
                assert lhs <= bound + 1e-9

    def test_optimum_approaches_zero_from_below(self, example1):
        # F_n at the asymptotic limit is nonpositive (mu = 0 gives 0) and the
        # finite-depth bias decays to 0; at depth 12 it is within 1e-6
        star = lln_limit(example1, 0)
        values = [finite_rate(example1, 0, n, star) for n in (2, 4, 8, 12)]
        assert all(v <= 1e-12 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] >= -1e-6

    def test_converges_to_dual_of_rate(self, example1):
        alpha = 0.3
        target = -rate(example1, 0, alpha)
        gap_small = abs(finite_rate(example1, 0, 6, alpha) - target)
        gap_large = abs(finite_rate(example1, 0, 18, alpha) - target)
        assert gap_large < gap_small
        assert gap_large < 1e-4

    def test_unreachable_alpha_is_minus_infinity(self, example1):
        assert finite_rate(example1, 0, 3, 5.0) == -inf

    @pytest.mark.parametrize("alpha", [float("nan"), inf, -inf])
    def test_non_finite_alpha_refused(self, example1, alpha):
        # a non-finite alpha is refused, as by rate, not read out as -inf
        with pytest.raises(ModelValidationError, match="alpha must be finite"):
            finite_rate(example1, 0, 3, alpha)


class TestDualityScript:
    def test_example2_period_two(self, tmp_path):
        # finite_rate at p = 2, through the audit script over every atom to depth 4
        repo = Path(__file__).resolve().parents[1]
        model = tmp_path / "example2.json"
        model.write_text(json.dumps({
            "symbols": ["0", "1", "2"],
            "adjacency": [[0, 1, 1], [1, 0, 0], [1, 0, 0]],
            "d": 2,
            "M": [[0, 1, 1], [1 / 3, 0, 0], [2 / 3, 0, 0]],
        }))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, str(repo / "scripts" / "duality_check.py"), str(model),
             "--depth", "4"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        summary = result.stdout.strip().splitlines()[-1]
        assert summary.startswith("28 atoms checked to depth 4")
        assert float(summary.rsplit(" ", 1)[1]) <= 1e-9
