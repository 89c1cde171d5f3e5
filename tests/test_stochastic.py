import time
from math import log, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from treeshift import (
    SampleConfig,
    chain_from_matrices,
    empirical_pair,
    lln_experiment,
    sample_tree,
    validate_admissible,
)
from treeshift.errors import ModelValidationError, TooLarge
from treeshift.oracle import exact_mean_distribution
from treeshift.stochastic import _edge_counts, _level_stream, _next_level, running_means


@pytest.fixture(scope="module")
def flat_chain():
    m = np.full((2, 2), 0.5)
    return chain_from_matrices(m, np.ones((2, 2)), d=2)


class TestSampleTree:
    def test_deterministic_column_forces_label(self, example1):
        # parent symbol 1 sends every child to symbol 0
        tree = sample_tree(example1, SampleConfig(depth=8, seed=5))
        shape = tree.shape
        for i in range(1, shape.node_count):
            if tree.labels[shape.parent(i)] == 1:
                assert tree.labels[i] == 0

    def test_reproducible_across_runs(self, example1):
        cfg = SampleConfig(depth=9, seed=123)
        a = sample_tree(example1, cfg, trial=7)
        b = sample_tree(example1, cfg, trial=7)
        assert np.array_equal(a.labels, b.labels)
        c = sample_tree(example1, cfg, trial=8)
        assert not np.array_equal(a.labels, c.labels)

    def test_sampled_trees_admissible(self, example1, example2):
        for chain in (example1, example2):
            for trial in range(5):
                tree = sample_tree(chain, SampleConfig(depth=7, seed=3), trial)
                validate_admissible(tree, chain.base)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_random_sparse_chains_sample_admissible_trees(self, seed, n, d):
        # sparse irreducible support: a Hamiltonian cycle plus a few edges
        rng = np.random.default_rng(seed)
        adj = (rng.random((n, n)) < 0.25).astype(int)
        cycle = rng.permutation(n)
        adj[np.roll(cycle, -1), cycle] = 1
        m = np.where(adj == 1, rng.random((n, n)) + 0.01, 0.0)
        chain = chain_from_matrices(m / m.sum(axis=0, keepdims=True), d=d)
        for sample_seed in range(3):
            for depth in (1, 3, 5):
                cfg = SampleConfig(depth=depth, seed=sample_seed, root=int(rng.integers(n)))
                validate_admissible(sample_tree(chain, cfg, trial=sample_seed), chain.base)

    def test_overflow_draw_stays_admissible(self):
        # column 0 sums to 1 - 4e-13 (inside the stochastic tolerance) and
        # never reaches symbol 2; a draw above its total must not land there
        m = np.array([[0.5, 0.25, 0.5], [0.5 - 4e-13, 0.25, 0.5], [0.0, 0.5, 0.0]])
        chain = chain_from_matrices(m, d=2)
        assert chain.base.adjacency[2, 0] == 0
        assert _next_level(chain, np.array([0]), np.array([1 - 1e-13]))[0] == 1
        # draws below the last child's cumulative value are untouched
        u = np.random.default_rng(0).random(300) * (1 - 4e-13)
        parents = np.repeat([0, 1, 2], 100)
        plain = (u[None, :] >= np.cumsum(m, axis=0)[:, parents]).sum(axis=0)
        assert np.array_equal(_next_level(chain, parents, u), plain)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_next_level_matches_broadcast_reference(self, seed, n):
        # the per-parent binary search gives the labels of the old
        # n_symbols x level threshold table, also for draws that hit a
        # cumulative value exactly and at the largest draw below 1
        rng = np.random.default_rng(seed)
        adj = (rng.random((n, n)) < 0.5).astype(int)
        adj[rng.integers(n, size=n), np.arange(n)] = 1
        m = np.where(adj == 1, rng.random((n, n)) + 0.05, 0.0)
        chain = chain_from_matrices(m / m.sum(axis=0, keepdims=True), d=2)
        cum = np.cumsum(chain.M, axis=0)
        parents = rng.integers(n, size=500)
        u = rng.random(500)
        ties = rng.integers(500, size=40)
        u[ties] = cum[rng.integers(n, size=40), parents[ties]]
        u[rng.integers(500, size=20)] = np.nextafter(1.0, 0.0)
        labels = (u[None, :] >= cum[:, parents]).sum(axis=0)
        last_child = n - 1 - np.argmax(chain.M[::-1] > 0, axis=0)
        want = np.minimum(labels, last_child[parents]).astype(np.int16)
        got = _next_level(chain, parents, u)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_root_distribution(self, example1):
        pi = np.array([0.25, 0.75])
        roots = [
            sample_tree(example1, SampleConfig(depth=1, seed=9, root=pi), t).labels[0]
            for t in range(400)
        ]
        frac = np.mean(np.array(roots) == 1)
        assert abs(frac - 0.75) < 3 * sqrt(0.25 * 0.75 / 400)

    def test_node_cap(self, example1):
        with pytest.raises(TooLarge):
            sample_tree(example1, SampleConfig(depth=26, seed=0))

    def test_level_frequencies_approach_stationary(self, example1):
        # stationary law of M is (2/3, 1/3)
        tree = sample_tree(example1, SampleConfig(depth=14, seed=77))
        level = tree.level_labels(14)
        frac = np.mean(level == 0)
        se = sqrt((2 / 3) * (1 / 3) / level.size)
        # tree-correlated samples: allow a generous factor over iid error
        assert abs(frac - 2 / 3) < 30 * se

    def test_empirical_transitions_approach_m(self, example1):
        tree = sample_tree(example1, SampleConfig(depth=12, seed=31))
        pair = empirical_pair(tree, example1.base)
        eta = pair.trans[11]
        counts = np.bincount(tree.level_labels(11), minlength=2)
        for b in range(2):
            if counts[b] == 0:
                continue
            se = sqrt(0.25 / (2 * counts[b]))
            assert np.abs(eta[:, b] - example1.M[:, b]).max() <= 3 * max(se, 1e-3)

    def test_empirical_transitions_decline_with_depth(self, example1):
        # distribution-free smoke: the deviation from M shrinks down the tree
        tree = sample_tree(example1, SampleConfig(depth=14, seed=19))
        pair = empirical_pair(tree, example1.base)
        early = np.abs(pair.trans[3] - example1.M).max()
        late = np.abs(pair.trans[13] - example1.M).max()
        assert late < early


class TestLevelStream:
    @pytest.mark.parametrize("seed, trial, level", [
        (0, 0, 0), (7, 19, 11), (2**63, 3, 0), (2**64 - 1, 2**20, 12), (2**63 + 5, 0, 62),
    ])
    def test_rekeyed_generator_draws_as_fresh_philox(self, seed, trial, level):
        key = np.array([seed, (trial << 32) | level], dtype=np.uint64)
        fresh = np.random.Generator(np.random.Philox(key=key))
        used = _level_stream(seed + 1, trial + 1, level + 1)
        # a part-used counter and buffer, and a held 32-bit half
        used.random(3)
        used.multinomial(40, [0.5, 0.5])
        used.random(dtype=np.float32)
        rekeyed = _level_stream(seed, trial, level, used)
        assert rekeyed is used

        def draws(rng):
            return (rng.random(3, dtype=np.float32), rng.random(7),
                    rng.multinomial(1000, [0.1, 0.2, 0.7]), rng.multinomial(3, [0.5, 0.5]))

        for a, b in zip(draws(fresh), draws(rekeyed)):
            assert np.array_equal(a, b)


MEAN_TOL = 1e-12
CHI2_ALPHA = 1e-4


def _sparse_chain(seed, n, d=2):
    """Irreducible sparse support (a Hamiltonian cycle plus a few edges), random M and W."""
    rng = np.random.default_rng(seed)
    adj = (rng.random((n, n)) < 0.4).astype(int)
    cycle = rng.permutation(n)
    adj[np.roll(cycle, -1), cycle] = 1
    m = np.where(adj == 1, rng.random((n, n)) + 0.1, 0.0)
    w = np.where(adj == 1, 3 * rng.random((n, n)) + 0.2, 0.0)
    return chain_from_matrices(m / m.sum(axis=0, keepdims=True), w, d=d)


def _exact_law_pvalue(sampler, law, n, root, trials=2000, seed=1, bins=20):
    """Chi-square p-value of ``sampler``'s depth-n means against ``law``'s exact atoms.

    Atoms whose means agree within MEAN_TOL are one value (the oracle keys
    atoms by edge counts, and different counts can give the same mean).
    Every sampled mean must match one value within MEAN_TOL; consecutive
    values are then pooled into bins of probability at least 1/bins.
    """
    atoms = sorted(exact_mean_distribution(law, n, root).atoms, key=lambda a: a.mean)
    means = np.array([a.mean for a in atoms])
    new_value = np.concatenate([[True], np.diff(means) > MEAN_TOL])
    values = means[new_value]
    probs = np.bincount(np.cumsum(new_value) - 1, weights=[a.prob for a in atoms])
    assert np.all(np.diff(values) > 2 * MEAN_TOL)

    cfg = SampleConfig(depth=n, trials=trials, seed=seed, root=root)
    got = np.array([running_means(sampler, cfg, t)[n] for t in range(trials)])
    nearest = np.abs(got[:, None] - values[None, :]).argmin(axis=1)
    assert np.abs(got - values[nearest]).max() <= MEAN_TOL

    group, mass = np.zeros(values.size, dtype=int), 0.0
    for i, p in enumerate(probs):
        if mass >= 1 / bins:
            group[i:], mass = group[i - 1] + 1, 0.0
        mass += p
    if mass < 1 / bins:  # a light last bin joins the one before it
        group[group == group[-1]] = max(group[-1] - 1, 0)
    expected = trials * np.bincount(group, weights=probs)
    observed = np.bincount(group[nearest], minlength=expected.size)
    if expected.size == 1:
        return 1.0
    stat = float(((observed - expected) ** 2 / expected).sum())
    return float(chi2.sf(stat, expected.size - 1))


SPARSE = _sparse_chain(0, 3)  # 3 symbols, 5 edges: 285-1,171 atoms at depth 4


class TestTypeSampler:
    @pytest.mark.parametrize(
        "name, n, roots",
        [("example1", 5, (0, 1)), ("extreme", 5, (0, 1)), ("sparse", 4, (0, 1, 2))],
    )
    def test_means_follow_exact_law(self, request, name, n, roots):
        chain = SPARSE if name == "sparse" else request.getfixturevalue(name)
        for root in roots:
            assert _exact_law_pvalue(chain, chain, n, root) >= CHI2_ALPHA

    @pytest.mark.parametrize("name, n", [("example1", 5), ("sparse", 4)])
    def test_perturbed_column_fails_exact_law(self, request, name, n):
        # negative control: sampling from M with 0.05 of one column's mass
        # moved between two children must fail the same test
        chain = SPARSE if name == "sparse" else request.getfixturevalue(name)
        b = int(np.argmax((chain.M > 0).sum(axis=0)))
        kids = np.flatnonzero(chain.M[:, b] > 0)
        m = chain.M.copy()
        m[kids[0], b] += 0.05
        m[kids[1], b] -= 0.05
        biased = chain_from_matrices(m, chain.W, d=chain.arity)
        assert _exact_law_pvalue(biased, chain, n, root=0) < CHI2_ALPHA

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_edge_counts_on_support(self, seed, n, d):
        chain = _sparse_chain(seed, n, d)
        root = int(np.random.default_rng(seed).integers(n))
        cfg = SampleConfig(depth=8, seed=seed, root=root)
        parents = np.eye(n, dtype=np.int64)[root]
        for k, edges in enumerate(_edge_counts(chain, cfg, trial=seed % 5), start=1):
            assert edges.dtype == np.int64 and edges.min() >= 0
            assert np.all(edges[chain.base.adjacency == 0] == 0)
            assert edges.sum() == d**k
            assert np.array_equal(edges.sum(axis=0), d * parents)
            parents = edges.sum(axis=1)

    @pytest.mark.parametrize("d, deepest", [(3, 39), (2, 62)])
    def test_deepest_accepted_depth(self, example1, d, deepest):
        # level counts are int64: d^depth < 2^63 is accepted, one more level is not
        chain = chain_from_matrices(example1.M, example1.W, d=d)
        cfg = SampleConfig(depth=deepest, seed=4)
        started = time.perf_counter()
        means = running_means(chain, cfg, trial=0)
        assert time.perf_counter() - started < 1.0
        assert np.all(np.isfinite(means))
        assert means[-1] == pytest.approx(log(2) / 3, abs=1e-6)
        assert list(_edge_counts(chain, cfg, trial=0))[-1].sum() == d**deepest
        with pytest.raises(ModelValidationError):
            running_means(chain, SampleConfig(depth=deepest + 1), trial=0)


class TestLlnExperiment:
    def test_example1_within_three_sigma(self, example1):
        cfg = SampleConfig(depth=12, trials=30, seed=2)
        report = lln_experiment(example1, cfg)
        assert report.passed
        check = report.phase_checks[0]
        assert check.target == pytest.approx(log(2) / 3, abs=1e-12)
        assert abs(check.empirical - check.target) <= 3 * check.stderr

    def test_extreme_parity_separation(self, extreme):
        cfg = SampleConfig(depth=13, trials=8, seed=6)
        report = lln_experiment(extreme, cfg)
        targets = {c.phase: c for c in report.phase_checks}
        assert targets[0].target == pytest.approx(-log(2) / 3, abs=1e-12)
        assert targets[1].target == pytest.approx(-2 * log(2) / 3, abs=1e-12)
        assert report.passed
        # running means at consecutive depths straddle the two limits
        sep = np.abs(report.depth_means[:, -1] - report.depth_means[:, -2])
        assert np.all(sep > 0.2)

    def test_unit_weights_give_zero_means(self, flat_chain):
        report = lln_experiment(flat_chain, SampleConfig(depth=8, trials=5, seed=1))
        assert np.all(report.depth_means == 0.0)
        assert report.passed

    def test_trial_means_within_weight_range(self, example1):
        report = lln_experiment(example1, SampleConfig(depth=10, trials=20, seed=13))
        sup = example1.W > 0
        lo, hi = np.log(example1.W[sup]).min(), np.log(example1.W[sup]).max()
        assert np.all(report.trial_means >= lo - 1e-12)
        assert np.all(report.trial_means <= hi + 1e-12)
