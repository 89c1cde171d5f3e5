import json
import sys
import time
from math import log, sqrt
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from treeshift import SampleConfig, chain_from_matrices, lln_experiment
from treeshift import stochastic
from treeshift.cli import main
from treeshift.errors import ModelValidationError
from treeshift.oracle import exact_mean_distribution
from treeshift.stochastic import _edge_counts, _level_stream, running_means

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the benchmark's own reference
from perfbench.checks import phase_means  # noqa: E402
from perfbench.inputs import write_inputs  # noqa: E402


@pytest.fixture(scope="module")
def flat_chain():
    m = np.full((2, 2), 0.5)
    return chain_from_matrices(m, np.ones((2, 2)), d=2)


class TestSampleTree:
    """One sampled tree, read through its type, the per-level edge counts."""

    def test_reproducible_across_runs(self, example1):
        cfg = SampleConfig(depth=9, seed=123)
        a = running_means(example1, cfg, trial=7)
        b = running_means(example1, cfg, trial=7)
        assert np.array_equal(a, b)
        c = running_means(example1, cfg, trial=8)
        assert not np.array_equal(a, c)

    def test_overflow_draw_stays_admissible(self):
        # column 0 sums to 1 - 4e-13 (inside the stochastic tolerance) and
        # never reaches symbol 2; no child of a 0-labeled parent may land there
        m = np.array([[0.5, 0.25, 0.5], [0.5 - 4e-13, 0.25, 0.5], [0.0, 0.5, 0.0]])
        chain = chain_from_matrices(m, d=2)
        assert chain.base.adjacency[2, 0] == 0
        for trial in range(20):
            for edges in _edge_counts(chain, SampleConfig(depth=8, seed=1), trial):
                assert np.all(edges[chain.base.adjacency == 0] == 0)

    def test_root_distribution(self, example1):
        # the root's d children are the first level's edges out of it
        cfg = SampleConfig(depth=1, seed=9, root=np.array([0.25, 0.75]))
        roots = [
            int(np.argmax(next(_edge_counts(example1, cfg, t)).sum(axis=0))) for t in range(400)
        ]
        frac = np.mean(np.array(roots) == 1)
        assert abs(frac - 0.75) < 3 * sqrt(0.25 * 0.75 / 400)

    def test_level_frequencies_approach_stationary(self, example1):
        # stationary law of M is (2/3, 1/3); level 14's labels are its edges' children
        *_, edges = _edge_counts(example1, SampleConfig(depth=14, seed=77), trial=0)
        level = edges.sum(axis=1)
        frac = level[0] / level.sum()
        se = sqrt((2 / 3) * (1 / 3) / level.sum())
        # tree-correlated samples: allow a generous factor over iid error
        assert abs(frac - 2 / 3) < 30 * se

    def test_empirical_transitions_approach_m(self, example1):
        *_, edges = _edge_counts(example1, SampleConfig(depth=12, seed=31), trial=0)
        counts = edges.sum(axis=0) // 2  # parents at level 11
        for b in range(2):
            if counts[b] == 0:
                continue
            se = sqrt(0.25 / (2 * counts[b]))
            eta = edges[:, b] / (2 * counts[b])
            assert np.abs(eta - example1.M[:, b]).max() <= 3 * max(se, 1e-3)

    def test_empirical_transitions_decline_with_depth(self, example1):
        # distribution-free smoke: over ten trees, the mean deviation from M
        # shrinks down the tree
        early, late = [], []
        for trial in range(10):
            levels = list(_edge_counts(example1, SampleConfig(depth=14, seed=19), trial))
            early.append(np.abs(_transitions(levels[3], example1.M) - example1.M).max())
            late.append(np.abs(_transitions(levels[13], example1.M) - example1.M).max())
        assert np.mean(late) < np.mean(early)


def _transitions(edges, m):
    """A level's edge counts over their parent column's total; a parent
    symbol absent from the level has no transitions and reads as M."""
    total = edges.sum(axis=0)
    return np.where(total > 0, edges / np.maximum(total, 1), m)


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


@pytest.fixture(scope="module")
def bench_nine(tmp_path_factory):
    """The benchmark's nine_chain.json (seed 7) and the chain it holds."""
    workdir = tmp_path_factory.mktemp("bench")
    write_inputs(workdir, 7)
    path = workdir / "nine_chain.json"
    doc = json.loads(path.read_text())
    return str(path), chain_from_matrices(doc["M"], d=doc["d"], symbols=doc["symbols"])


def bench_simulate(path, seed=7):
    """The benchmark's simulate command at depth 12 with 20 trials."""
    args = ["simulate", path, "--depth", "12", "--trials", "20", "--seed", str(seed)]
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


class TestExpectedVerdict:
    """Each phase mean against its exact expectation at the sampled depth."""

    def test_expected_matches_benchmark_reference(self, bench_nine, example1, extreme):
        _, nine = bench_nine
        for chain, root, depth in ((nine, 0, 12), (nine, 4, 13), (example1, 1, 9), (extreme, 0, 7)):
            report = lln_experiment(chain, SampleConfig(depth=depth, trials=2, seed=3, root=root))
            for c in report.phase_checks:
                want = phase_means(chain.M, chain.W, chain.arity, root, c.depth)
                assert abs(c.expected - want) <= 1e-12
                assert c.bias == c.expected - c.target

    def test_benchmark_command(self, bench_nine):
        # the depth-12 bias is several standard errors: the limit fails, the expectation passes
        path, _ = bench_nine
        out = bench_simulate(path)
        assert out["passed"] is False and out["passed_expected"] is True
        for c in out["phase_checks"]:
            assert abs(c["z_score"]) > 6 and abs(c["z_expected"]) <= 3
            assert c["z_expected"] == pytest.approx(
                (c["empirical"] - c["expected"]) / c["stderr"], rel=1e-12
            )

    def test_correct_samples_pass(self, bench_nine):
        # the benchmark command over seeds 0-59: a 3-sigma verdict on a
        # t statistic with 19 degrees of freedom fails about 0.5% of runs
        path, nine = bench_nine
        root = bench_simulate(path)["manifest"]["config"]["root"]
        fails = sum(
            not lln_experiment(nine, SampleConfig(depth=12, trials=20, seed=seed, root=root)).passed_expected
            for seed in range(60)
        )
        assert fails <= 1

    def test_degenerate_mean_meets_expectation(self, flat_chain):
        # unit weights: every mean is exactly 0, with no standard error
        report = lln_experiment(flat_chain, SampleConfig(depth=8, trials=5, seed=1))
        assert report.passed_expected
        assert all(c.expected == 0.0 and c.z_expected == 0.0 for c in report.phase_checks)

    def test_perturbed_column_fails(self, bench_nine, monkeypatch):
        # negative control: sampling from M with 0.05 of one column's mass
        # moved between two children must fail the expectation.  The shift
        # is about 2.3 standard errors at 20 trials, so the control samples
        # 200, where it is 7; the correct chain's largest |z| over seeds
        # 0-9 at 200 trials was 1.3
        _, nine = bench_nine
        b = int(np.argmax((nine.M > 0).sum(axis=0)))
        kids = np.flatnonzero(nine.M[:, b] > 0)
        m = nine.M.copy()
        m[kids[0], b] += 0.05
        m[kids[1], b] -= 0.05
        biased = chain_from_matrices(m, nine.W, d=nine.arity)
        monkeypatch.setattr(stochastic, "running_means",
                            lambda _chain, config, trial: running_means(biased, config, trial))
        report = lln_experiment(nine, SampleConfig(depth=12, trials=200, seed=7))
        assert not report.passed_expected
