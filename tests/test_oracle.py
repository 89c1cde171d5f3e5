import json
import os
import subprocess
import sys
from fractions import Fraction
from math import inf, log
from pathlib import Path

import numpy as np
import pytest

from treeshift import chain_from_matrices, find_a0_and_period, lattice_size, lln_limit, rate
from treeshift.errors import TooLarge
from treeshift.oracle import (
    block_counts,
    enumerate_blocks,
    enumerate_type_classes,
    exact_mean_distribution,
    finite_rate,
)

from conftest import make_model, random_a0_matrix


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
            total = sum(c.prob for c in classes)
            assert isinstance(total, Fraction) and total == 1

    def test_inexact_matrix_falls_back_to_logs(self, example2):
        classes = enumerate_type_classes(example2, 2, root=0)
        assert all(c.prob is None for c in classes)
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

    def test_class_guard(self, example1):
        with pytest.raises(TooLarge):
            enumerate_type_classes(example1, 4, root=0, class_guard=100)

    def test_empirical_pair_columns(self, example1):
        for cls in enumerate_type_classes(example1, 2, root=0):
            taus, etas = cls.empirical_pair(example1.base)
            for tau in taus:
                assert tau.sum() == pytest.approx(1.0, abs=1e-12)
            for eta in etas:
                assert eta.sum(axis=0) == pytest.approx([1.0, 1.0], abs=1e-12)


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
        assert dist.prob_in_exact(-1e-9, 1e-9) == Fraction(1, 4)

    def test_total_probability(self, example1, example2):
        for chain in (example1, example2):
            dist = exact_mean_distribution(chain, 3, root=0)
            assert dist.total_prob() == pytest.approx(1.0, abs=1e-12)

    def test_log_probability_trend_toward_rate(self, example1):
        # (1/|L(n)|) log P(mean near alpha) drifts toward -rate(alpha)
        period = find_a0_and_period(example1.base)
        alpha = 0.35
        target = -rate(example1, 0, alpha, period)
        gaps = []
        for n in (2, 3, 4, 5):
            dist = exact_mean_distribution(example1, n, root=0)
            p = dist.prob_in(alpha - 0.05, alpha + 0.05)
            gaps.append(abs(log(p) / lattice_size(2, n) - target))
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 0.05


class TestFiniteRate:
    def test_weak_duality_no_violations(self, example1):
        period = find_a0_and_period(example1.base)
        for n in (1, 2, 3, 4):
            size = lattice_size(2, n)
            for cls in enumerate_type_classes(example1, n, root=0):
                lhs = cls.log_prob / size
                bound = finite_rate(example1, 0, n, cls.mean(example1), period)
                assert lhs <= bound + 1e-9

    def test_optimum_approaches_zero_from_below(self, example1):
        # F_n at the asymptotic limit is nonpositive (mu = 0 gives 0) and the
        # finite-depth bias decays to 0; at depth 12 it is within 1e-6
        period = find_a0_and_period(example1.base)
        star = lln_limit(example1, 0, period)
        values = [finite_rate(example1, 0, n, star, period) for n in (2, 4, 8, 12)]
        assert all(v <= 1e-12 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] >= -1e-6

    def test_converges_to_dual_of_rate(self, example1):
        period = find_a0_and_period(example1.base)
        alpha = 0.3
        target = -rate(example1, 0, alpha, period)
        gap_small = abs(finite_rate(example1, 0, 6, alpha, period) - target)
        gap_large = abs(finite_rate(example1, 0, 18, alpha, period) - target)
        assert gap_large < gap_small
        assert gap_large < 1e-4

    def test_unreachable_alpha_is_minus_infinity(self, example1):
        period = find_a0_and_period(example1.base)
        assert finite_rate(example1, 0, 3, 5.0, period) == -inf


class TestDualityScript:
    def test_example2_period_two(self, tmp_path):
        # finite_rate at p = 2, through the audit script over every class to depth 4
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
        assert summary.startswith("60 classes checked to depth 4")
        assert float(summary.rsplit(" ", 1)[1]) <= 1e-9
