from dataclasses import fields
from math import log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from treeshift import (
    DimensionReport,
    dim_objective,
    find_a0_and_period,
    general_upper_bound,
    hausdorff_dimension,
    optimal_markov_measure,
    ratios_to_simplex,
    simplex_to_ratios,
)
from treeshift.dimension import (
    _cyclic_blocks,
    _gradients,
    _objective,
    _scan_denominator,
    _search,
    _simplex_grid,
)
from treeshift.errors import ModelValidationError, ValidationFailed
from treeshift.transfer_op import EIGEN_TOL

from conftest import make_model, periodic_model, periodic_models


def nelder_mead_search(model, period, eigen_tol=EIGEN_TOL):
    """The search the gradient solver replaced: the same lattice scan, then
    Nelder-Mead over s = w / sum(w), w = 1 at the best lattice point's largest
    coordinate (the pivot) and w_i = u_i^2 elsewhere.  Returns the minimum
    and its point."""
    p = period.period
    denom = _scan_denominator(p)
    points = np.array(list(_simplex_grid(p, denom)))
    blocks = _cyclic_blocks(model)
    values, pairs = _objective(blocks, period, points, 0, eigen_tol, [None] * len(blocks))
    best = int(np.argmin(values.max(axis=0)))
    warm = [row[best].eigvec for row in pairs]
    pivot = int(np.argmax(points[best]))
    free = np.arange(p) != pivot

    def to_simplex(u):
        w = np.ones(p)
        w[free] = u * u
        return w / w.sum()

    def refine(u):
        value, pairs = _objective(blocks, period, [to_simplex(u)], 0, eigen_tol, warm)
        warm[:] = [row[0].eigvec for row in pairs]
        return float(value.max(axis=0)[0])

    u0 = np.sqrt(points[best][free] / points[best][pivot])
    result = minimize(
        refine, u0, method="Nelder-Mead",
        options={"initial_simplex": np.vstack([u0, u0 + np.eye(p - 1) / denom]),
                 "xatol": 1e-9, "fatol": 1e-12, "maxiter": 2000},
    )
    return float(result.fun), to_simplex(result.x)


def two_block_closure(seed, p, d):
    """Two random period-p blocks (``periodic_model``, at most 6 symbols each)
    and one edge from symbol 0 into the second block's class 1: the closure
    of symbol 0 is reducible, with two cyclic blocks."""
    first, _ = periodic_model(seed, p, d, max_symbols=6)
    second, period2 = periodic_model(seed + 7919, p, d, max_symbols=6)
    n1 = first.n_symbols
    adj = np.zeros((n1 + second.n_symbols,) * 2, dtype=int)
    adj[:n1, :n1] = first.adjacency
    adj[n1:, n1:] = second.adjacency
    adj[n1 + min(period2.classes[1 % p]), 0] = 1
    model = make_model(adj.tolist(), d=d)
    return model, find_a0_and_period(model, a0=0)


class TestBijection:
    def test_p1_always_unit(self):
        param = simplex_to_ratios([1.0], 2, 1)
        assert param.r.tolist() == [1.0]
        assert param.q.tolist() == [1.0]

    def test_p2_vertex(self):
        param = simplex_to_ratios([1.0, 0.0], 2, 2)
        assert param.q == pytest.approx([2 / 3, 1 / 3], abs=1e-15)
        assert param.r == pytest.approx([2.0, 0.5], abs=1e-15)
        assert param.coefficient == pytest.approx(2 / 3, abs=1e-15)

    def test_q_range_constraints(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = int(rng.integers(2, 5))
            d = int(rng.integers(2, 4))
            s = rng.dirichlet(np.ones(p))
            param = simplex_to_ratios(s, d, p)
            assert param.q.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(param.r > 0)
            assert np.all(param.r <= d + 1e-12)
            assert np.prod(param.r) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_thousand_points(self):
        # 1000 random points over p in {2,3,4}, d in {2,3}: s -> r -> s'
        rng = np.random.default_rng(42)
        for _ in range(1000):
            p = int(rng.integers(2, 5))
            d = int(rng.integers(2, 4))
            s = rng.dirichlet(np.ones(p))
            param = simplex_to_ratios(s, d, p)
            back = ratios_to_simplex(param.r, d, p)
            assert np.abs(back - s).max() < 1e-12

    @given(st.integers(0, 2**36 - 1), st.integers(2, 4), st.integers(2, 3))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, seed, p, d):
        rng = np.random.default_rng(seed)
        s = rng.dirichlet(np.ones(p))
        param = simplex_to_ratios(s, d, p)
        back = ratios_to_simplex(param.r, d, p)
        assert np.abs(back - s).max() < 1e-12
        # q can be recovered from cumulative ratio products
        inv_cum = np.cumprod(1.0 / param.r)
        q0 = 1.0 / inv_cum.sum()
        assert q0 == pytest.approx(param.q[0], abs=1e-13)


class TestObjective:
    def test_p1_is_spectral_radius(self, golden):
        period = find_a0_and_period(golden)
        val = dim_objective(golden, period, [1.0])
        assert val == pytest.approx(log((1 + np.sqrt(5)) / 2), abs=1e-9)

    def test_period2_closed_form(self, period2):
        # objective(s) = log 2 / (1 + r0) for the two-class model
        period = find_a0_and_period(period2)
        for s0 in (0.0, 0.3, 0.5, 0.8, 1.0):
            s = [s0, 1 - s0]
            r0 = simplex_to_ratios(s, 2, 2).r[0]
            val = dim_objective(period2, period, s, 0)
            assert val == pytest.approx(log(2) / (1 + r0), abs=1e-10)

    def test_rotated_class_values_agree(self, period2):
        period = find_a0_and_period(period2)
        for s0 in (0.2, 0.7):
            v0 = dim_objective(period2, period, [s0, 1 - s0], 0)
            v1 = dim_objective(period2, period, [s0, 1 - s0], 1)
            assert v0 == pytest.approx(v1, abs=1e-11)


class TestHausdorff:
    def test_full_shifts(self, full2, full3):
        assert hausdorff_dimension(full2).dim == pytest.approx(log(2), abs=1e-10)
        assert hausdorff_dimension(full3).dim == pytest.approx(log(3), abs=1e-10)

    def test_swap_two_points(self, swap2):
        report = hausdorff_dimension(swap2)
        assert report.dim == pytest.approx(0.0, abs=1e-10)

    def test_period2_value_and_argmin(self, period2):
        report = hausdorff_dimension(period2)
        assert report.dim == pytest.approx(log(2) / 3, abs=1e-4)
        assert report.argmin_r[0] == pytest.approx(2.0, abs=1e-3)
        assert report.method == "exact_irreducible"

    def test_rejects_reducible(self):
        with pytest.raises(ModelValidationError):
            hausdorff_dimension(make_model([[1, 1], [0, 1]]))

    def test_dim_below_entropy_and_radius(self, period2, golden, full2):
        for model in (period2, golden, full2):
            rep = hausdorff_dimension(model)
            assert rep.dim <= rep.log_rho_linear + 1e-9
            assert rep.dim <= rep.h_top + 1e-6

    def test_a0_choice_does_not_change_dimension(self, period2):
        base = hausdorff_dimension(period2).dim
        for a0 in (1, 2):
            forced = find_a0_and_period(period2, a0=a0)
            rep = hausdorff_dimension(period2, period=forced)
            assert rep.dim == pytest.approx(base, abs=1e-8)


class TestConvexSearch:
    @given(periodic_models)
    @settings(max_examples=50, deadline=None)
    def test_objective_midpoint_convex(self, args):
        model, period = periodic_model(*args)
        p = period.period
        rng = np.random.default_rng(args[0])
        for _ in range(4):
            a, b = rng.dirichlet(np.ones(p)), rng.dirichlet(np.ones(p))
            mid = dim_objective(model, period, 0.5 * (a + b))
            ends = 0.5 * (dim_objective(model, period, a) + dim_objective(model, period, b))
            assert mid <= ends + 1e-10

    @given(periodic_models)
    @settings(max_examples=30, deadline=None)
    def test_no_pairwise_move_improves_argmin(self, args):
        # s + h (e_i - e_j) with h = min(1e-4, s_j): faces are moved onto, not across
        model, period = periodic_model(*args)
        report = hausdorff_dimension(model, period)
        s = report.argmin_s
        for i in range(period.period):
            for j in range(period.period):
                h = min(1e-4, s[j])
                if i == j or h <= 0:
                    continue
                moved = s.copy()
                moved[i] += h
                moved[j] -= h
                assert dim_objective(model, period, moved) >= report.dim - 1e-10


class TestGradientSearch:
    def test_nine(self, nine):
        # 45 lattice points, then at most 30 objective-and-gradient evaluations
        report = hausdorff_dimension(nine)
        assert report.iterations <= 75
        assert len(report.grid_s) == 45
        assert report.dim == pytest.approx(0.3027001740055876, abs=1e-10)
        assert 0.0 <= report.gap <= 1e-10

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 3))
    @settings(max_examples=40, deadline=None)
    def test_gradient_matches_central_difference(self, seed, p, d):
        # f extends to the positive orthant with degree 1: g . s = f, and
        # g_k is the derivative of f((s + h e_k) / (1 + h)) (1 + h) at h = 0
        model, period = periodic_model(seed, p, d)
        s = np.random.default_rng(seed).dirichlet(np.ones(p))
        values, grads, _, _ = _gradients([model], period, s[None], [None], EIGEN_TOL)
        f, g = values[0, 0], grads[0, 0]
        assert g @ s == pytest.approx(f, abs=1e-10)
        h = 1e-5
        for k in range(p):
            up = dim_objective(model, period, (s + h * np.eye(p)[k]) / (1 + h)) * (1 + h)
            down = dim_objective(model, period, (s - h * np.eye(p)[k]) / (1 - h)) * (1 - h)
            assert g[k] == pytest.approx((up - down) / (2 * h), abs=1e-6)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 3))
    @settings(max_examples=30, deadline=None)
    def test_never_above_nelder_mead_irreducible(self, seed, p, d):
        model, period = periodic_model(seed, p, d)
        dim, s, _, gap, _ = _search(model, period, EIGEN_TOL)
        assert dim <= nelder_mead_search(model, period)[0] + 1e-10
        # the value at the returned point, up to the eigenvalue bracket
        assert dim == pytest.approx(dim_objective(model, period, s), abs=1e-11)
        assert gap >= 0.0

    @given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(2, 3))
    @settings(max_examples=30, deadline=None)
    def test_never_above_nelder_mead_two_blocks(self, seed, p, d):
        model, period = two_block_closure(seed, p, d)
        assert len(_cyclic_blocks(model)) == 2
        dim, _, _, gap, _ = _search(model, period, EIGEN_TOL)
        assert dim <= nelder_mead_search(model, period)[0] + 1e-10
        assert gap >= 0.0


class TestScan:
    @given(periodic_models)
    @settings(max_examples=25, deadline=None)
    def test_scan_values_equal_dim_objective(self, args):
        # the batched lattice scan scores each point as a lone call would, bit for bit
        model, period = periodic_model(*args, max_symbols=6)
        points, values = _search(model, period, EIGEN_TOL)[-1]
        for s, value in zip(points, values):
            assert value == dim_objective(model, period, s)


class TestGeneralUpperBound:
    @given(periodic_models)
    @settings(max_examples=20, deadline=None)
    def test_matches_exact_for_irreducible(self, period2, golden, args):
        # an irreducible model is its own one closure: the same solve, bit for bit
        for model in (period2, golden, periodic_model(*args)[0]):
            exact = hausdorff_dimension(model)
            bound = general_upper_bound(model)
            assert bound.method == "upper_bound_general"
            for field in fields(DimensionReport):
                if field.name not in ("method", "class_values"):
                    got, want = getattr(bound, field.name), getattr(exact, field.name)
                    assert np.array_equal(got, want), field.name

    def test_block_diagonal_takes_max(self):
        adj = [
            [1, 1, 0, 0, 0],
            [1, 1, 0, 0, 0],
            [0, 0, 1, 1, 1],
            [0, 0, 1, 1, 1],
            [0, 0, 1, 1, 1],
        ]
        report = general_upper_bound(make_model(adj))
        assert report.dim == pytest.approx(log(3), abs=1e-10)

    def test_upper_triangular_zero(self):
        report = general_upper_bound(make_model([[1, 1], [0, 1]]))
        assert report.dim == pytest.approx(0.0, abs=1e-12)

    def test_equal_rate_cycles(self):
        # 0<->1, 0->2, 2<->3: the closure of 0 holds two swap cycles growing
        # at the same rate, where power iteration on the whole closure
        # converges only like 1/n
        report = general_upper_bound(
            make_model([[0, 1, 0, 0], [1, 0, 0, 0], [1, 0, 0, 1], [0, 0, 1, 0]])
        )
        assert report.period == 2
        assert report.dim == pytest.approx(0.0, abs=1e-9)

    def test_block_period_multiple_of_closure_period(self):
        # 0<->1, 0->2, 2->{3,6}, {3,6}->4, 4->5, 5->2: the closure of 0 has
        # period 2, the block {2..6} period 4, so the 2-step cycle on that
        # block swaps two sub-classes
        adj = np.zeros((7, 7), dtype=int)
        for parent, children in [(0, [1, 2]), (1, [0]), (2, [3, 6]), (3, [4]),
                                 (6, [4]), (4, [5]), (5, [2])]:
            adj[children, parent] = 1
        report = general_upper_bound(make_model(adj.tolist()))
        assert report.period == 2
        assert report.dim == pytest.approx(0.1155245301, abs=1e-9)


def _constant_column_sums(model):
    col_sums = model.adjacency.sum(axis=0)
    return bool((col_sums == col_sums[0]).all())


class TestSpectralBound:
    """dim <= log rho(A), and the constant-column-sum predicate the ``dimension``
    command reports.  Constant column sums characterize the collapse
    h_top = log rho (and then dim = log rho = h_top too).  They do not
    characterize dim = log rho alone: a primitive matrix has dim = log rho by
    the p = 1 case of the formula, whatever its column sums (golden mean:
    dim = log rho = log phi < h_top)."""

    def test_full_shift_equality(self, full2):
        rep = general_upper_bound(full2)
        assert _constant_column_sums(full2)
        assert rep.dim == pytest.approx(log(2), abs=1e-10)
        assert rep.log_rho_linear == pytest.approx(log(2), abs=1e-10)

    def test_period2_strict(self, period2):
        rep = general_upper_bound(period2)
        assert not _constant_column_sums(period2)
        assert rep.dim == pytest.approx(log(2) / 3, abs=1e-4)
        assert rep.log_rho_linear == pytest.approx(log(2) / 2, abs=1e-10)
        assert rep.dim < rep.log_rho_linear - 1e-6

    def test_golden_collapses_dim_but_not_entropy(self, golden):
        rep = general_upper_bound(golden)
        assert not _constant_column_sums(golden)
        assert rep.dim == pytest.approx(rep.log_rho_linear, abs=1e-6)
        assert abs(rep.h_top - rep.log_rho_linear) > 1e-9

    def test_predicate_matches_entropy_equality(self, full2, swap2, period2, golden):
        for model in (full2, swap2, period2, golden):
            rep = general_upper_bound(model)
            assert rep.dim <= rep.log_rho_linear + 1e-9
            equal = abs(rep.h_top - rep.log_rho_linear) < 1e-9
            assert _constant_column_sums(model) == equal


class TestOptimalMeasure:
    def test_full_shift_uniform(self, full2):
        report = hausdorff_dimension(full2)
        om = optimal_markov_measure(full2, report)
        assert om.M == pytest.approx(np.full((2, 2), 0.5), abs=1e-9)
        assert om.pi == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_period2_measure(self, period2):
        report = hausdorff_dimension(period2)
        om = optimal_markov_measure(period2, report)
        assert om.M[:, 0] == pytest.approx([0.0, 0.5, 0.5], abs=1e-6)
        assert om.M[:, 1] == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
        assert om.validation_value == pytest.approx(log(2) / 3, abs=1e-6)
        assert min(om.phases) == pytest.approx(report.dim, abs=1e-6)

    def test_golden_certificate(self, golden):
        report = hausdorff_dimension(golden)
        om = optimal_markov_measure(golden, report)
        assert om.validation_value == pytest.approx(report.dim, abs=1e-6)

    def test_certificate_failure_raises(self, period2):
        from dataclasses import replace

        report = replace(hausdorff_dimension(period2), dim=log(2) / 3 + 0.01)
        with pytest.raises(ValidationFailed) as err:
            optimal_markov_measure(period2, report)
        assert err.value.expected == pytest.approx(log(2) / 3 + 0.01)
        assert err.value.got == pytest.approx(log(2) / 3, abs=1e-6)
