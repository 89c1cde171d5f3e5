from math import log, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import (
    entropy_iterate,
    find_a0_and_period,
    lattice_size,
    linear_spectral_radius,
    principal_eigenpair,
    psi,
    reduce_a0,
)
from treeshift.alphabet_graph import _recurrent
from treeshift.dimension import _cyclic_blocks, simplex_to_ratios
from treeshift.errors import BadExponent, EmptyModel, NoConvergence
from treeshift.transfer_op import EIGEN_TOL, _eigen_rows, log_weights

from conftest import (
    block_counts,
    full_cycle,
    make_model,
    periodic_model,
    periodic_models,
    random_a0_matrix,
    ring_model,
)

NEG_INF = float("-inf")


def log_vec(*vals):
    return np.array(vals, dtype=float)


class TestPsi:
    def test_identity_weight(self):
        x = log_vec(0.3, -1.2)
        got = psi(log_weights(np.eye(2)), 1.0, x)
        assert got == pytest.approx(x.tolist(), abs=1e-15)

    def test_swap_squared(self):
        got = psi(log_weights(np.array([[0, 1], [1, 0]])), 2.0, log_vec(log(3), 0.0))
        assert got[0] == pytest.approx(0.0, abs=1e-15)
        assert got[1] == pytest.approx(2 * log(3), abs=1e-15)

    def test_zero_vector_stays_zero(self):
        got = psi(log_weights(np.ones((2, 2))), 1.5, log_vec(NEG_INF, NEG_INF))
        assert np.all(np.isneginf(got))

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(BadExponent):
            psi(log_weights(np.ones((2, 2))), 0.0, log_vec(0, 0))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 6),
           st.floats(0.1, 3.0), st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_batch_rows_equal_single_calls(self, seed, rows, n, s, shared, per_row):
        # a row's step does not depend on the batch it runs in, bit for bit,
        # for a per-row matrix and for one matrix broadcast over the rows,
        # with one exponent for the batch or one per row
        rng = np.random.default_rng(seed)
        log_w = _sparse_logs(rng, (n, n) if shared else (rows, n, n))
        x = _sparse_logs(rng, (rows, n))
        dlog_w = rng.normal(size=log_w.shape)
        dx = rng.normal(size=x.shape)
        s_rows = rng.uniform(0.1, 3.0, size=(rows, 1)) if per_row else np.full((rows, 1), s)
        s_batch = s_rows if per_row else s
        got, dgot = psi(log_w, s_batch, x, dlog_w, dx)
        assert np.array_equal(psi(log_w, s_batch, x), got)
        for k in range(rows):
            w_k = log_w if shared else log_w[k]
            dw_k = dlog_w if shared else dlog_w[k]
            s_k = float(s_rows[k, 0])
            one, done = psi(w_k, s_k, x[k], dw_k, dx[k])
            assert np.array_equal(one, got[k])
            assert np.array_equal(psi(w_k, s_k, x[k]), got[k])
            assert np.array_equal(done, dgot[k], equal_nan=True)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.floats(0.1, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_column_reference(self, seed, n, s):
        rng = np.random.default_rng(seed)
        log_w = _sparse_logs(rng, (n, n))
        log_w[:, rng.integers(n)] = NEG_INF  # a column with no support
        for x in (_sparse_logs(rng, n), np.full(n, NEG_INF)):
            m = log_w + x[:, None]
            want = s * _lse_columns_reference(m)
            got = psi(log_w, s, x)
            assert np.array_equal(np.isneginf(got), np.isneginf(want))
            # within 1e-15 relative to the terms |max| and log n <= n that
            # the column adds up: the result itself can cancel to near 0
            finite = np.isfinite(want)
            scale = s * (np.abs(m.max(axis=0)[finite]) + n)
            assert (np.abs(got[finite] - want[finite]) <= 1e-15 * scale).all()


def _sparse_logs(rng, shape):
    """Normal logs with about a third of the entries -inf (exact zeros)."""
    return np.where(rng.random(shape) < 0.35, NEG_INF, 3 * rng.normal(size=shape))


def _lse_columns_reference(m):
    """The column-wise log-sum-exp that ``psi`` used to call, kept as a reference."""
    tops = m.max(axis=0)
    out = np.full(m.shape[1], NEG_INF)
    finite = tops > NEG_INF
    if finite.any():
        out[finite] = tops[finite] + np.log(np.exp(m[:, finite] - tops[finite]).sum(axis=0))
    return out


class TestApplyCycle:
    def test_swap_cycle_is_identity(self, swap2):
        for r0 in (0.6, 1.0, 1.7):
            x = log_vec(0.4, NEG_INF)
            got = full_cycle(swap2, [r0, 1 / r0], x)
            assert got[0] == pytest.approx(0.4, abs=1e-12)
            assert np.isneginf(got[1])

    def test_full_shift_row_sums(self, full2):
        got = full_cycle(full2, [1.0], log_vec(0.0, 0.0))
        assert got == pytest.approx([log(2), log(2)], abs=1e-15)

    def test_period2_closed_form(self, period2):
        # cycle applied to the indicator of class 0 scales it by 2^(1/r0)
        x = log_vec(0.0, NEG_INF, NEG_INF)
        got = full_cycle(period2, [2.0, 0.5], x)
        assert got[0] == pytest.approx(0.5 * log(2), abs=1e-14)
        assert np.isneginf(got[1]) and np.isneginf(got[2])

    def test_bad_exponents(self, swap2):
        period = find_a0_and_period(swap2)
        with pytest.raises(BadExponent):
            principal_eigenpair(swap2, period, [2.0, 2.0])
        with pytest.raises(BadExponent):
            principal_eigenpair(swap2, period, [4.0, 0.25])

    @given(
        st.integers(0, 2**36 - 1),
        st.floats(-3, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_homogeneity(self, seed, shift):
        rng = np.random.default_rng(seed)
        model = make_model(random_a0_matrix(rng, 4).tolist())
        p = _period_of(model)
        if p is None:
            return
        r = _random_ratios(rng, p, model.arity)
        x = rng.normal(size=4)
        base = full_cycle(model, r, x)
        shifted = full_cycle(model, r, x + shift)
        assert shifted == pytest.approx((base + shift).tolist(), abs=1e-10)

    @given(st.integers(0, 2**36 - 1))
    @settings(max_examples=60, deadline=None)
    def test_order_preserving(self, seed):
        rng = np.random.default_rng(seed)
        model = make_model(random_a0_matrix(rng, 4).tolist())
        p = _period_of(model)
        if p is None:
            return
        r = _random_ratios(rng, p, model.arity)
        x = rng.normal(size=4)
        y = x + rng.uniform(0, 1, size=4)
        fx = full_cycle(model, r, x)
        fy = full_cycle(model, r, y)
        assert np.all(fx <= fy + 1e-10)


def _period_of(model):
    from treeshift.errors import A1Violated, ClassInconsistency

    try:
        return find_a0_and_period(model).period
    except (A1Violated, ClassInconsistency):
        return None


def _random_ratios(rng, p, d):
    if p == 1:
        return np.ones(1)
    r = rng.uniform(0.7, 1.4, size=p)
    r[-1] = 1.0 / np.prod(r[:-1])
    if r[-1] > d or r[-1] <= 0:
        return np.ones(p)
    return r


class TestEigenpair:
    def test_full_shift(self, full2):
        period = find_a0_and_period(full2)
        pair = principal_eigenpair(full2, period, [1.0])
        assert pair.log_rho == pytest.approx(log(2), abs=1e-11)
        vec = pair.eigvec
        assert vec[0] == pytest.approx(vec[1], abs=1e-9)

    def test_swap_identity_operator(self, swap2):
        period = find_a0_and_period(swap2)
        pair = principal_eigenpair(swap2, period, [1.3, 1 / 1.3], class_index=0)
        assert pair.log_rho == pytest.approx(0.0, abs=1e-12)
        assert pair.iterations == 1

    def test_period2_closed_form(self, period2):
        period = find_a0_and_period(period2)
        for r0 in (0.5, 1.0, 1.5, 2.0):
            pair = principal_eigenpair(period2, period, [r0, 1 / r0], class_index=0)
            assert pair.log_rho == pytest.approx(log(2) / r0, abs=1e-10)

    def test_eigen_residual(self, nine):
        period = find_a0_and_period(nine)
        r = np.array([0.9, 1.5, 1 / (0.9 * 1.5)])
        for j in range(3):
            pair = principal_eigenpair(nine, period, r, class_index=j, tol=1e-11)
            rotation = (3 - j) % 3
            y = full_cycle(nine, r, pair.eigvec, rotation)
            sup = np.isfinite(pair.eigvec)
            resid = np.abs(y[sup] - pair.log_rho - pair.eigvec[sup]).max()
            assert resid < 10 * 1e-11

    def test_slow_mixing_ring_converges(self):
        # a shifted power iteration takes over 10^4 cycles on this ring
        ring = ring_model(120)
        period = find_a0_and_period(ring)
        assert period.period == 2
        for r0 in (0.7, 1.0, 1.5):
            pair = principal_eigenpair(ring, period, [r0, 1 / r0])
            assert pair.iterations <= 20
            assert pair.residual < EIGEN_TOL

    def test_matches_linear_radius_for_primitive(self):
        rng = np.random.default_rng(505)
        found = 0
        while found < 20:
            model = make_model(random_a0_matrix(rng, int(rng.integers(2, 6))).tolist())
            period = _try_period(model)
            if period is None or period.period != 1:
                continue
            from treeshift import is_irreducible

            if not is_irreducible(model):
                continue
            found += 1
            pair = principal_eigenpair(model, period, [1.0])
            lin = linear_spectral_radius(model.adjacency.T.astype(float))
            assert pair.log_rho == pytest.approx(lin, abs=1e-9)


def _random_exponents(rng, model, period, k):
    """k exponent vectors from random simplex points, as the dimension search makes them."""
    p = period.period
    return np.array([simplex_to_ratios(rng.dirichlet(np.ones(p)), model.arity, p).r
                     for _ in range(k)])


def shifted_power_bracket(model, period, r, class_index, tol=EIGEN_TOL, max_iter=10**6):
    """The Collatz-Wielandt bracket of a plain shifted power iteration on cone j.

    From the class indicator, x -> L(x) while the cycle changes the support,
    then x -> log(exp(x) + exp(L(x))), normalized, until the bracket
    min/max of L(x) - x over the support is narrower than ``tol``.
    """
    p = period.period
    rotation = (p - class_index) % p
    x = np.where(period.class_mask(class_index), 0.0, -np.inf)
    for _ in range(max_iter):
        lx = full_cycle(model, r, x, rotation)
        support = np.isfinite(x)
        if not np.isfinite(lx).any():
            return -np.inf, -np.inf
        if np.array_equal(np.isfinite(lx), support):
            diffs = lx[support] - x[support]
            if diffs.max() - diffs.min() < tol:
                return diffs.min(), diffs.max()
            lx = np.logaddexp(x, lx)
        x = lx - np.logaddexp.reduce(lx)
    raise AssertionError(f"reference bracket still open after {max_iter} cycles")


def _within_reference(model, period, r, class_index):
    pair = principal_eigenpair(model, period, r, class_index)
    lo, hi = shifted_power_bracket(model, period, r, class_index)
    if lo == -np.inf:
        assert pair.log_rho == -np.inf
        return
    assert pair.residual < EIGEN_TOL
    # both brackets hold the eigenvalue, and the pair's value is its
    # bracket's midpoint
    slack = 0.5 * pair.residual + 1e-14 * max(1.0, abs(pair.log_rho))
    assert lo - slack <= pair.log_rho <= hi + slack


class TestEigenRows:
    @given(periodic_models, st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_within_shifted_power_bracket(self, args, j):
        model, period = periodic_model(*args, max_symbols=8)
        rng = np.random.default_rng(args[0])
        for r in _random_exponents(rng, model, period, 3):
            _within_reference(model, period, r, j % period.period)

    # random irreducible models of 2-6 symbols and period 2-4
    @given(periodic_models, st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_batch_rows_equal_single_calls(self, args, k):
        model, period = periodic_model(*args, max_symbols=6)
        rng = np.random.default_rng(args[0])
        r = _random_exponents(rng, model, period, k)
        j = int(rng.integers(period.period))
        rows = _eigen_rows(model, period, r, j)
        for r_k, row in zip(r, rows):
            one = principal_eigenpair(model, period, r_k, class_index=j)
            assert row.log_rho == one.log_rho
            assert np.array_equal(row.eigvec, one.eigvec)
            assert (row.iterations, row.residual, row.class_index) == (
                one.iterations, one.residual, one.class_index)

    @given(periodic_models)
    @settings(max_examples=40, deadline=None)
    def test_warm_start_within_tol_of_cold(self, args):
        model, period = periodic_model(*args, max_symbols=6)
        rng = np.random.default_rng(args[0])
        _warm_matches_cold(model, period, _random_exponents(rng, model, period, 6))

    def test_warm_start_on_block_period_multiple(self):
        # the closure of 0 has period 2; its block {2..6} has period 4, so
        # the cycle swaps two sub-classes there (see test_dimension)
        adj = np.zeros((7, 7), dtype=int)
        for parent, children in [(0, [1, 2]), (1, [0]), (2, [3, 6]), (3, [4]),
                                 (6, [4]), (4, [5]), (5, [2])]:
            adj[children, parent] = 1
        model = make_model(adj.tolist())
        period = find_a0_and_period(model)
        assert period.period == 2
        rng = np.random.default_rng(3)
        for block in _cyclic_blocks(model):
            r = _random_exponents(rng, model, period, 12)
            _warm_matches_cold(block, period, r)
            for r_k in r:
                _within_reference(block, period, r_k, 0)

    def test_open_row_at_max_iter_raises_its_own_bracket(self, nine):
        period = find_a0_and_period(nine)
        r = _random_exponents(np.random.default_rng(5), nine, period, 8)
        counts = [principal_eigenpair(nine, period, r_k).iterations for r_k in r]
        cap = min(counts)
        first_open = next(k for k, c in enumerate(counts) if c > cap)
        with pytest.raises(NoConvergence) as batch:
            _eigen_rows(nine, period, r, max_iter=cap)
        with pytest.raises(NoConvergence) as single:
            principal_eigenpair(nine, period, r[first_open], max_iter=cap)
        assert batch.value.bracket == single.value.bracket
        assert batch.value.best.iterations == cap
        assert np.array_equal(batch.value.best.eigvec, single.value.best.eigvec)


def _warm_matches_cold(model, period, r):
    """Each row started from the previous row's eigenvector lands within tol of a cold start."""
    start = None
    for r_k in r:
        warm = _eigen_rows(model, period, r_k[None], start=start)[0]
        cold = principal_eigenpair(model, period, r_k)
        assert abs(warm.log_rho - cold.log_rho) <= EIGEN_TOL or warm.log_rho == cold.log_rho
        start = warm.eigvec


def _try_period(model):
    from treeshift.errors import A1Violated, ClassInconsistency

    try:
        return find_a0_and_period(model)
    except (A1Violated, ClassInconsistency):
        return None


def _entropy_value(model, depth):
    """log(sum_a c_depth(a)) / |Lambda(depth)| on the model's core, by a plain loop."""
    reach = model.reach
    core = np.flatnonzero(reach[_recurrent(model.adjacency, reach)].any(axis=0)).tolist()
    log_adj = log_weights(model.adjacency[np.ix_(core, core)])
    d, x = model.arity, np.zeros(len(core))
    for _ in range(depth):
        x = psi(log_adj, d, x)
    return np.logaddexp.reduce(x) / ((d ** (depth + 1) - 1.0) / (d - 1.0))


class TestEntropy:
    def test_full_shift_constant(self, full2):
        seq = entropy_iterate(full2)
        assert seq.values[1:] == pytest.approx([log(2)] * (len(seq.values) - 1), abs=1e-12)
        assert seq.h_top == pytest.approx(log(2), abs=1e-12)
        assert 0 < seq.error_bound <= 1e-10

    def test_period2_closed_form(self, period2):
        seq = entropy_iterate(period2)
        assert seq.h_top == pytest.approx(2 * log(2) / 3, abs=seq.error_bound)

    def test_golden_exceeds_spectral_radius(self, golden):
        seq = entropy_iterate(golden)
        log_phi = log((1 + sqrt(5)) / 2)
        assert seq.h_top > log_phi + 0.02
        assert seq.h_top == pytest.approx(0.5089, abs=2e-3)

    def test_matches_exact_counts(self, period2, golden):
        for model in (period2, golden):
            seq = entropy_iterate(model)
            for k in range(4):
                exact = log(sum(block_counts(model, k))) / lattice_size(model.arity, k)
                assert seq.values[k] == pytest.approx(exact, abs=1e-12)

    def test_transient_roots_leave_the_limit(self):
        # symbol 2 has no parent and roots the full 2-shift's trees one level late
        full_with_root = make_model([[1, 1, 1], [1, 1, 1], [0, 0, 0]])
        seq = entropy_iterate(full_with_root)
        assert seq.h_top == pytest.approx(log(2), abs=1e-12)
        # fixed points 0 and 3; symbol 1 has no parent and roots (1 + 2^4)^4
        # trees at every depth from 2, so h = 0, but that count divided by
        # |Lambda(n)| at the certified depth is about 3 times the bound
        model = make_model([[1, 1, 1, 0], [0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]], d=4)
        seq = entropy_iterate(model)
        assert 0.0 <= seq.h_top <= seq.error_bound
        n = seq.depths[-1]
        assert log(sum(block_counts(model, n))) / lattice_size(4, n) > 2 * seq.error_bound

    def test_zero_entropy_within_bound(self, swap2):
        # one tree per root at every depth: the value is log 2 / |Lambda(n)|
        seq = entropy_iterate(swap2)
        assert 0.0 < seq.h_top <= seq.error_bound

    def test_no_cycle_raises(self):
        with pytest.raises(EmptyModel):
            entropy_iterate(make_model([[0, 0], [1, 0]]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(2, 4), st.booleans())
    def test_certified_against_deeper_value(self, seed, n, d, periodic):
        """The value at the certified depth n* lies within the a-priori bound of
        the value 20 levels deeper, on reducible and periodic models."""
        rng = np.random.default_rng(seed)
        if periodic:
            model, _ = periodic_model(seed, int(rng.integers(2, 5)), d, max_symbols=7)
        else:
            model = reduce_a0(make_model(random_a0_matrix(rng, n, rng.uniform(0.2, 0.7)), d=d))
        seq = entropy_iterate(model)
        assert seq.depths == tuple(range(len(seq.values)))
        assert seq.h_top == seq.values[-1]
        assert seq.error_bound <= 1e-10
        deeper = _entropy_value(model, seq.depths[-1] + 20)
        assert abs(seq.h_top - deeper) <= seq.error_bound
