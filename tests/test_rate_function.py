from math import inf, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize.elementwise import find_root

from treeshift import (
    chain_from_matrices,
    domain_endpoints,
    find_a0_and_period,
    lln_beta_bounds,
    lln_limit,
    phi,
    pressure,
    rate,
    rate_curve,
    tilted_matrix,
)
from treeshift import rate_function
from treeshift.errors import ModelValidationError, SupportViolation
from treeshift.oracle import finite_rate
from treeshift.rate_function import (
    BOUNDARY_SLACK,
    MAX_DOUBLINGS,
    PRESSURE_TOL,
    ROOT_XTOL,
    _dual_rows,
    _legendre,
    _pressure_rows,
    _tilted_recursion,
    parse_weighted,
    stationary_class_vector,
)
from treeshift.tree_core import lattice_size

ALPHA_STAR_1 = log(2) / 3  # Example-1 limit
ALPHA_HI_1 = 2 * log(2) / 3


@pytest.fixture(scope="module")
def flat_chain():
    """Uniform full 2-shift with unit weights: a degenerate observable."""
    m = np.full((2, 2), 0.5)
    return chain_from_matrices(m, np.ones((2, 2)), d=2)


class TestChainValidation:
    def test_support_mismatch_rejected(self, golden):
        m = np.array([[0.5, 1.0], [0.5, 0.0]])
        w = np.array([[1.0, 0.0], [1.0, 0.0]])  # kills an adjacency edge
        with pytest.raises(ModelValidationError):
            parse_weighted({"M": m.tolist(), "A": w.tolist()}, golden)
        # a negative entry off the support, where the column still sums to 1
        for doc in ({"M": m.tolist(), "A": [[1.0, 2.0], [1.0, -3.0]]},
                    {"M": [[0.5, 1.5], [0.5, -0.5]]}):
            with pytest.raises(ModelValidationError) as err:
                parse_weighted(doc, golden)
            assert (err.value.row, err.value.col) == (1, 1)

    def test_column_sums_checked(self, golden):
        m = np.array([[0.5, 1.0], [0.6, 0.0]])
        with pytest.raises(ModelValidationError) as err:
            parse_weighted({"M": m.tolist()}, golden)
        assert err.value.col == 0


class TestPhi:
    def test_matched_stochastic_is_zero(self):
        p = np.array([[0.25, 0.5], [0.75, 0.5]])
        assert phi(p, p) == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_uniform_against_counting(self):
        p = np.array([[0.5, 1.0], [0.5, 0.0]])
        w = np.array([[1.0, 1.0], [1.0, 0.0]])
        assert phi(p, w)[0] == pytest.approx(log(2), abs=1e-15)

    def test_support_violation(self):
        p = np.array([[0.5, 1.0], [0.5, 0.0]])
        w = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(SupportViolation):
            phi(p, w)

    @given(st.integers(0, 2**36 - 1))
    @settings(max_examples=80, deadline=None)
    def test_gibbs_inequality(self, seed):
        # Phi(P|M) <= 0 for stochastic reference M with shared support
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        m = rng.dirichlet(np.ones(n), size=n).T
        p = rng.dirichlet(np.ones(n), size=n).T
        assert np.all(phi(p, m) <= 1e-12)


class TestTiltedMatrix:
    def test_mu_zero_recovers_m(self, example1):
        log_e = tilted_matrix(example1, 0.0)
        sup = example1.base.adjacency == 1
        assert np.exp(log_e[sup]) == pytest.approx(example1.M[sup], abs=1e-15)

    def test_mu_one_entries(self, example1):
        log_e = tilted_matrix(example1, 1.0)
        assert np.exp(log_e[0, 0]) == pytest.approx(0.5)
        assert np.exp(log_e[1, 0]) == pytest.approx(0.5)
        assert np.exp(log_e[0, 1]) == pytest.approx(2.0)  # M=1 times A=2

    @given(st.floats(-20, 20))
    @settings(max_examples=40, deadline=None)
    def test_support_preserved(self, mu):
        m = np.array([[0.5, 1.0], [0.5, 0.0]])
        chain = chain_from_matrices(m, np.array([[1.0, 2.0], [1.0, 0.0]]))
        log_e = tilted_matrix(chain, mu)
        assert np.array_equal(np.isfinite(log_e), chain.base.adjacency == 1)

    def test_edgewise_tilt_scalar_section(self, example1):
        # the scalar tilt is the mu*logW section of the per-edge tilt family,
        # so pressures agree along that section (spot check; the full
        # vector-valued dual is out of scope)
        sup = example1.base.adjacency == 1
        log_w = np.zeros_like(example1.W)
        log_w[sup] = np.log(example1.W[sup])
        for mu in (-2.0, 0.4, 1.0, 3.5):
            scalar = pressure(example1, mu, 0, tol=1e-14)
            section = pressure(example1, mu * log_w, 0, tol=1e-14)
            assert section.value == pytest.approx(
                scalar.value, abs=scalar.error_bound + section.error_bound
            )


class TestPressure:
    def test_stochastic_fixed_point(self, flat_chain):
        for mu in (-3.0, 0.0, 1.0, 7.5):
            res = pressure(flat_chain, mu)
            assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_example1_at_zero(self, example1):
        res = pressure(example1, 0.0)
        assert res.value == pytest.approx(0.0, abs=1e-10)
        assert res.error_bound < 1e-10

    def test_error_bound_honored(self, example1):
        for mu in (-2.0, 0.7, 3.0):
            coarse = pressure(example1, mu, 0, tol=1e-4)
            fine = pressure(example1, mu, 0, tol=1e-13)
            assert abs(coarse.value - fine.value) < coarse.error_bound

    def test_convex_in_mu(self, example1, example2):
        for chain in (example1, example2):
            mus = np.linspace(-4, 4, 33)
            vals = [pressure(chain, m, 0).value for m in mus]
            second = np.diff(vals, 2)
            assert second.min() > -1e-8


class TestRate:
    def test_zero_at_limit_value(self, example1):
        assert rate(example1, 0, ALPHA_STAR_1) == pytest.approx(0.0, abs=1e-6)

    def test_infinite_beyond_domain(self, example1):
        assert rate(example1, 0, 0.9) == inf
        assert rate(example1, 0, -0.2) == inf

    def test_degenerate_observable(self, flat_chain):
        assert rate(flat_chain, 0, 0.0) == pytest.approx(0.0, abs=1e-9)
        assert rate(flat_chain, 0, 0.3) == inf
        assert rate(flat_chain, 0, -0.3) == inf

    def test_nonnegative_and_positive_away_from_limit(self, example1, extreme):
        assert rate(example1, 0, ALPHA_STAR_1 + 0.05) > 1e-3
        assert rate(example1, 0, ALPHA_STAR_1 - 0.05) > 1e-3
        for j in range(2):
            star = lln_limit(extreme, j)
            assert rate(extreme, j, star) == pytest.approx(0.0, abs=1e-6)
            # domain is a single point here, so nearby values are infinite
            assert rate(extreme, j, star + 0.05) > 1e-3
            assert rate(extreme, j, star - 0.05) > 1e-3

    def test_convex_on_grid(self, example1):
        alphas = np.linspace(0.02, ALPHA_HI_1 - 0.02, 25)
        vals = [rate(example1, 0, float(a)) for a in alphas]
        second = np.diff(vals, 2)
        assert second.min() > -1e-8


class TestEndpoints:
    def test_example1(self, example1):
        # the max-plus readout is certified to PRESSURE_TOL, far inside 1e-10
        a1, a2 = domain_endpoints(example1, 0)
        assert a1 == pytest.approx(0.0, abs=1e-10)
        assert a2 == pytest.approx(ALPHA_HI_1, abs=1e-10)

    def test_degenerate(self, flat_chain):
        a1, a2 = domain_endpoints(flat_chain, 0)
        assert a1 == pytest.approx(0.0, abs=1e-9)
        assert a2 == pytest.approx(0.0, abs=1e-9)

    def test_extreme_phases_pin_both_classes(self, extreme):
        for j in range(2):
            a1, a2 = domain_endpoints(extreme, j)
            star = lln_limit(extreme, j)
            assert a1 == pytest.approx(star, abs=1e-4)
            assert a2 == pytest.approx(star, abs=1e-4)


def random_weighted_chain(seed: int):
    """Irreducible chain on 2-4 symbols (a Hamiltonian cycle plus random edges)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    adj = (rng.random((n, n)) < 0.4).astype(int)
    cycle = rng.permutation(n)
    adj[np.roll(cycle, -1), cycle] = 1
    m = np.where(adj == 1, rng.random((n, n)) + 0.05, 0.0)
    m /= m.sum(axis=0, keepdims=True)
    w = np.where(adj == 1, np.exp(rng.normal(size=(n, n))), 0.0)
    return chain_from_matrices(m, w, d=int(rng.integers(2, 4)))


def legendre_find_root(alpha, value_and_slope, lo, hi):
    """``_legendre`` as it ran on scipy: the same doubling brackets, then
    ``find_root`` (Chandrupatla, xatol = ROOT_XTOL, xrtol = 0) on all of them,
    with a memo of the slopes seen, and the same tangent-line readout."""
    known = {}

    def evaluate(mu):
        new = np.unique([m for m in mu.tolist() if m not in known])
        if new.size:
            known.update(zip(new.tolist(), zip(*value_and_slope(new))))
        return np.array([known[m] for m in mu.tolist()]).reshape(-1, 2).T

    alpha = np.asarray(alpha, dtype=float)
    value, argmax = np.full(alpha.shape, inf), np.full(alpha.shape, np.nan)
    inside = (lo - BOUNDARY_SLACK <= alpha) & (alpha <= hi + BOUNDARY_SLACK)
    target = alpha[inside]
    cap = 2.0**MAX_DOUBLINGS
    a, b = np.full(target.size, -1.0), np.ones(target.size)
    slope = evaluate(np.concatenate([a, b]))[1]
    fa, fb = slope[: target.size] - target, slope[target.size:] - target
    while True:
        left = (fa > 0) & (a > -cap)
        right = (fb < 0) & (b < cap) & ~left
        if not (left.any() or right.any()):
            break
        b[left], fb[left] = a[left], fa[left]
        a[left] *= 2.0
        a[right], fa[right] = b[right], fb[right]
        b[right] *= 2.0
        slope = evaluate(np.concatenate([a[left], b[right]]))[1]
        split = np.count_nonzero(left)
        fa[left] = slope[:split] - target[left]
        fb[right] = slope[split:] - target[right]
    mu = np.where(fa >= 0, a, b)
    xl, xr = mu.copy(), mu.copy()
    solve = (fa < 0) & (fb > 0)
    if solve.any():
        res = find_root(
            lambda m, t: evaluate(m)[1] - t, (a[solve], b[solve]), args=(target[solve],),
            tolerances=dict(xatol=ROOT_XTOL, xrtol=0.0),
        )
        mu[solve] = res.x
        xl[solve], xr[solve] = res.bracket
    (vl, vr), (gl, gr) = (np.split(out, 2) for out in evaluate(np.concatenate([xl, xr])))
    up, down = target - gl, gr - target
    with np.errstate(invalid="ignore"):
        crossing = (down * (gl * xl - vl) + up * (gr * xr - vr)) / (up + down)
    value[inside] = np.where(up + down > 0, crossing, xl * target - vl)
    argmax[inside] = mu
    return value, argmax


class TestRootSolve:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_matches_find_root(self, seed, class_index):
        # rate_curve's grid and brackets, solved by the numpy port and by scipy
        chain = random_weighted_chain(seed)
        period = find_a0_and_period(chain.base)
        j = class_index % period.period
        ends = domain_endpoints(chain, j)
        alphas = rate_curve(chain, j, n_points=15).alphas

        def value_and_slope(mu):
            return _pressure_rows(chain, mu, j, PRESSURE_TOL)[:2]

        value, mu = _legendre(alphas, value_and_slope, *ends)
        ref_value, ref_mu = legendre_find_root(alphas, value_and_slope, *ends)
        finite = np.isfinite(ref_value)
        assert np.array_equal(np.isfinite(value), finite)
        assert np.abs(mu[finite] - ref_mu[finite]).max(initial=0.0) <= ROOT_XTOL
        assert np.abs(value[finite] - ref_value[finite]).max(initial=0.0) <= 1e-12


class TestExactDual:
    @given(st.integers(0, 2**32 - 1), st.floats(-6, 6), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_tangent_matches_central_difference(self, seed, mu, n):
        chain = random_weighted_chain(seed)
        size = lattice_size(chain.arity, n)
        h = 1e-5
        for root in np.eye(chain.base.n_symbols, dtype=bool):
            _, slope = _tilted_recursion(chain, mu, n, root)
            x_hi, _ = _tilted_recursion(chain, mu + h, n, root)
            x_lo, _ = _tilted_recursion(chain, mu - h, n, root)
            assert abs(slope[0] - (x_hi[0] - x_lo[0]) / (2 * h)) / size < 1e-7

    @given(st.integers(0, 2**32 - 1), st.floats(-30, 30))
    @settings(max_examples=40, deadline=None)
    def test_slope_inside_domain(self, seed, mu):
        chain = random_weighted_chain(seed)
        period = find_a0_and_period(chain.base)
        for j in range(period.period):
            a1, a2 = domain_endpoints(chain, j)
            slope = pressure(chain, mu, j).slope
            assert a1 - 1e-9 <= slope <= a2 + 1e-9

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rate_finite_exactly_on_domain(self, seed):
        chain = random_weighted_chain(seed)
        a1, a2 = domain_endpoints(chain, 0)
        assert rate(chain, 0, a1 - 1e-6) == inf
        assert rate(chain, 0, a2 + 1e-6) == inf
        assert rate(chain, 0, 0.5 * (a1 + a2)) < inf

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_curve_rows_match_single_rates(self, seed):
        # a row's result does not depend on the batch it is solved in
        chain = random_weighted_chain(seed)
        period = find_a0_and_period(chain.base)
        for j in range(period.period):
            curve = rate_curve(chain, j, n_points=9)
            single = np.array([rate(chain, j, float(a)) for a in curve.alphas])
            finite = np.isfinite(single)
            assert np.array_equal(np.isfinite(curve.values), finite)
            assert np.abs(curve.values[finite] - single[finite]).max(initial=0.0) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_grid_ends_at_doubling_cap(self, seed):
        # just inside the slack past each endpoint the slope root lies beyond
        # the cap, which stands in for it, in the batch as for a single point
        chain = random_weighted_chain(seed)
        period = find_a0_and_period(chain.base)
        for j in range(period.period):
            curve = rate_curve(chain, j, n_points=5, margin=1e-8)
            cap = 2.0**MAX_DOUBLINGS
            assert curve.argmax_mu[0] == -cap and curve.argmax_mu[-1] == cap
            ends = (curve.alpha1, curve.alpha2)
            for i in (0, -1):
                value, mu, _, _ = _dual_rows(
                    chain, j, curve.alphas[[i]], ends, PRESSURE_TOL
                )
                assert value[0] < inf and mu[0] == curve.argmax_mu[i]
                assert value[0] == pytest.approx(curve.values[i], abs=1e-12)

    def test_dual_value_exact_at_kink(self, monkeypatch):
        # at n = 1 the maximizing root of the readout switches near the root
        # of V'(mu) = alpha, so V has a kink there; a point readout at the
        # solver's mu was off by 9.7e-9, the bracket's tangent lines are not
        chain = random_weighted_chain(55)
        value = finite_rate(chain, 0, 1, -0.2)
        monkeypatch.setattr(rate_function, "ROOT_XTOL", 1e-15)
        assert abs(value - finite_rate(chain, 0, 1, -0.2)) < 1e-12


class TestLln:
    def test_example1_limit(self, example1):
        assert lln_limit(example1, 0) == pytest.approx(ALPHA_STAR_1, abs=1e-12)

    def test_extreme_phases(self, extreme, extreme_recip):
        got = {round(lln_limit(extreme, j), 12) for j in range(2)}
        assert got == {
            round(-log(2) / 3, 12),
            round(-2 * log(2) / 3, 12),
        }
        got_recip = sorted(lln_limit(extreme_recip, j) for j in range(2))
        assert got_recip[0] == pytest.approx(log(2) / 3, abs=1e-12)
        assert got_recip[1] == pytest.approx(2 * log(2) / 3, abs=1e-12)

    def test_extreme_beta_bounds(self, extreme_recip):
        lo, hi = lln_beta_bounds(extreme_recip, np.array([0.5, 0.25, 0.25]))
        assert lo == pytest.approx(log(2) / 2, abs=1e-12)
        assert hi == pytest.approx(log(2) / 2, abs=1e-12)

    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7])
    def test_stationary_vector_slow_mixing(self, eps):
        # the spectral gap is 3 eps; power iteration stalled at 1e-5 and below
        m = np.array([[1 - eps, 2 * eps], [eps, 1 - 2 * eps]])
        chain = chain_from_matrices(m)
        got = stationary_class_vector(chain)
        vals, vecs = np.linalg.eig(m)
        ref = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
        assert got == pytest.approx((ref / ref.sum()).tolist(), abs=1e-9)

    def test_rate_vanishes_at_phase_limits(self, extreme):
        # ties the class conventions of the dual recursion and the LLN formula
        for j in range(2):
            star = lln_limit(extreme, j)
            assert rate(extreme, j, star) == pytest.approx(0.0, abs=1e-6)


@pytest.fixture(scope="module")
def nine_chain(nine):
    from treeshift import reciprocal_on_support

    m = nine.adjacency.astype(float)
    m = m / m.sum(axis=0, keepdims=True)
    return chain_from_matrices(m, reciprocal_on_support(m), d=3, symbols=nine.symbols)


class TestPeriodThree:
    def test_rate_vanishes_exactly_at_each_phase(self, nine_chain):
        # ties the pressure readout class, the dual, and the LLN phase
        # indexing together at p = 3, where the conventions all differ
        period = find_a0_and_period(nine_chain.base)
        assert period.period == 3
        for j in range(3):
            star = lln_limit(nine_chain, j)
            assert rate(nine_chain, j, star) == pytest.approx(0.0, abs=1e-8)
            # strictly positive away from the phase limit, though this chain
            # is exceptionally flat there (deviations planted high in the
            # tree propagate down cheaply), hence the small threshold
            assert rate(nine_chain, j, star + 0.08) > 1e-8
            assert rate(nine_chain, j, star - 0.08) > 1e-8

    def test_phases_are_distinct(self, nine_chain):
        phases = [lln_limit(nine_chain, j) for j in range(3)]
        assert len({round(p, 6) for p in phases}) == 3

    def test_pressure_error_bound_honored(self, nine_chain):
        for mu in (-1.5, 0.8):
            coarse = pressure(nine_chain, mu, 1, tol=1e-4)
            fine = pressure(nine_chain, mu, 1, tol=1e-13)
            assert abs(coarse.value - fine.value) < coarse.error_bound


class TestRateCurve:
    def test_example2_two_curves(self, example2):
        curves = [rate_curve(example2, j, n_points=40) for j in range(2)]
        stars = [c.alpha_star for c in curves]
        assert abs(stars[0] - stars[1]) > 0.1
        for c in curves:
            finite = np.isfinite(c.values)
            i = np.argmin(np.where(finite, c.values, np.inf))
            assert abs(c.alphas[i] - c.alpha_star) < (c.alphas[1] - c.alphas[0]) * 1.5
        # pointwise max gives the unconditional rate; it keeps both zeros
        grid = np.linspace(-0.8, -0.1, 30)
        vals = np.array(
            [
                [rate(example2, j, float(a)) for a in grid]
                for j in range(2)
            ]
        )
        unconditional = np.maximum(vals[0], vals[1])
        assert unconditional.min() >= 0
        for c in curves:
            finite_vals = c.values[np.isfinite(c.values)]
            assert finite_vals.min() >= -1e-8

    def test_symbol_permutation_invariance(self):
        # relabeling the alphabet leaves the curve unchanged
        m = np.full((2, 2), 0.5)
        w = np.array([[2.0, 3.0], [3.0, 2.0]])
        chain_a = chain_from_matrices(m, w)
        perm = [1, 0]
        chain_b = chain_from_matrices(m[np.ix_(perm, perm)], w[np.ix_(perm, perm)])
        ca = rate_curve(chain_a, 0, n_points=25)
        cb = rate_curve(chain_b, 0, n_points=25)
        assert ca.alphas == pytest.approx(cb.alphas.tolist(), abs=1e-12)
        fa, fb = np.isfinite(ca.values), np.isfinite(cb.values)
        assert np.array_equal(fa, fb)
        assert ca.values[fa] == pytest.approx(cb.values[fb].tolist(), abs=1e-7)

    def test_degenerate_domain_needs_no_recursion(self, flat_chain):
        # a1 = a2: every grid point lies outside the domain
        curve = rate_curve(flat_chain, 0, n_points=10)
        assert np.all(curve.values == inf) and np.all(np.isnan(curve.argmax_mu))
        assert curve.recursion_passes == 0 and curve.max_depth == 0

    @pytest.mark.parametrize("n_points", [0, 1])
    def test_tiny_grids(self, example1, n_points):
        curve = rate_curve(example1, 0, n_points=n_points)
        assert curve.values.shape == curve.argmax_mu.shape == (n_points,)
        assert curve.summary()["n_points"] == n_points
        if n_points:
            assert curve.values[0] == inf  # the grid's left end, outside the domain

    def test_summary_counts_recursion_passes(self, example1, monkeypatch):
        depths = []
        kernel = rate_function._tilted_recursion

        def counted(chain, mu, n, mask):
            depths.append(int(np.max(n)))
            return kernel(chain, mu, n, mask)

        monkeypatch.setattr(rate_function, "_tilted_recursion", counted)
        summary = rate_curve(example1, 0, n_points=30).summary()
        assert summary["recursion_passes"] == len(depths) > 0
        assert summary["max_depth"] == max(depths)

    @pytest.mark.parametrize("bad", [
        {"pressure_tol": float("nan")},
        {"pressure_tol": 0.0},
        {"pressure_tol": -1.0},
        {"n_points": -3},
    ])
    def test_bad_inputs_refused(self, example1, bad):
        with pytest.raises(ModelValidationError):
            rate_curve(example1, 0, **bad)
        if "pressure_tol" in bad:
            with pytest.raises(ModelValidationError):
                pressure(example1, 0.5, tol=bad["pressure_tol"])

    def test_csv_format(self, tmp_path, flat_chain):
        curve = rate_curve(flat_chain, 0, n_points=10)
        out = tmp_path / "curve.csv"
        with open(out, "w") as fh:
            curve.to_csv(fh)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha,rate,argmax_mu,finite"
        assert any(",inf,," in line for line in lines[1:])
