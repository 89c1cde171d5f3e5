"""Acceptance gate: one test per criterion, printed as one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""
import json
import time
from contextlib import contextmanager
from fractions import Fraction
from math import inf, log

import numpy as np
import pytest
from click.testing import CliRunner

from treeshift import (
    chain_from_matrices,
    find_a0_and_period,
    hausdorff_dimension,
    lattice_size,
    linear_spectral_radius,
    lln_beta_bounds,
    lln_limit,
    optimal_markov_measure,
    pressure,
    principal_eigenpair,
    rate,
    rate_curve,
    ratios_to_simplex,
    reciprocal_on_support,
    simplex_to_ratios,
)
from treeshift.cli import main as cli_main
from treeshift.oracle import (
    _exact_fractions,
    enumerate_type_classes,
    finite_rate,
)
from treeshift.stochastic import SampleConfig, lln_experiment

from conftest import (
    NINE_ADJACENCY,
    block_counts,
    class_prob,
    enumerate_blocks,
    full_cycle,
    make_model,
    random_a0_matrix,
)

LOG2 = log(2)


@contextmanager
def criterion(num, name):
    info = {}
    try:
        yield info
    except AssertionError:
        print(f"[criterion {num}] {name}: FAIL  {info.get('detail', '')}")
        raise
    print(f"[criterion {num}] {name}: PASS  {info.get('detail', '')}")


@pytest.fixture(scope="module")
def nine_report(nine):
    return hausdorff_dimension(nine)


@pytest.fixture(scope="module")
def example1_chain():
    return chain_from_matrices(
        [[0.5, 1.0], [0.5, 0.0]], [[1.0, 2.0], [1.0, 0.0]], d=2
    )


class TestCriterion1:
    def test_nine_by_nine_dimension(self, tmp_path):
        """9x9 three-tree example: dimension, spectral radius, argmin, runtime."""
        model_file = tmp_path / "nine.json"
        model_file.write_text(
            json.dumps(
                {
                    "symbols": [f"s{i}" for i in range(9)],
                    "adjacency": NINE_ADJACENCY,
                    "d": 3,
                }
            )
        )
        started = time.perf_counter()
        result = CliRunner().invoke(cli_main, ["dimension", str(model_file)])
        elapsed = time.perf_counter() - started
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        with criterion(1, "9x9 dimension (d=3)") as info:
            dim = payload["dim"]
            log_rho = payload["log_rho_linear"]
            argmin_s = np.array(payload["argmin_s"])
            # reference optimum (0.312, 0.588, 0.100): an independent
            # coarse grid scan and the simplex refinement both land here
            target = np.array([0.312, 0.588, 0.100])
            info["detail"] = (
                f"dim={dim:.5f} log_rho={log_rho:.5f} "
                f"argmin_s={np.round(argmin_s, 4).tolist()} time={elapsed:.1f}s"
            )
            assert dim == pytest.approx(0.3027, abs=5e-3)
            assert log_rho == pytest.approx(0.3208, abs=1e-3)
            assert dim < log_rho
            assert np.abs(argmin_s - target).max() <= 0.05
            assert elapsed < 60.0


class TestCriterion2:
    def test_example1_rate_curve(self, example1_chain):
        """Rate finite exactly on [0, (2/3)log2], zero at (1/3)log2, convex."""
        started = time.perf_counter()
        curve = rate_curve(example1_chain, 0, n_points=200)
        elapsed = time.perf_counter() - started
        with criterion(2, "Example-1 rate function") as info:
            resolution = 5e-3
            assert (curve.alphas[1] - curve.alphas[0]) < resolution
            lo, hi = 0.0, 2 * LOG2 / 3
            for a, v in zip(curve.alphas, curve.values):
                if lo + resolution <= a <= hi - resolution:
                    assert np.isfinite(v), f"rate should be finite at {a}"
                if a < lo - resolution or a > hi + resolution:
                    assert v == inf, f"rate should be +inf at {a}"
            at_star = rate(example1_chain, 0, LOG2 / 3)
            assert at_star == pytest.approx(0.0, abs=1e-4)
            finite = np.isfinite(curve.values)
            assert curve.values[finite].min() >= -1e-8
            second = np.diff(curve.values[finite], 2)
            assert second.min() > -1e-8
            info["detail"] = (
                f"finite on [{curve.alphas[finite][0]:.4f}, "
                f"{curve.alphas[finite][-1]:.4f}] rate(a*)={at_star:.2e} "
                f"time={elapsed:.1f}s"
            )
            assert elapsed < 30.0


class TestCriterion3:
    def test_period2_closed_forms(self, period2):
        report = hausdorff_dimension(period2)
        with criterion(3, "period-2 closed forms") as info:
            info["detail"] = (
                f"dim={report.dim:.6f} h_top={report.h_top:.6f} "
                f"log_rho={report.log_rho_linear:.6f}"
            )
            assert report.dim == pytest.approx(LOG2 / 3, abs=1e-4)
            assert report.h_top == pytest.approx(2 * LOG2 / 3, abs=1e-3)
            assert report.log_rho_linear == pytest.approx(LOG2 / 2, abs=1e-10)
            assert report.dim < report.log_rho_linear < report.h_top


class TestCriterion4:
    def test_extreme_example_phases(self):
        # phases of the likelihood-decay observable W = 1/M, the convention
        # the dimension certificate is stated in
        m = np.array([[0.0, 1.0, 1.0], [0.5, 0.0, 0.0], [0.5, 0.0, 0.0]])
        chain = chain_from_matrices(m, reciprocal_on_support(m), d=2)
        with criterion(4, "extreme example phases") as info:
            phases = sorted(lln_limit(chain, j) for j in range(2))
            lo, hi = lln_beta_bounds(chain, np.array([0.5, 0.25, 0.25]))
            info["detail"] = f"phases={np.round(phases, 8).tolist()} beta=({lo:.8f}, {hi:.8f})"
            assert phases[0] == pytest.approx(LOG2 / 3, abs=1e-8)
            assert phases[1] == pytest.approx(2 * LOG2 / 3, abs=1e-8)
            assert lo == pytest.approx(LOG2 / 2, abs=1e-8)
            assert hi == pytest.approx(LOG2 / 2, abs=1e-8)


class TestCriterion5:
    def test_optimal_measure_identity(self, full2, full3, swap2, golden, period2, nine, nine_report):
        with criterion(5, "optimal-measure identity") as info:
            worst = 0.0
            fixtures = [full2, full3, swap2, golden, period2, nine]
            for model in fixtures:
                report = nine_report if model is nine else hausdorff_dimension(model)
                om = optimal_markov_measure(model, report, tol=1e-5)
                worst = max(worst, abs(min(om.phases) - report.dim))
            info["detail"] = f"{len(fixtures)} fixtures, worst |min phase - dim| = {worst:.2e}"
            assert worst <= 1e-5


class TestCriterion6:
    def test_trivial_and_primitive_cases(self):
        with criterion(6, "trivial/primitive dimensions") as info:
            for k in (2, 3, 4):
                model = make_model([[1] * k for _ in range(k)])
                assert hausdorff_dimension(model).dim == pytest.approx(
                    log(k), abs=1e-10
                )
            swap = make_model([[0, 1], [1, 0]])
            assert hausdorff_dimension(swap).dim == pytest.approx(0.0, abs=1e-10)

            rng = np.random.default_rng(2024)
            checked = 0
            worst = 0.0
            while checked < 100:
                n = int(rng.integers(2, 6))
                model = make_model(random_a0_matrix(rng, n).tolist())
                from treeshift import is_irreducible

                if not is_irreducible(model):
                    continue
                period = find_a0_and_period(model)
                if period.period != 1:
                    continue
                checked += 1
                lin = linear_spectral_radius(model.adjacency.T.astype(float))
                report = hausdorff_dimension(model)
                # independent route: nonlinear power iteration at r = (1)
                pair = principal_eigenpair(model, period, [1.0])
                worst = max(worst, abs(report.dim - lin), abs(pair.log_rho - lin))
            info["detail"] = f"100 random primitive models, worst |dim - log rho| = {worst:.2e}"
            assert worst <= 1e-9


class TestCriterion7:
    def test_oracle_equivalence(self, example1_chain):
        with criterion(7, "oracle equivalence") as info:
            fixtures = [
                make_model([[1, 1], [1, 1]]),
                make_model([[1, 1], [1, 0]]),
                make_model([[0, 1], [1, 0]]),
                make_model([[0, 1, 1], [1, 0, 0], [1, 0, 0]]),
                make_model([[0, 1, 1], [1, 0, 0], [1, 0, 1]]),
            ]
            rng = np.random.default_rng(77)
            for _ in range(3):
                fixtures.append(make_model(random_a0_matrix(rng, 3).tolist()))
            for model in fixtures:
                for n in (1, 2, 3):
                    counts = block_counts(model, n)
                    for root in range(model.n_symbols):
                        listed = enumerate_blocks(model, n, root=root, want_list=True)
                        assert len(listed.trees) == counts[root]

            exact_total = None
            for n in (1, 2, 3, 4):
                classes = enumerate_type_classes(example1_chain, n, root=0)
                fractions = _exact_fractions(example1_chain)
                total = sum(class_prob(fractions, c) for c in classes)
                assert isinstance(total, Fraction) and total == 1
                exact_total = total

            worst = -inf
            n_checked = 0
            for n in (1, 2, 3, 4):
                size = lattice_size(2, n)
                for cls in enumerate_type_classes(example1_chain, n, root=0):
                    lhs = cls.log_prob / size
                    bound = finite_rate(example1_chain, 0, n, cls.mean(example1_chain))
                    worst = max(worst, lhs - bound)
                    n_checked += 1
            info["detail"] = (
                f"counts match on {len(fixtures)} fixtures; prob sum exact={exact_total}; "
                f"duality over {n_checked} classes, worst slack {worst:.2e}"
            )
            assert worst <= 1e-9


class TestCriterion8:
    def test_lln_monte_carlo(self, example1_chain):
        with criterion(8, "LLN Monte Carlo") as info:
            cfg = SampleConfig(depth=16, trials=50, seed=20240809)
            check = lln_experiment(example1_chain, cfg).phase_checks[0]
            info["detail"] = (
                f"empirical={check.empirical:.6f} target={check.target:.6f} "
                f"z={check.z_score:.2f}"
            )
            assert abs(check.empirical - LOG2 / 3) <= 3 * check.stderr


class TestCriterion9:
    def test_structural_invariants(self, period2, nine, nine_report, example1_chain):
        with criterion(9, "structural invariant suite") as info:
            # bijection round trip on 1000 random simplex points
            rng = np.random.default_rng(99)
            worst_rt = 0.0
            for _ in range(1000):
                p = int(rng.integers(2, 5))
                d = int(rng.integers(2, 4))
                s = rng.dirichlet(np.ones(p))
                back = ratios_to_simplex(simplex_to_ratios(s, d, p).r, d, p)
                worst_rt = max(worst_rt, float(np.abs(back - s).max()))
            assert worst_rt < 1e-12

            # j-independence of the minimized objective on irreducible fixtures
            spread2 = max(hausdorff_dimension(period2).class_values) - min(
                hausdorff_dimension(period2).class_values
            )
            spread9 = max(nine_report.class_values) - min(nine_report.class_values)
            assert max(spread2, spread9) < 1e-6

            # homogeneity and order preservation of the cycle on random inputs
            period = find_a0_and_period(period2)
            worst_h = 0.0
            for _ in range(50):
                r0 = rng.uniform(0.6, 1.8)
                r = [r0, 1 / r0]
                x = rng.normal(size=3)
                c = rng.uniform(-2, 2)
                base = full_cycle(period2, r, x)
                worst_h = max(
                    worst_h, float(np.abs(full_cycle(period2, r, x + c) - base - c).max())
                )
                y = x + rng.uniform(0, 1, size=3)
                assert np.all(full_cycle(period2, r, y) >= base - 1e-10)
            assert worst_h < 1e-10

            # pressure convexity in mu
            worst_cx = 0.0
            for chain in (
                example1_chain,
                chain_from_matrices(
                    np.array([[0.0, 1, 1], [0.5, 0, 0], [0.5, 0, 0]]), d=2
                ),
            ):
                vals = [
                    pressure(chain, float(mu), 0).value
                    for mu in np.linspace(-5, 5, 41)
                ]
                worst_cx = min(worst_cx, float(np.diff(vals, 2).min()))
            assert worst_cx > -1e-8
            info["detail"] = (
                f"roundtrip={worst_rt:.1e} j-spread={max(spread2, spread9):.1e} "
                f"homogeneity={worst_h:.1e} convexity={worst_cx:.1e}"
            )
