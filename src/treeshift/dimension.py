"""Hausdorff dimension of the tree-shift under the lattice metric.

For an irreducible adjacency matrix with period p the dimension is a minimum
of coefficient(r) * log rho_class(cycle_r) over exponent vectors r in
(0, d]^p with unit product.  The search runs over the probability simplex
instead: the affine map

    q_i(s) = sum_j s_{i-j} d^{-j} * (d^p - d^{p-1}) / (d^p - 1),
    r_i    = q_i / q_{i+1}           (indices mod p)

is a bijection from the simplex onto the exponent set, and the coefficient
in the objective equals q_0.  The boundary r_i = d (often optimal) sits on
simplex faces, which the search reaches exactly (see ``_search``).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, isfinite

import numpy as np
from scipy.optimize import minimize

from .alphabet_graph import (
    AdjacencyModel,
    PeriodStructure,
    _sccs,
    find_a0_and_period,
    is_irreducible,
    linear_spectral_radius,
    reachability,
    reduce_a0,
)
from .errors import (
    ClassInconsistency,
    EmptyRecurrentSet,
    ModelValidationError,
    ValidationFailed,
)
from .rate_function import (
    WeightedChainModel,
    lln_limit,
    reciprocal_on_support,
    stationary_class_vector,
)
from .transfer_op import (
    EIGEN_TOL,
    _eigen_rows,
    entropy_iterate,
    log_weights,
    logsumexp,
    principal_eigenpair,
    psi,
)

SIMPLEX_TOL = 1e-12
SCAN_MAX_POINTS = 51
SCAN_MAX_DENOM = 50
NM_FTOL = 1e-12
NM_XTOL = 1e-9


@dataclass(frozen=True)
class ExponentVector:
    """r in (0, d]^p with product 1, plus the simplex weights q it came from."""

    r: np.ndarray
    q: np.ndarray

    @property
    def coefficient(self) -> float:
        """q_0 = (sum_l prod_{i<=l} r_i^{-1})^{-1}, the dimension-objective prefactor."""
        return float(self.q[0])


def simplex_to_ratios(s, d: int, p: int) -> ExponentVector:
    """The bijection from the simplex onto the admissible exponent vectors."""
    s = np.asarray(s, dtype=float)
    if (s < -SIMPLEX_TOL).any() or abs(s.sum() - 1.0) > 1e-9:
        raise ModelValidationError(f"not a simplex point: {s}")
    s = np.clip(s, 0.0, None)
    if s.shape != (p,):
        raise ModelValidationError(f"expected {p} simplex coordinates, got {s.shape}")
    scale = (d**p - d ** (p - 1)) / (d**p - 1.0)
    q = np.array(
        [sum(s[(i - j) % p] * d ** (-j) for j in range(p)) * scale for i in range(p)]
    )
    r = q / np.roll(q, -1)
    return ExponentVector(r=r, q=q)


def ratios_to_simplex(r, d: int, p: int) -> np.ndarray:
    """Inverse bijection: recover q from cumulative ratio products, then s."""
    r = np.asarray(r, dtype=float)
    inv_cum = np.cumprod(1.0 / r)
    q0 = 1.0 / inv_cum.sum()
    q = q0 * np.concatenate(([1.0], inv_cum[:-1]))
    s = (d * q - np.roll(q, 1)) / (d - 1.0)
    return s


@dataclass(frozen=True)
class DimensionReport:
    dim: float
    argmin_r: np.ndarray
    argmin_s: np.ndarray
    class_values: tuple[float, ...]
    h_top: float
    log_rho_linear: float
    method: str
    iterations: int
    a0: int
    period: int
    # the simplex grid the search scanned and the objective at each point;
    # the single point s = [1.0] with the reported value when no search ran
    grid_s: np.ndarray
    grid_values: np.ndarray


def dim_objective(
    model: AdjacencyModel,
    period: PeriodStructure,
    s,
    class_index: int = 0,
    eigen_tol: float = EIGEN_TOL,
) -> float:
    """Rotated coefficient times the log principal eigenvalue on cone j (see ``_objective``)."""
    values, _ = _objective([model], period, [s], class_index, eigen_tol, [None])
    return float(values[0])


def _objective(blocks, period: PeriodStructure, points, class_index: int, eigen_tol, starts):
    """Objective at each simplex point ([K, p]) and each block's eigenpairs ([K] per block).

    The cycle on cone j starts at exponent r_{p-j} (the step the covering
    recursion applies to class-j vectors) and the matching coefficient is the
    bijection component q_{p-j}; that pairing makes the value independent of
    j, to roundoff.  A point scores the largest value over the blocks, each
    block's power iteration starting from its entry of ``starts`` (None: the
    class indicator).
    """
    p = period.period
    j = class_index % p
    params = [simplex_to_ratios(s, blocks[0].arity, p) for s in points]
    r = np.array([param.r for param in params])
    coef = np.array([param.q[(p - j) % p] for param in params])
    pairs = [_eigen_rows(b, period, r, j, eigen_tol, start=x) for b, x in zip(blocks, starts)]
    # coef > 0, so a collapsed cone (log_rho = -inf) scores -inf
    log_rho = np.array([[pair.log_rho for pair in row] for row in pairs])
    return (coef * log_rho).max(axis=0), pairs


def _simplex_grid(p: int, step_denom: int):
    """Lattice points of the (p-1)-simplex with denominator ``step_denom``."""
    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + [remaining]
            return
        for k in range(remaining + 1):
            yield from rec(prefix + [k], remaining - k, slots - 1)

    for point in rec([], step_denom, p):
        yield np.array(point, dtype=float) / step_denom


def _scan_denominator(p: int) -> int:
    """The finest lattice step 1/k, k <= 50, whose simplex grid has at most 51 points.

    That is 1/50 at p = 2, 1/8 at p = 3, and the p vertices (k = 1) from
    p = 10 on; the vertices are always scanned, even when p > 51.
    """
    k = 1
    while k < SCAN_MAX_DENOM and comb(k + p, p - 1) <= SCAN_MAX_POINTS:
        k += 1
    return k


def _cyclic_blocks(model: AdjacencyModel) -> list[AdjacencyModel]:
    """The model with its adjacency masked to each SCC that carries a cycle.

    Symbols keep their indices, so the period structure of the whole model
    applies to every block.  An irreducible model is its own single block.
    """
    sccs = _sccs(model.adjacency)
    if len(sccs) == 1:
        return [model]
    inside = [np.isin(np.arange(model.n_symbols), comp) for comp in sccs]
    masked = [model.adjacency * np.outer(m, m) for m in inside]
    return [AdjacencyModel(model.symbols, adj, model.arity) for adj in masked if adj.any()]


def _search(model: AdjacencyModel, period: PeriodStructure, eigen_tol):
    """Minimize the objective over the simplex: lattice scan, then Nelder-Mead.

    The scan covers the simplex lattice of ``_scan_denominator(p)``, one
    batched eigen loop per block.  Nelder-Mead then runs over p - 1 free
    coordinates u through s = w / sum(w), with w = 1 at the pivot (the
    largest coordinate of the best lattice point) and w_i = u_i^2 elsewhere.
    The map covers the whole simplex except the face s_pivot = 0, so an
    optimum on any other face is reached exactly, with no penalty or
    clipping.  Each evaluation starts its power iteration from the previous
    evaluation's eigenvector of the same block (first, the best lattice
    point's): nearby exponents have nearby eigenvectors on the same support.

    A point scores the largest objective over the model's cyclic SCC blocks
    (one block when irreducible).  Power iteration on a reducible closure
    whose blocks grow at the same rate converges like 1/n (a Jordan block),
    while each block alone converges geometrically.  Returns the minimum,
    its simplex point, the number of objective evaluations, and the lattice
    points with their objective values.
    """
    p = period.period
    denom = _scan_denominator(p)
    points = np.array(list(_simplex_grid(p, denom)))
    blocks = _cyclic_blocks(model)
    values, pairs = _objective(blocks, period, points, 0, eigen_tol, [None] * len(blocks))
    best = int(np.argmin(values))
    warm = [row[best].eigvec for row in pairs]
    pivot = int(np.argmax(points[best]))
    free = np.arange(p) != pivot

    def to_simplex(u: np.ndarray) -> np.ndarray:
        w = np.ones(p)
        w[free] = u * u
        return w / w.sum()

    def refine(u: np.ndarray) -> float:
        value, pairs = _objective(blocks, period, [to_simplex(u)], 0, eigen_tol, warm)
        warm[:] = [row[0].eigvec for row in pairs]
        return float(value[0])

    u0 = np.sqrt(points[best][free] / points[best][pivot])
    result = minimize(
        refine,
        u0,
        method="Nelder-Mead",
        options={
            "initial_simplex": np.vstack([u0, u0 + np.eye(p - 1) / denom]),
            "xatol": NM_XTOL,
            "fatol": NM_FTOL,
            "maxiter": 2000,
        },
    )
    evals = len(points) + result.nfev
    return float(result.fun), to_simplex(result.x), evals, (points, values)


def _bound(model: AdjacencyModel, period: PeriodStructure | None, eigen_tol):
    """The dimension formula on one model, as ``_search`` returns it.

    With a class labeling of period p > 1 it is the simplex search.  At
    p = 1, or with no consistent labeling (``period`` None), it is the linear
    spectral radius, which bounds the dimension for any labeling; its scan is
    the single point s = [1.0].
    """
    if period is not None and period.period > 1:
        return _search(model, period, eigen_tol)
    value = linear_spectral_radius(model.adjacency.T.astype(float))
    return value, np.array([1.0]), 0, (np.array([[1.0]]), np.array([value]))


def _report(model: AdjacencyModel, bound, class_values, method: str, a0: int, h_top: float):
    """The report of a ``_bound`` result on ``model``."""
    dim, s, evals, (grid_s, grid_values) = bound
    return DimensionReport(
        dim=float(dim),
        argmin_r=simplex_to_ratios(s, model.arity, len(s)).r,
        argmin_s=np.asarray(s, dtype=float),
        class_values=class_values,
        h_top=h_top,
        log_rho_linear=linear_spectral_radius(model.adjacency.T.astype(float)),
        method=method,
        iterations=evals,
        a0=int(a0),
        period=len(s),
        grid_s=grid_s,
        grid_values=grid_values,
    )


def check_tolerance(name: str, value: float) -> None:
    """Reject a tolerance that is negative or not a finite number."""
    if not (isfinite(value) and value >= 0):
        raise ModelValidationError(f"{name} must be finite and >= 0, got {value!r}")


def hausdorff_dimension(
    model: AdjacencyModel,
    period: PeriodStructure | None = None,
    eigen_tol: float = EIGEN_TOL,
    entropy_n: int = 40,
) -> DimensionReport:
    """Exact dimension for irreducible models: lattice scan + Nelder-Mead refine."""
    check_tolerance("eigen tolerance", eigen_tol)
    if not is_irreducible(model):
        raise ModelValidationError(
            "model is not irreducible; use general_upper_bound instead"
        )
    if period is None:
        period = find_a0_and_period(model)
    h_top = entropy_iterate(model, entropy_n).h_top
    bound = dim, s_star, _, _ = _bound(model, period, eigen_tol)
    # the objective on every cone at the argmin; the linear bound is its own one value
    class_values = (dim,) if period.period == 1 else tuple(
        dim_objective(model, period, s_star, j, eigen_tol) for j in range(period.period)
    )
    return _report(model, bound, class_values, "exact_irreducible", period.a0, h_top)


def general_upper_bound(
    model: AdjacencyModel,
    eigen_tol: float = EIGEN_TOL,
    entropy_n: int = 40,
) -> DimensionReport:
    """Upper bound for arbitrary (A0) models: max over recurrent closures.

    Each recurrent symbol a spans the submodel on its descendant closure,
    which satisfies the generation assumption with a as the base symbol; the
    irreducible formula evaluated there bounds the closure's dimension.  If
    the closure's class labeling is inconsistent (possible for reducible
    models), the linear spectral radius of the closure is used instead, which
    is always a valid upper bound.  The report's grid scan is that of the
    first closure that sets the bound.
    """
    check_tolerance("eigen tolerance", eigen_tol)
    model = reduce_a0(model)
    report = reachability(model)
    if not report.recurrent:
        raise EmptyRecurrentSet(
            "no symbol lies on a cycle: the shift holds finitely many trees (dimension 0)"
        )
    h_top = entropy_iterate(model, entropy_n).h_top
    bases: dict[frozenset, int] = {}  # each closure once, with its smallest base symbol
    for a in sorted(report.recurrent):
        bases.setdefault(report.closures[a], a)
    bounds = []
    for closure, a in bases.items():
        keep = sorted(closure)
        sub = model.submodel(keep)
        try:
            sub_period = find_a0_and_period(sub, a0=keep.index(a))
        except ClassInconsistency:
            sub_period = None
        bounds.append((_bound(sub, sub_period, eigen_tol), a))
    (value, s_arg, _, scan), a = max(bounds, key=lambda item: item[0][0])
    bound = (value, s_arg, sum(b[2] for b, _ in bounds), scan)
    return _report(model, bound, (float(value),), "upper_bound_general", a, h_top)


@dataclass(frozen=True)
class SpectralBoundReport:
    dim: float
    log_rho: float
    h_top: float
    bound_holds: bool
    equality_predicate: bool
    dim_equality_observed: bool
    entropy_equality_observed: bool


def spectral_bound_report(model: AdjacencyModel, tol: float = 1e-6) -> SpectralBoundReport:
    """dim <= log rho(A), plus the constant-column-sum equality predicate.

    Constant column sums characterize the collapse h_top = log rho (and then
    everything collapses: dim = log rho = h_top).  They do NOT characterize
    dim = log rho alone: any primitive matrix has dim = log rho by the p = 1
    case of the dimension formula, whatever its column sums (golden mean:
    dim = log rho = log phi < h_top).  The report carries both observed
    equalities so callers can test the predicate against the right one.
    """
    model = reduce_a0(model)
    # on an irreducible model this is the exact report, bar method and class values
    rep = general_upper_bound(model)
    log_rho = rep.log_rho_linear
    col_sums = model.adjacency.sum(axis=0)
    predicate = bool((col_sums == col_sums[0]).all())
    return SpectralBoundReport(
        dim=rep.dim,
        log_rho=log_rho,
        h_top=rep.h_top,
        bound_holds=bool(rep.dim <= log_rho + 1e-9),
        equality_predicate=predicate,
        dim_equality_observed=bool(abs(rep.dim - log_rho) < tol),
        entropy_equality_observed=bool(abs(rep.h_top - log_rho) < max(tol, 2e-3)),
    )


@dataclass(frozen=True)
class OptimalMeasure:
    """Markov measure attaining the dimension, with its numeric certificate."""

    M: np.ndarray
    pi: np.ndarray
    phases: tuple[float, ...]
    validation_value: float
    dim: float


def optimal_markov_measure(
    model: AdjacencyModel,
    report: DimensionReport,
    tol: float = 1e-6,
    eigen_tol: float = EIGEN_TOL,
) -> OptimalMeasure:
    """Markov measure whose cylinder decay attains the Hausdorff dimension.

    The eigenvector chain w^(j+1) = normalize(psi(A, r_j, w^(j))) at the
    minimizing exponents feeds columnwise weights: a parent in class j sends
    mass to child a proportional to A[a, b] * w^(j+1)[a].  (The support
    restriction to A and the per-parent normalization are a corrected reading
    of the construction; correctness is certified numerically instead: the
    smallest likelihood-decay phase of the built chain must reproduce the
    dimension.)
    """
    check_tolerance("certificate tolerance", tol)
    check_tolerance("eigen tolerance", eigen_tol)
    if not is_irreducible(model):
        raise ModelValidationError("optimal measure needs an irreducible model")
    period = find_a0_and_period(model)
    p = period.period
    n = model.n_symbols
    log_adj = log_weights(model.adjacency)

    pair = principal_eigenpair(model, period, report.argmin_r, class_index=0, tol=eigen_tol)
    w_chain = [pair.eigvec]
    for j in range(p):
        nxt = psi(log_adj, float(report.argmin_r[j % p]), w_chain[-1])
        w_chain.append(nxt - logsumexp(nxt))

    m_star = np.zeros((n, n))
    for b in range(n):
        j = period.class_of[b]
        # each psi step lowers the supported class by one, so the chain entry
        # carrying the children of class j lives at index -(j+1) mod p
        w_next = w_chain[(-(j + 1)) % p]
        col_support = model.adjacency[:, b] == 1
        logs = np.where(col_support, log_adj[:, b] + w_next, -np.inf)
        norm = logsumexp(logs)
        m_star[col_support, b] = np.exp(logs[col_support] - norm)

    chain = WeightedChainModel(model, m_star, reciprocal_on_support(m_star))
    phases = tuple(lln_limit(chain, j, period) for j in range(p))
    validation = min(phases)
    if abs(validation - report.dim) > tol:
        raise ValidationFailed(
            f"optimal-measure certificate missed: min phase {validation} vs dim {report.dim}",
            expected=report.dim,
            got=validation,
        )
    pi_star = stationary_class_vector(chain, period)
    return OptimalMeasure(
        M=m_star, pi=pi_star, phases=phases, validation_value=validation, dim=report.dim
    )
