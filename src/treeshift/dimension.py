"""Hausdorff dimension of the tree-shift under the lattice metric.

For an irreducible adjacency matrix with period p the dimension is a minimum
of coefficient(r) * log rho_class(cycle_r) over exponent vectors r in
(0, d]^p with unit product.  The search runs over the probability simplex
instead: the affine map

    q_i(s) = sum_j s_{i-j} d^{-j} * (d^p - d^{p-1}) / (d^p - 1),
    r_i    = q_i / q_{i+1}           (indices mod p)

is a bijection from the simplex onto the exponent set, and the coefficient
in the objective equals q_0.  The boundary r_i = d (often optimal) sits on
simplex faces, which the search reaches exactly (see ``_refine``).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, isfinite

import numpy as np

from .alphabet_graph import (
    AdjacencyModel,
    PeriodStructure,
    _recurrent,
    _sccs,
    is_irreducible,
    linear_spectral_radius,
    reduce_a0,
)
from .errors import ClassInconsistency, ModelValidationError, ValidationFailed
from .rate_function import (
    WeightedChainModel,
    _stationary_vector,
    lln_limit,
    reciprocal_on_support,
    stationary_class_vector,
)
from .transfer_op import (
    EIGEN_TOL,
    _eigen_rows,
    entropy_iterate,
    log_weights,
    principal_eigenpair,
    psi,
)

SIMPLEX_TOL = 1e-12
SCAN_MAX_POINTS = 51
SCAN_MAX_DENOM = 50
# the search stops once the Frank-Wolfe gap, an upper bound on f - f*, is below GAP_TOL
GAP_TOL = 1e-11
# gradient-difference step of the Hessian, and the line search's sufficient decrease
FD_STEP = 1e-4
ARMIJO = 1e-4
# least curvature per unit of gradient in a step, and the rounding a tie of blocks may carry
FLAT_CURVATURE = 1e-6
TIE_TOL = 1e-9


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
    q = _bijection_matrix(d, p) @ s
    r = q / np.roll(q, -1)
    return ExponentVector(r=r, q=q)


def _bijection_matrix(d: int, p: int) -> np.ndarray:
    """C with q = C s: C[i, k] = d^-((i - k) mod p) (d^p - d^(p-1)) / (d^p - 1)."""
    lag = (np.arange(p)[:, None] - np.arange(p)) % p
    return (d**p - d ** (p - 1)) / (d**p - 1.0) * float(d) ** -lag


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
    # lattice points scanned plus objective-and-gradient evaluations
    iterations: int
    # the Frank-Wolfe gap at the argmin, a bound on dim - (true minimum);
    # 0.0 where no search runs
    gap: float
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
    return float(values[0, 0])


def _objective(blocks, period: PeriodStructure, points, class_index: int, eigen_tol, starts):
    """Each block's objective at each simplex point ([B, K]) and eigenpairs ([K] per block).

    The cycle on cone j starts at exponent r_{p-j} (the step the covering
    recursion applies to class-j vectors) and the matching coefficient is the
    bijection component q_{p-j}; that pairing makes the value independent of
    j, to roundoff.  A point scores the largest value over the blocks
    (``.max(axis=0)``), each block's power iteration starting from its entry
    of ``starts`` (None: the class indicator, [n] or [K, n]: logs).
    """
    p = period.period
    j = class_index % p
    params = [simplex_to_ratios(s, blocks[0].arity, p) for s in points]
    r = np.array([param.r for param in params])
    coef = np.array([param.q[(p - j) % p] for param in params])
    pairs = [_eigen_rows(b, period, r, j, eigen_tol, start=x) for b, x in zip(blocks, starts)]
    # coef > 0, so a collapsed cone (log_rho = -inf) scores -inf
    log_rho = np.array([[pair.log_rho for pair in row] for row in pairs])
    return coef * log_rho, pairs


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
    sccs = _sccs(model.reach)
    if len(sccs) == 1:
        return [model]
    inside = [np.isin(np.arange(model.n_symbols), comp) for comp in sccs]
    masked = [model.adjacency * np.outer(m, m) for m in inside]
    return [AdjacencyModel(model.symbols, adj, model.arity) for adj in masked if adj.any()]


def _cycle_steps(log_adj: np.ndarray, r: np.ndarray, x: np.ndarray) -> list[tuple]:
    """The steps of the cone-0 cycle from ``x`` (logs, -inf off support).

    Step i sends x_i to x_{i+1} = r_i z_i, z_i = log(A^T exp(x_i)).  For each
    step this returns the children (the support of x_i), the parents (that of
    z_i), the row-stochastic softmax S_i [parents, children] of the step, and
    z_i on the parents.  The step's Jacobian is J_i = r_i S_i.
    """
    children = np.flatnonzero(np.isfinite(x))
    x = x[children]
    steps = []
    for r_i in r:
        nxt = psi(log_adj[children], float(r_i), x)
        parents = np.flatnonzero(np.isfinite(nxt))
        z = nxt[parents] / r_i
        softmax = np.exp(log_adj[np.ix_(children, parents)] + x[:, None] - z).T
        steps.append((children, parents, softmax, z))
        children, x = parents, nxt[parents]
    return steps


def _log_rho_gradient(log_adj: np.ndarray, r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """d log rho / d r_i of the cone-0 cycle at its eigenvector ``x`` (see ``_cycle_steps``).

    The cycle is additively homogeneous, so at the eigenvector its Jacobian
    J = J_{p-1} ... J_0 is row-stochastic and d log rho = pi^T dL for the
    left Perron vector pi of J: d log rho / d r_i = pi^T J_{p-1} ... J_{i+1} z_i.
    """
    steps = _cycle_steps(log_adj, r, x)
    jac = np.eye(len(steps[-1][1]))
    for r_i, (_, _, softmax, _) in zip(r, steps):
        jac = r_i * softmax @ jac
    adjoint = _stationary_vector(jac.T)
    grad = np.empty(len(r))
    for i in reversed(range(len(r))):
        _, _, softmax, z = steps[i]
        grad[i] = adjoint @ z
        adjoint = r[i] * softmax.T @ adjoint
    return grad


def _gradients(blocks, period: PeriodStructure, points: np.ndarray, starts, eigen_tol):
    """Each block's objective and its gradient in s at each point, from one eigen loop per block.

    Returns values [K, B], gradients [K, B, p], each point's noise (the
    widest eigenvalue bracket times the coefficient) and, per block, the
    eigenvectors [K, n].  The objective q_0 log rho(r) extends to the
    positive orthant with degree 1 (q is linear in s and r only reads its
    ratios), so the gradient satisfies g . s = f, and the chain rule runs
    through q = C s and r_i = q_i / q_{i+1}.
    """
    p, d = period.period, blocks[0].arity
    params = [simplex_to_ratios(s, d, p) for s in points]
    q = np.array([param.q for param in params])
    r = np.array([param.r for param in params])
    c_mat = _bijection_matrix(d, p)
    nxt = np.roll(np.arange(p), -1)
    values, pairs = _objective(blocks, period, points, 0, eigen_tol, starts)
    grads = np.zeros((len(points), len(blocks), p))
    noise = np.zeros(len(points))
    for b, (block, row) in enumerate(zip(blocks, pairs)):
        log_adj = log_weights(block.adjacency)
        for k, pair in enumerate(row):
            if pair.log_rho == -np.inf:
                continue
            g_r = q[k, 0] * _log_rho_gradient(log_adj, r[k], pair.eigvec) / q[k, nxt]
            g_q = g_r.copy()
            g_q[0] += pair.log_rho
            np.add.at(g_q, nxt, -g_r * r[k])
            grads[k, b] = c_mat.T @ g_q
            # the bracket's width, or rounding where the bracket closed tighter
            noise[k] = max(noise[k], q[k, 0] * pair.residual, 1e-15 * abs(values[b, k]))
    return values.T, grads, noise, [np.array([pair.eigvec for pair in row]) for row in pairs]


def _newton_step(hess: np.ndarray, values: np.ndarray, grads: np.ndarray, lam, free, pivot):
    """The step d (summing to 0, moving only ``free`` and ``pivot``) and its weights on the blocks.

    d minimizes max_b (f_b + g_b . d) + d^T H d / 2 over the live blocks, in
    the coordinates d_k (k in ``free``) with d_pivot = -sum d_k, where H is
    the Hessian of the blocks' combination by ``lam``.  The minimum is found
    exactly from the KKT system of every set A of blocks that can tie:
    H d + sum_A mu_b g_b = 0, f_b + g_b . d = z on A, sum mu = 1, with
    mu >= 0 and no other block above z.  Where H is near flat the ties, not
    H, fix the step.  With one live block this is the Newton step on the
    face.  The weights returned are the multipliers mu.
    """
    p, m = grads.shape[1], len(free)
    basis = np.zeros((p, m))
    basis[free, np.arange(m)] = 1.0
    basis[pivot] = -1.0
    live = np.flatnonzero(values > -np.inf)
    offset = values[live] - values.max()
    g_red = grads[live] @ basis
    reduced = basis.T @ np.einsum("b,bij->ij", lam, hess) @ basis
    eig, vec = np.linalg.eigh(0.5 * (reduced + reduced.T))
    # a convex objective has H >= 0; the floor keeps a difference-noise
    # eigenvalue from flipping the step, and sends a flat direction about
    # 1 / FLAT_CURVATURE simplex widths, so a face stops it
    h_red = (vec * np.maximum(eig, FLAT_CURVATURE * np.abs(g_red).max(initial=0.0))) @ vec.T
    best, best_key = None, None
    for k in range(1, min(len(live), m + 1) + 1):
        for tie in map(list, combinations(range(len(live)), k)):
            kkt = np.zeros((m + k + 1, m + k + 1))
            kkt[:m, :m] = h_red
            kkt[:m, m:-1] = g_red[tie].T
            kkt[m:-1, :m] = g_red[tie]
            kkt[m:-1, -1] = -1.0
            kkt[-1, m:-1] = 1.0
            rhs = np.concatenate([np.zeros(m), -offset[tie], [1.0]])
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
            d, mu, z = sol[:m], sol[m:-1], sol[-1]
            # the ties hold to rounding, which grows with the step
            rise = (offset + g_red @ d - z) / (1.0 + np.abs(g_red @ d).max())
            violation = max(-mu.min(), rise.max())
            key = (violation if violation > TIE_TOL else 0.0, z + 0.5 * d @ h_red @ d)
            if best_key is None or key < best_key:
                weights = np.zeros(len(values))
                weights[live[tie]] = np.clip(mu, 0.0, None) / np.clip(mu, 0.0, None).sum()
                best, best_key = (basis @ d, weights), key
    return best


def _refine(blocks, period: PeriodStructure, s: np.ndarray, warm, eigen_tol):
    """Newton steps on the simplex from ``s``, stopped by the Frank-Wolfe gap.

    The objective f = max_b f_b is convex on the simplex and degree-1
    homogeneous, so g_b . s = f_b and, for any weights lam on the blocks,
    f* >= min_i (sum_b lam_b g_b)_i: the gap f - min_i(...) bounds f - f*.
    Each step builds every block's Hessian from gradient differences along
    e_k (one batched eigen loop), for the coordinates that are positive or
    may enter: a move toward e_k lowers a block within the gap of the max.
    An entering coordinate the step would push negative leaves that set.
    ``_newton_step`` then minimizes the max of the blocks' quadratic models,
    so it follows a kink where blocks tie.  A step that would cross a face
    stops on it, and a backtracking line search keeps f decreasing.  The
    search stops when the gap is below GAP_TOL, or when no step can lower f
    by more than the eigenvalue brackets' noise; there one more step is
    taken only while it halves the gap without raising f past the noise.
    Every power iteration starts from the eigenvectors at the current point.
    Returns the minimum, its point, the number of points evaluated and the gap.
    """
    p = period.period
    evaluated = 1
    (values,), (grads,), (noise,), warm = _gradients(blocks, period, s[None], warm, eigen_tol)
    lam = (values == values.max()).astype(float)
    lam /= lam.sum()
    while True:
        f = values.max()
        gap = f - (lam @ grads).min()
        if gap <= GAP_TOL:
            break
        face = s > 0
        pivot = int(np.argmax(s))
        # a coordinate enters where a first-order move toward e_k lowers a
        # block that could be the max at the minimum (f_b >= f - gap)
        near = values >= f - gap
        enter = ~face & (grads[near] < values[near, None]).any(axis=0)
        cols = np.flatnonzero((face | enter) & (np.arange(p) != pivot))
        # g is degree-0 homogeneous: g(s + h e_k) is g at that point normalized
        shifted = (s + FD_STEP * np.eye(p)[cols]) / (1.0 + FD_STEP)
        _, fd_grads, _, _ = _gradients(blocks, period, shifted, warm, eigen_tol)
        evaluated += len(cols)
        hess = np.zeros((len(blocks), p, p))
        hess[:, :, cols] = np.moveaxis(fd_grads - grads, 0, -1) / FD_STEP
        # H s = 0 gives the pivot's column from the face's others
        others = face & (np.arange(p) != pivot)
        hess[:, :, pivot] = -(hess[:, :, others] @ s[others]) / s[pivot]
        while True:
            step, lam = _newton_step(hess, values, grads, lam, cols, pivot)
            stuck = enter[cols] & (step[cols] < 0)
            if not stuck.any():
                break
            cols = cols[~stuck]
        gap = min(gap, f - (lam @ grads).min())
        if gap <= GAP_TOL or not len(cols):
            break
        live = values > -np.inf
        shrink = step < 0
        t_face = (s[shrink] / -step[shrink]).min(initial=np.inf)
        t = first = min(1.0, t_face)
        while True:
            # the change the blocks' linear models predict at t (<= 0 on descent)
            model = (values - f + t * grads @ step)[live].max()
            if model > 0 and t * np.abs(step).max() > np.finfo(float).eps:
                t *= 0.5  # another block's rise outruns the step here: shorten it
                continue
            if -model <= noise and t < first:
                accept = False
                break
            x = s + t * step
            if t == t_face:  # land exactly on the face
                x[shrink & (s <= -t * step)] = 0.0
            x = np.clip(x, 0.0, None)
            x /= x.sum()
            (new_values,), (new_grads,), (new_noise,), new_warm = _gradients(
                blocks, period, x[None], warm, eigen_tol
            )
            evaluated += 1
            new_f = new_values.max()
            if -model <= noise:
                # below the noise: keep the step only for a gap it halves
                accept = new_f <= f + noise and new_f - (lam @ new_grads).min() < 0.5 * gap
                break
            if new_f <= f + ARMIJO * model:
                accept = True
                break
            t *= 0.5
        if not accept:
            break
        s, values, grads, noise, warm = x, new_values, new_grads, new_noise, new_warm
    return float(values.max()), s, evaluated, float(max(gap, 0.0))


def _search(model: AdjacencyModel, period: PeriodStructure, eigen_tol):
    """Minimize the objective over the simplex: lattice scan, then ``_refine``.

    The scan covers the simplex lattice of ``_scan_denominator(p)``, one
    batched eigen loop per block, and ``_refine`` starts at its best point
    with that point's eigenvectors.  A point scores the largest objective
    over the model's cyclic SCC blocks (one block when irreducible).  Power
    iteration on a reducible closure whose blocks grow at the same rate
    converges like 1/n (a Jordan block), while each block alone converges
    geometrically.  Returns the minimum, its simplex point, the iteration
    count (lattice points plus objective-and-gradient evaluations), the
    Frank-Wolfe gap there, and the lattice points with their objective values.
    """
    p = period.period
    points = np.array(list(_simplex_grid(p, _scan_denominator(p))))
    blocks = _cyclic_blocks(model)
    values, pairs = _objective(blocks, period, points, 0, eigen_tol, [None] * len(blocks))
    values = values.max(axis=0)
    best = int(np.argmin(values))
    warm = [row[best].eigvec for row in pairs]
    dim, s, evaluated, gap = _refine(blocks, period, points[best], warm, eigen_tol)
    return dim, s, len(points) + evaluated, gap, (points, values)


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
    return value, np.array([1.0]), 0, 0.0, (np.array([[1.0]]), np.array([value]))


def _report(model: AdjacencyModel, bound, class_values, method: str, a0: int):
    """The report of a ``_bound`` result on ``model``, with the entropy of ``model``."""
    dim, s, evals, gap, (grid_s, grid_values) = bound
    return DimensionReport(
        dim=float(dim),
        argmin_r=simplex_to_ratios(s, model.arity, len(s)).r,
        argmin_s=np.asarray(s, dtype=float),
        class_values=class_values,
        h_top=entropy_iterate(model).h_top,
        log_rho_linear=linear_spectral_radius(model.adjacency.T.astype(float)),
        method=method,
        iterations=evals,
        gap=float(gap),
        a0=int(a0),
        period=len(s),
        grid_s=grid_s,
        grid_values=grid_values,
    )


def check_tolerance(name: str, value: float) -> None:
    """Reject a tolerance that is negative or not a finite number."""
    if not (isfinite(value) and value >= 0):
        raise ModelValidationError(f"{name} must be finite and >= 0, got {value!r}")


def hausdorff_dimension(model: AdjacencyModel, eigen_tol: float = EIGEN_TOL) -> DimensionReport:
    """The dimension of an irreducible model, and an upper bound for any other.

    After the (A0) reduction, each recurrent symbol a spans the submodel on
    its descendant closure, which satisfies the generation assumption with a
    as the base symbol; ``_bound`` there bounds the closure's dimension, and
    the largest over the closures bounds the model's.  An irreducible model
    is its own one closure, where the bound is exact: its report reads
    ``exact_irreducible`` and carries the objective on every cone at the
    argmin.  Otherwise it reads ``upper_bound_general``.  A closure whose
    class labeling is inconsistent (possible for reducible models) takes the
    linear spectral radius, always a valid upper bound.  The report's grid
    scan is that of the first closure that sets the bound.
    """
    check_tolerance("eigen tolerance", eigen_tol)
    model = reduce_a0(model)
    reach = model.reach
    bases: dict[bytes, int] = {}  # each closure (a row of reach) once, with its smallest base
    for a in np.flatnonzero(_recurrent(model.adjacency, reach)):
        bases.setdefault(reach[a].tobytes(), int(a))
    bounds = []
    for a in bases.values():
        keep = np.flatnonzero(reach[a])
        sub = model if len(keep) == model.n_symbols else model.submodel(keep)
        # a generator of the closure shares a's row, so it lies in a's SCC and
        # is a base: the submodel's smallest generator, its a0, is a
        try:
            period = sub.structure
        except ClassInconsistency:
            period = None
        bounds.append((_bound(sub, period, eigen_tol), a))
    (dim, s_star, _, gap, scan), a = max(bounds, key=lambda item: item[0][0])
    bound = (dim, s_star, sum(b[2] for b, _ in bounds), gap, scan)
    if not reach.all():
        return _report(model, bound, (float(dim),), "upper_bound_general", a)
    # the one closure is the model, and ``period`` its labeling; the linear
    # bound (p = 1) is its own one value
    class_values = (dim,) if period.period == 1 else tuple(
        dim_objective(model, period, s_star, j, eigen_tol) for j in range(period.period)
    )
    return _report(model, bound, class_values, "exact_irreducible", a)


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

    A parent b sends mass to child a in proportion to A[a, b] exp(x[a]), with
    x the cone-0 cycle's iterate on b's children, started at the eigenvector
    of the minimizing exponents: column b of M* is b's row of the softmax of
    that cycle step (``_cycle_steps``), the factor that the derivative of
    log rho reads.  (The support restriction to A and the per-parent
    normalization are a corrected reading of the construction; correctness
    is certified numerically instead: the smallest likelihood-decay phase of
    the built chain must reproduce the dimension.)
    """
    check_tolerance("certificate tolerance", tol)
    check_tolerance("eigen tolerance", eigen_tol)
    if not is_irreducible(model):
        raise ModelValidationError("optimal measure needs an irreducible model")
    period = model.structure
    pair = principal_eigenpair(model, period, report.argmin_r, class_index=0, tol=eigen_tol)
    m_star = np.zeros((model.n_symbols,) * 2)
    for children, parents, softmax, _ in _cycle_steps(
        log_weights(model.adjacency), report.argmin_r, pair.eigvec
    ):
        m_star[np.ix_(children, parents)] = softmax.T

    chain = WeightedChainModel(model, m_star, reciprocal_on_support(m_star))
    phases = tuple(lln_limit(chain, j) for j in range(period.period))
    validation = min(phases)
    if abs(validation - report.dim) > tol:
        raise ValidationFailed(
            f"optimal-measure certificate missed: min phase {validation} vs dim {report.dim}",
            expected=report.dim,
            got=validation,
        )
    pi_star = stationary_class_vector(chain)
    return OptimalMeasure(
        M=m_star, pi=pi_star, phases=phases, validation_value=validation, dim=report.dim
    )
