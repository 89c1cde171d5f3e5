"""Sanov/Cramer machinery for tree sample means.

The pressure of the tilted matrix E = M * W^mu drives everything.  Writing
x_n for the log of the E-weighted partition function over depth-n trees
(one entry per root symbol), the recursion is

    x_0 = 0,    x_{n+1} = d * log(E^T exp(x_n)),

i.e. exactly ``transfer_op.psi`` with weight E and exponent d, which also
carries the forward tangent in mu (direction log W).  The pressure
is lim (d-1)/d^(n+1) * max of x_n over the class that roots a depth-n tree
whose bottom level lies in class j; the Legendre-type dual of the pressure in
mu is the rate function for conditional sample means observed at depths
congruent to j mod p.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import inf, isfinite, log, nan
from typing import Callable

import numpy as np

from .alphabet_graph import AdjacencyModel
from .errors import ModelParseError, ModelValidationError, Overflow
from .transfer_op import PRESSURE_TOL, _certified_depth, log_weights, psi

STOCHASTIC_TOL = 1e-12
MAX_DOUBLINGS = 40
BOUNDARY_SLACK = 1e-7
# the dual is read off the final root bracket: exact where the depth-n readout
# has a kink, elsewhere off by about P''(mu) ROOT_XTOL^2
ROOT_XTOL = 1e-8
# rate_curve's grid runs past each domain end by this share of its width, at least the floor
GRID_MARGIN = 0.05
GRID_MIN_MARGIN = 0.01


@dataclass(frozen=True)
class WeightedChainModel:
    """Transition matrix M and observable weights W sharing the adjacency support.

    Both matrices are indexed (child row, parent column); each column of M is
    a probability vector over the children of that parent symbol.
    """

    base: AdjacencyModel
    M: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.M, dtype=float)
        w = np.asarray(self.W, dtype=float)
        adj = self.base.adjacency
        if m.shape != adj.shape or w.shape != adj.shape:
            raise ModelValidationError(
                f"M and W must match the adjacency shape {adj.shape}"
            )
        for name, mat in (("M", m), ("A", w)):
            bad = np.argwhere(((mat > 0) != (adj == 1)) | (mat < 0))
            if bad.size:
                r, c = bad[0]
                raise ModelValidationError(
                    f"{name} must be positive exactly on the adjacency support; "
                    f"offending entry at ({r}, {c})",
                    row=int(r), col=int(c),
                )
        col_sums = m.sum(axis=0)
        off = np.argwhere(np.abs(col_sums - 1.0) > STOCHASTIC_TOL)
        if off.size:
            c = int(off[0][0])
            raise ModelValidationError(
                f"column {c} of M sums to {col_sums[c]!r}, expected 1", col=c
            )
        m.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "M", m)
        object.__setattr__(self, "W", w)

    @property
    def arity(self) -> int:
        return self.base.arity

    def log_m(self) -> np.ndarray:
        return log_weights(self.M)

    @cached_property
    def log_w(self) -> np.ndarray:
        """log W on the support, 0 off it: the observable every sample mean sums."""
        out = np.zeros_like(self.W)
        sup = self.base.adjacency == 1
        out[sup] = np.log(self.W[sup])
        out.setflags(write=False)
        return out

    @cached_property
    def log_w_max(self) -> float:
        """The largest |log W| over the support (0 with no support)."""
        return float(np.abs(self.log_w).max(initial=0.0))


def chain_from_matrices(m, w=None, d: int = 2, symbols=None) -> WeightedChainModel:
    """Build a weighted chain from a column-stochastic M (W defaults to M)."""
    m = np.asarray(m, dtype=float)
    if symbols is None:
        symbols = tuple(str(i) for i in range(m.shape[0]))
    base = AdjacencyModel(tuple(symbols), (m > 0).astype(int), d)
    w = m if w is None else np.asarray(w, dtype=float)
    return WeightedChainModel(base, m, w)


def parse_weighted(data: dict, model: AdjacencyModel) -> tuple[WeightedChainModel, np.ndarray | None]:
    """Extract M (required), A (defaults to M), and the optional initial pi."""
    if "M" not in data:
        raise ModelParseError("this command needs a transition matrix 'M' in the model file")
    m = np.asarray(data["M"], dtype=float)
    w = np.asarray(data["A"], dtype=float) if "A" in data else m
    pi = np.asarray(data["pi"], dtype=float) if "pi" in data else None
    if pi is not None:
        if pi.shape != (model.n_symbols,):
            raise ModelValidationError(f"pi must have {model.n_symbols} entries")
        if abs(pi.sum() - 1.0) > 1e-9 or (pi < 0).any():
            raise ModelValidationError("pi must be a probability vector")
    return WeightedChainModel(model, m, w), pi


def reciprocal_on_support(m: np.ndarray) -> np.ndarray:
    """Entrywise 1/m on the support, 0 elsewhere (the likelihood-decay observable)."""
    m = np.asarray(m, dtype=float)
    out = np.zeros_like(m)
    sup = m > 0
    out[sup] = 1.0 / m[sup]
    return out


def tilted_matrix(chain: WeightedChainModel, mu) -> np.ndarray:
    """log of the tilted matrix E = M * W^mu on the support, -inf off it.

    A batch ``mu[K]`` of tilts gives ``log E[K, n, n]``.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.ndim > 1:
        raise ModelValidationError(f"mu must be a scalar or a 1-D batch, got shape {mu.shape}")
    sup = chain.base.adjacency == 1
    return np.where(sup, chain.log_m() + mu[..., None, None] * chain.log_w, -np.inf)


def _recursion_constant(chain: WeightedChainModel) -> float:
    sup = chain.base.adjacency == 1
    c_m = np.abs(np.log(chain.M[sup])).max(initial=0.0)
    return max(chain.log_w_max, c_m, log(chain.base.n_symbols))


def _batch_last(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` [K, ...] with the same shape, its first axis stored last in memory."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0)


def _tilted_recursion(chain: WeightedChainModel, mu, n, mask):
    """max of x_n over the roots in ``mask``, and its derivative along log W.

        x_{k+1}[b]  = d lse_a(log E[a,b] + x_k[a])
        dx_{k+1}[b] = d sum_a softmax_a(log E[:,b] + x_k)[a] (log W[a,b] + dx_k[a])

    Each step is one ``psi(log E, d, x, log W, dx)`` call: the tangent is the
    forward-mode derivative in mu, so the slope costs no extra pass.  One call
    runs a batch of K tilts ``mu[K]``, each with its own depth ``n[K]`` and
    root mask ``mask[K, n_symbols]`` (a shared depth or mask broadcasts): x and
    dx are [K, n_symbols] arrays, the batch runs to its largest depth and each
    row is read out at its own.  Every array keeps its [K, ...] shape but
    stores the batch axis last: numpy's ufuncs follow their inputs' memory
    order, so each add, exp and reduction in ``psi`` runs over contiguous
    K-long rows instead of n-long ones, with the same arithmetic per entry.
    """
    d = chain.arity
    size = chain.base.n_symbols
    log_e = _batch_last(tilted_matrix(chain, mu).reshape((-1, size, size)))
    rows = log_e.shape[0]
    log_w = _batch_last(np.broadcast_to(chain.log_w, log_e.shape))
    depth = np.broadcast_to(n, rows)
    mask = np.broadcast_to(mask, (rows, size))
    # a depth-0 row reads x_0 = 0
    x, dx, x_n, dx_n = np.zeros((4, size, rows)).transpose(0, 2, 1)
    ends = {k: np.flatnonzero(depth == k) for k in set(depth.tolist())}
    for k in range(1, max(ends, default=0) + 1):
        x, dx = psi(log_e, d, x, log_w, dx)
        if k in ends:
            done = ends[k]
            x_n[done], dx_n[done] = x[done], dx[done]
    root = np.where(mask, x_n, -np.inf).argmax(axis=1)
    return x_n[np.arange(rows), root], dx_n[np.arange(rows), root]


def _extreme_sums(chain: WeightedChainModel, n: int, mask: np.ndarray) -> tuple[float, float]:
    """Least and largest log-W sums over depth-n trees with root in ``mask``.

    These are the mu -> -inf and mu -> +inf limits of x_n(mu) / mu: the
    min-plus and max-plus versions of the tilted recursion over the support,
    y_{k+1}[b] = d max_a (+-log W[a,b] + y_k[a]).
    """
    d = chain.arity
    sup = chain.base.adjacency == 1
    ends = []
    for sign in (-1.0, 1.0):
        signed = np.where(sup, sign * chain.log_w, -np.inf)
        y = np.zeros(chain.base.n_symbols)
        for _ in range(n):
            y = d * (signed + y[:, None]).max(axis=0)
        ends.append(sign * float(y[mask].max()))
    return ends[0], ends[1]


def _chandrupatla(evaluate, target: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Roots of V'(mu) = target, one per row, by Chandrupatla's bracketed method.

    ``lo`` and ``hi`` are [3, K] stacks (mu, V, V') at the bracket ends, with
    V' below the target at ``lo`` and above it at ``hi``; ``evaluate`` maps
    an array of mu to its stack.  Each step is one call over the rows still
    open: inverse quadratic interpolation through the last three points
    where Chandrupatla's test admits it, bisection elsewhere, the new point
    kept at least half the tolerance from the ends.  A row stops once its
    bracket is narrower than ``ROOT_XTOL`` (read at call time) or an end
    hits the root exactly.  Returns the root (the end whose V' is nearer the
    target) and the final bracket as two [3, K] stacks, left end first.
    Reference: Chandrupatla, Adv. Eng. Software 28 (1997).
    """
    root = np.empty(target.size)
    left, right = lo.copy(), hi.copy()
    rows = np.arange(target.size)
    e1, e2, e3, t = lo, hi, None, 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            f1, f2 = e1[2] - target[rows], e2[2] - target[rows]
            width = np.abs(e2[0] - e1[0])
            stop = (np.minimum(abs(f1), abs(f2)) <= np.finfo(float).tiny) | (width < ROOT_XTOL)
            stop |= np.isnan(f1) & np.isnan(f2)
            if stop.any():
                done = rows[stop]
                root[done] = np.where(abs(f1) < abs(f2), e1[0], e2[0])[stop]
                first = (e1[0] < e2[0])[stop]
                left[:, done] = np.where(first, e1[:, stop], e2[:, stop])
                right[:, done] = np.where(first, e2[:, stop], e1[:, stop])
                keep = ~stop
                if not keep.any():
                    return root, left, right
                rows, e1, e2, f1, f2, width = (
                    rows[keep], e1[:, keep], e2[:, keep], f1[keep], f2[keep], width[keep]
                )
                if e3 is not None:
                    e3 = e3[:, keep]
            if e3 is not None:
                f3 = e3[2] - target[rows]
                xi = (e1[0] - e2[0]) / (e3[0] - e2[0])
                phi = (f1 - f2) / (f3 - f2)
                a = (e3[0] - e1[0]) / (e2[0] - e1[0])
                quad = (1 - np.sqrt(1 - xi) < phi) & (phi < np.sqrt(xi))
                t = np.where(quad, f1 / (f1 - f2) * f3 / (f3 - f2)
                             - a * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
                edge = 0.5 * ROOT_XTOL / width
                t = np.clip(t, edge, 1 - edge)
            mu = e1[0] + t * (e2[0] - e1[0])
            new = evaluate(mu)
            same = np.sign(new[2] - target[rows]) == np.sign(f1)
            e1, e2, e3 = new, np.where(same, e2, e1), np.where(same, e1, e2)


def _legendre(
    alpha, value_and_slope: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    lo: float, hi: float,
) -> tuple[np.ndarray, np.ndarray]:
    """sup_mu (mu alpha - V(mu)) over a batch of alphas, V convex with slopes spanning [lo, hi].

    ``value_and_slope`` maps an array of mu to the arrays V(mu) and V'(mu),
    row by row; each call sees every distinct mu once.  Returns the arrays
    (value, maximizing mu): (+inf, nan) outside the domain widened by
    BOUNDARY_SLACK.  Inside it, the sup sits at the root of V'(mu) = alpha.
    Each root is bracketed by doubling from +-1 up to 2^MAX_DOUBLINGS, one
    call per round for the rows still expanding; then ``_chandrupatla``
    solves every bracket at once.  At an edge of the domain the root lies at
    infinity, and the cap stands in for it.  Every point is evaluated once:
    the brackets carry (mu, V, V') at their ends.
    """
    def evaluate(mu: np.ndarray) -> np.ndarray:
        # rows that share a mu (every bracket starts at +-1 and doubles) share one row
        distinct, inverse = np.unique(mu, return_inverse=True)
        value, slope = value_and_slope(distinct)
        return np.vstack([mu, value[inverse], slope[inverse]])

    alpha = np.asarray(alpha, dtype=float)
    value = np.full(alpha.shape, inf)
    argmax = np.full(alpha.shape, nan)
    inside = (lo - BOUNDARY_SLACK <= alpha) & (alpha <= hi + BOUNDARY_SLACK)
    if not inside.any():
        return value, argmax
    target = alpha[inside]
    cap = 2.0**MAX_DOUBLINGS
    # [3, K] stacks (mu, V, V') at the bracket ends
    a, b = np.split(evaluate(np.concatenate([-np.ones(target.size), np.ones(target.size)])), 2, axis=1)
    while True:
        left = (a[2] > target) & (a[0] > -cap)
        right = (b[2] < target) & (b[0] < cap) & ~left
        if not (left.any() or right.any()):
            break
        b[:, left] = a[:, left]
        a[:, right] = b[:, right]
        ends = evaluate(np.concatenate([2.0 * b[0, left], 2.0 * a[0, right]]))
        split = np.count_nonzero(left)
        a[:, left], b[:, right] = ends[:, :split], ends[:, split:]
    # a root at the bracket's end, or beyond the cap
    xl = np.where(a[2] >= target, a, b)
    xr, mu = xl.copy(), xl[0].copy()
    solve = (a[2] < target) & (b[2] > target)
    if solve.any():
        mu[solve], xl[:, solve], xr[:, solve] = _chandrupatla(
            evaluate, target[solve], a[:, solve], b[:, solve]
        )
    # the value is mu alpha minus the larger of the two tangent lines at the
    # final bracket's ends, read where they cross; this interpolates the dual
    # between the end slopes g, where it is g mu - V(mu).  It is exact at a
    # kink of V and second order in the bracket width elsewhere; a row with
    # no bracket (xl = xr) reads its point
    (xl, vl, gl), (xr, vr, gr) = xl, xr
    up, down = target - gl, gr - target
    with np.errstate(invalid="ignore"):
        crossing = (down * (gl * xl - vl) + up * (gr * xr - vr)) / (up + down)
    value[inside] = np.where(up + down > 0, crossing, xl * target - vl)
    argmax[inside] = mu
    return value, argmax


@dataclass(frozen=True)
class PressureResult:
    mu: float
    value: float
    iterations: int
    error_bound: float
    # derivative of the depth-n readout along log W (the pressure's slope in mu)
    slope: float


def _check_tol(tol: float) -> None:
    if not (isfinite(tol) and tol > 0):
        raise ModelValidationError(f"pressure tolerance must be finite and > 0, got {tol!r}")


def _check_finite(name: str, value: float) -> None:
    if not isfinite(value):
        raise ModelValidationError(f"{name} must be finite, got {value!r}")


def _pressure_rows(chain: WeightedChainModel, mu: np.ndarray, class_index: int, tol: float):
    """``pressure`` over a batch of tilts mu[K] in one recursion.

    Returns the arrays (value, slope, depth, error bound); each row keeps its
    own certified depth and class mask.  Raises ``Overflow`` when a depth or
    a readout leaves the float range.
    """
    d = chain.arity
    period = chain.base.structure
    scale = _recursion_constant(chain) * (np.abs(mu) + 2.0)
    try:
        depths = [_certified_depth(s, d, tol) for s in scale.tolist()]
        # Python's float powers: numpy's can differ from them in the last bit
        factors = {k: ((d - 1.0) / d ** (k + 1.0), d ** -k) for k in set(depths)}
    except OverflowError:
        raise Overflow(
            f"the certified depth overflows at |mu| = {float(np.abs(mu).max())!r}, tol = {tol!r}"
        ) from None
    n = np.array(depths, dtype=int)
    masks = np.array([period.class_mask(j) for j in range(period.period)])
    # an overflow inside the recursion shows in its readout, refused below
    with np.errstate(over="ignore"):
        top, slope = _tilted_recursion(chain, mu, n, masks[(class_index - n) % period.period])
    weight = np.array([factors[k][0] for k in depths])
    value, slope = weight * top, weight * slope
    if not (np.isfinite(value).all() and np.isfinite(slope).all()):
        raise Overflow(f"the pressure readout is not finite at |mu| = {float(np.abs(mu).max())!r}")
    return value, slope, n, scale * np.array([factors[k][1] for k in depths])


def pressure(
    chain: WeightedChainModel,
    mu: float,
    class_index: int = 0,
    tol: float = PRESSURE_TOL,
) -> PressureResult:
    """Limit of the lambda-recursion for the tilted matrix, with certified error.

    At step n the recursion reads out max of lambda^(n) = (d-1)/d^(n+1) x_n
    over the class of root symbols compatible with bottom class j at depth n,
    i.e. class (j - n) mod p.  n is the first depth where the a-priori bound
    C d^(-n) (|mu| + 2) drops below ``tol``.  The slope is read at the same
    root from the recursion's tangent.  A readout that overflows raises
    ``Overflow``.
    """
    _check_tol(tol)
    _check_finite("mu", mu)
    value, slope, depth, bound = _pressure_rows(
        chain, np.asarray(mu, dtype=float)[None], class_index, tol
    )
    return PressureResult(mu, float(value[0]), int(depth[0]), float(bound[0]), float(slope[0]))


def _dual_rows(chain: WeightedChainModel, class_index: int, alphas: np.ndarray,
               endpoints: tuple[float, float], tol: float):
    """Rates and maximizing mu over an alpha batch, plus the kernel passes and largest depth."""
    passes, max_depth = 0, 0

    def value_and_slope(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nonlocal passes, max_depth
        value, slope, depth, _ = _pressure_rows(chain, mu, class_index, tol)
        passes += 1
        max_depth = max(max_depth, int(depth.max(initial=0)))
        return value, slope

    values, argmax = _legendre(alphas, value_and_slope, *endpoints)
    return values, argmax, passes, max_depth


def rate(
    chain: WeightedChainModel,
    class_index: int,
    alpha: float,
    pressure_tol: float = PRESSURE_TOL,
) -> float:
    """Legendre-type dual sup_mu (mu alpha - pressure(mu)); +inf outside the domain."""
    _check_tol(pressure_tol)
    _check_finite("alpha", alpha)
    endpoints = domain_endpoints(chain, class_index)
    values = _dual_rows(
        chain, class_index, np.array([alpha], dtype=float), endpoints, pressure_tol
    )[0]
    return float(values[0])


def domain_endpoints(chain: WeightedChainModel, class_index: int) -> tuple[float, float]:
    """Finiteness interval (alpha_1, alpha_2) of the rate: the pressure's asymptotic slopes.

    alpha_2 = lim P(mu)/mu as mu -> +inf is the max-plus recursion read out
    with the pressure's class mask and (d-1)/d^(n+1) weight; alpha_1 is its
    min-plus twin.  n is the first depth where max|log W| d^(-n) drops below
    PRESSURE_TOL, the a-priori bound on the readout's error.
    """
    d = chain.arity
    n = _certified_depth(chain.log_w_max, d, PRESSURE_TOL)
    mask = chain.base.structure.class_mask(class_index - n)
    lo, hi = _extreme_sums(chain, n, mask)
    weight = (d - 1.0) / d ** (n + 1.0)
    return weight * lo, weight * hi


def _stationary_vector(matrix: np.ndarray) -> np.ndarray:
    """y with matrix @ y = y and sum(y) = 1, for a matrix whose eigenvalue 1 is simple.

    (matrix - I) y = 0 stacked with sum(y) = 1 is one least-squares system
    with an exact solution.
    """
    k = len(matrix)
    system = np.vstack([matrix - np.eye(k), np.ones((1, k))])
    return np.linalg.lstsq(system, np.eye(k + 1)[k], rcond=None)[0]


def stationary_class_vector(chain: WeightedChainModel) -> np.ndarray:
    """Probability eigenvector of M^p supported on class A_0, by a direct solve.

    M^p maps class A_0 into itself, so the solve runs on that block.
    """
    period = chain.base.structure
    mask = period.class_mask(0)
    block = np.linalg.matrix_power(chain.M, period.period)[np.ix_(mask, mask)]
    y = np.zeros(chain.base.n_symbols)
    y[mask] = _stationary_vector(block)
    return y


def lln_limit(chain: WeightedChainModel, class_index: int = 0) -> float:
    """Almost-sure limit of sample means over depths congruent to j mod p.

    Level phases aggregate with weights d^(-i) / sum_l d^(-l); the edge layer
    at distance i from the bottom of a depth-(pn+j) tree has its parents
    distributed as pi^{(i+1-j)}, where pi^{(k)} = M^{p-k} pi^{(0)} and pi^{(0)}
    is the M^p-eigenvector on class A_0.  (The parent index is pinned by the
    closed-form period-2 model: phase j=0 must average an edge layer whose
    parents sit in class A_1.)
    """
    p = chain.base.structure.period
    d = chain.arity
    pi0 = stationary_class_vector(chain)
    pis = [pi0]
    for k in range(1, p):
        pis.append(np.linalg.matrix_power(chain.M, p - k) @ pi0)
    m_logw = chain.M * chain.log_w
    layer_value = [float(m_logw.sum(axis=0) @ pis[k]) for k in range(p)]
    weights = np.array([float(d) ** (-i) for i in range(p)])
    weights /= weights.sum()
    return float(
        sum(weights[i] * layer_value[(i + 1 - class_index) % p] for i in range(p))
    )


def lln_beta_bounds(chain: WeightedChainModel, pi: np.ndarray) -> tuple[float, float]:
    """liminf/limsup of the unconditional expected sample mean for initial law pi."""
    period = chain.base.structure
    p = period.period
    alphas = [lln_limit(chain, j) for j in range(p)]
    masses = [float(sum(pi[a] for a in period.classes[j])) for j in range(p)]
    totals = [
        sum(masses[j] * alphas[(i + j) % p] for j in range(p)) for i in range(p)
    ]
    return min(totals), max(totals)


@dataclass(frozen=True)
class RateCurve:
    """Rate-function values over an alpha grid, CSV-ready.

    ``recursion_passes`` counts the batched tilted recursions that solved the
    whole grid, and ``max_depth`` is the deepest of their rows.
    """

    alphas: np.ndarray
    values: np.ndarray
    argmax_mu: np.ndarray
    alpha1: float
    alpha2: float
    alpha_star: float
    class_index: int
    recursion_passes: int
    max_depth: int

    def rows(self):
        for a, v, m in zip(self.alphas, self.values, self.argmax_mu):
            yield float(a), float(v), float(m), bool(np.isfinite(v))

    def to_csv(self, fh) -> None:
        fh.write("alpha,rate,argmax_mu,finite\n")
        for a, v, m, finite in self.rows():
            v_txt = "inf" if not finite else repr(v)
            m_txt = "" if not finite else repr(m)
            fh.write(f"{a!r},{v_txt},{m_txt},{str(finite).lower()}\n")

    def summary(self) -> dict:
        return {
            "class": self.class_index,
            "alpha1": self.alpha1,
            "alpha2": self.alpha2,
            "alpha_star": self.alpha_star,
            "n_points": int(self.alphas.size),
            "finite_points": int(np.isfinite(self.values).sum()),
            "recursion_passes": self.recursion_passes,
            "max_depth": self.max_depth,
        }


def rate_curve(
    chain: WeightedChainModel,
    class_index: int = 0,
    n_points: int = 200,
    pressure_tol: float = PRESSURE_TOL,
) -> RateCurve:
    """Evaluate the rate over a uniform grid clipped around its finite domain.

    Every grid point is solved in the same batched dual: one tilted recursion
    per bracket round and per root-solver step, over all points at once.
    """
    if n_points < 0:
        raise ModelValidationError(f"need n_points >= 0, got {n_points}")
    _check_tol(pressure_tol)
    p = chain.base.structure.period
    if not 0 <= class_index < p:
        raise ModelValidationError(f"class index must lie in [0, {p}), got {class_index}")
    a1, a2 = domain_endpoints(chain, class_index)
    margin = max(GRID_MARGIN * (a2 - a1), GRID_MIN_MARGIN)
    alphas = np.linspace(a1 - margin, a2 + margin, n_points)
    values, argmax, passes, max_depth = _dual_rows(
        chain, class_index, alphas, (a1, a2), pressure_tol
    )
    alpha_star = lln_limit(chain, class_index)
    return RateCurve(
        alphas=alphas, values=values, argmax_mu=argmax,
        alpha1=a1, alpha2=a2, alpha_star=alpha_star, class_index=class_index,
        recursion_passes=passes, max_depth=max_depth,
    )
