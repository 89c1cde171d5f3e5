"""The nonlinear transfer operator in log domain.

The single-step map sends a nonnegative vector x to (A^T x)^s, entrywise; a
full cycle composes p such steps with exponents r_0..r_{p-1}.  Raw values
grow doubly exponentially (block counts obey c_{n+1} = (A^T c_n)^d), so every
computation here runs on logarithms with -inf encoding exact zeros.

Rotation: one transfer step moves support from class k to class k-1, so the
step the covering recursion applies to class-j vectors carries exponent
r_{p-j}.  The cycle used on cone j therefore starts at index (p - j) mod p;
rotation 0 is the plain composition, which is also the cone-0 case.  The
companion coefficient in the dimension objective rotates the same way, which
makes the per-cone objective values agree (see ``dimension``).

``psi`` is the one log-sum-exp step of the package.  It takes a batch (a
leading axis on the matrix, the vector, or both, and one exponent per row if
wanted) and, on request, carries a forward tangent; the rate function's
tilted recursion runs on it too.  Its core ``_lse`` also hands out the
step's softmax weights, from which ``_cycle_factors`` builds the cycle's
Jacobian.  The eigen solve is one loop over a batch of exponent vectors
(``_eigen_rows``): Newton steps on L(x) - x - lam 1 = 0 with that Jacobian,
each kept only where it narrows the Collatz-Wielandt bracket, and shifted
power steps otherwise; ``principal_eigenpair`` is its single-row call.
Eigenvectors are plain log arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import floor, log

import numpy as np

from .alphabet_graph import AdjacencyModel, PeriodStructure, _recurrent
from .errors import BadExponent, EmptyModel, NoConvergence

EIGEN_TOL = 1e-11
EIGEN_MAX_ITER = 10**4
PRODUCT_TOL = 1e-12
# the a-priori error every certified-depth readout of the recursion stays below
PRESSURE_TOL = 1e-10


def log_weights(w) -> np.ndarray:
    """Entrywise log of a nonnegative matrix, -inf on zeros."""
    w = np.asarray(w, dtype=float)
    if (w < 0).any():
        raise ValueError("weight matrices must be nonnegative")
    with np.errstate(divide="ignore"):
        return np.log(w)


def logsumexp(x: np.ndarray) -> float:
    m = np.max(x, initial=-np.inf)
    if not np.isfinite(m):
        return -np.inf
    return float(m + np.log(np.exp(x - m).sum()))


def psi(log_w: np.ndarray, s, log_x: np.ndarray, dlog_w=None, dx=None):
    """One transfer step: component b of the result is s * log sum_a w[a,b] x[a].

    ``log_w`` is [..., m, n] and ``log_x`` is [..., m]; leading axes broadcast,
    so one call steps a whole batch.  ``s`` is a positive scalar, or one
    exponent per row as an array [..., 1] whose positivity the caller has
    checked (the eigen loop validates its exponents once).  Accepts a
    weighted matrix, which generalizes the 0/1 adjacency case; the
    rate-function recursion relies on that.  Given a tangent direction
    ``dlog_w`` (of the matrix) and ``dx`` (of the vector), also returns the
    step's forward derivative

        dx_next[b] = s * sum_a softmax_a(log_w[:, b] + x)[a] (dlog_w[a, b] + dx[a]).

    A column with no support maps to -inf, with a nan tangent.
    """
    if not isinstance(s, np.ndarray) and s <= 0:
        raise BadExponent(f"exponent must be positive, got {s}")
    with np.errstate(divide="ignore", invalid="ignore"):
        z, weight, total = _lse(log_w, log_x)
        x = s * z
        if dlog_w is None:
            return x
        # softmax from its own sum, not exp(z - lse): at large weights the
        # rounding of the lse is no longer small against 1 and would compound
        return x, s * (weight / total * (dlog_w + dx[..., :, None])).sum(axis=-2)


def _lse(log_w: np.ndarray, log_x) -> tuple:
    """``psi``'s log sum z[b] = log sum_a w[a,b] x[a] at s = 1, with its softmax parts.

    Also returns the weights w[a,b] x[a] / max_a(w[a,b] x[a]) [..., m, n] and
    their column sums [..., 1, n]; a column with no support has total 0 and
    z = -inf, so callers run it under ``np.errstate(divide="ignore")``.
    """
    x = np.asarray(log_x, dtype=float)
    z = log_w + x[..., :, None]
    peak = z.max(axis=-2, keepdims=True, initial=-np.inf)
    peak = np.where(peak > -np.inf, peak, 0.0)
    z -= peak
    weight = np.exp(z, out=z)
    total = weight.sum(axis=-2, keepdims=True)
    return (peak + np.log(total))[..., 0, :], weight, total


def _check_exponents(r: np.ndarray, d: int) -> np.ndarray:
    """Validate exponent vectors along the last axis of ``r``."""
    r = np.asarray(r, dtype=float)
    if (r <= 0).any() or (r > d + 1e-12).any():
        raise BadExponent(f"exponents must lie in (0, {d}], got {r}")
    prod = np.prod(r, axis=-1)
    if (abs(prod - 1.0) > PRODUCT_TOL * np.maximum(1.0, abs(prod))).any():
        raise BadExponent(f"exponent product must be 1, got {prod}")
    return r


@dataclass(frozen=True)
class EigenPair:
    """Principal eigenvalue and normalized eigenvector on one cone, both as logs.

    ``eigvec`` is -inf exactly off the eigenvector's support.
    """

    log_rho: float
    eigvec: np.ndarray
    class_index: int
    iterations: int
    residual: float


def principal_eigenpair(
    model: AdjacencyModel,
    period: PeriodStructure,
    r,
    class_index: int = 0,
    tol: float = EIGEN_TOL,
    max_iter: int = EIGEN_MAX_ITER,
) -> EigenPair:
    """The cone-restricted principal eigenpair, by safeguarded Newton steps.

    Starts from the indicator of the class and brackets the eigenvalue with
    the Collatz-Wielandt bounds min/max of (L(x) - x) over the support, once
    the cycle maps that support onto itself.  The bracket is valid for
    order-preserving homogeneous maps, which the cycle is.  The first step,
    and any step that shrinks the support, is x -> L(x).  From a point with
    an invariant support the next point is the Newton step on
    L(x) - x - lam 1 = 0, which the next evaluation keeps only if it narrows
    the bracket.  Otherwise, or where the Newton system is singular, the
    step is the shifted one x -> x + L(x) (logaddexp in log domain) from the
    kept point, renormalized.  The shift by the identity makes that power
    iteration aperiodic: without it, a cone whose p-step cycle permutes
    sub-classes (a cyclic block whose own period is a multiple of p) never
    settles.  The eigenvector reported is the kept point whose bracket
    closed below ``tol``.
    """
    r = np.asarray(r, dtype=float)
    return _eigen_rows(model, period, r[None], class_index, tol, max_iter)[0]


def _class_blocks(model: AdjacencyModel, period: PeriodStructure, j: int):
    """The classes the cycle on cone j visits, and the log adjacency block of each step.

    Step i maps class j - i onto class j - i - 1, so it runs on
    log A[members[i], members[i + 1]]; members[p] is the cone, members[0].
    """
    p = period.period
    log_adj = log_weights(model.adjacency)
    members = [np.flatnonzero(period.class_mask(j - i)) for i in range(p + 1)]
    return members, [log_adj[np.ix_(members[i], members[i + 1])] for i in range(p)]


def _cycle(blocks, steps, x: np.ndarray):
    """The cycle from ``x`` [..., m_0] over ``_class_blocks``: L(x) and each step's ``_lse`` parts.

    Step i sends x_i to x_{i+1} = r_i z_i with exponent ``steps[i]`` (a
    scalar, or [K, 1] per row), as ``psi`` does, bit for bit.
    """
    parts = []
    with np.errstate(divide="ignore"):
        for w, s in zip(blocks, steps):
            z, weight, total = _lse(w, x)
            parts.append((z, weight, total))
            x = s * z
    return x, parts


def _cycle_factors(parts):
    """Each step's law P_i [..., m_i, m_{i+1}] and the cycle's transposed Jacobian.

    P_i[a, b] = A[a, b] exp(x_i[a] - z_i[b]) is the softmax of step i, a
    child's law given its parent b (0 in a column without support); it is
    the weights of ``parts``, normalized in place.  Step i's Jacobian is
    J_i = r_i P_i^T and the r_i multiply to 1, so J^T = P_0 P_1 ... P_{p-1}
    [..., m_0, m_0], row-stochastic on an invariant support.  The product is
    a stacked matmul, so a batch row equals a lone call, bit for bit.
    """
    laws = [np.divide(weight, total, out=weight, where=total > 0) for _, weight, total in parts]
    return laws, reduce(np.matmul, laws)


def _newton_points(x: np.ndarray, lx: np.ndarray, parts) -> np.ndarray:
    """The Newton step on F(x, lam) = L(x) - x - lam 1 = 0 from each row of ``x`` [K, c].

    J is row-stochastic, so J - I has the null vector 1: the step holds the
    row's largest coordinate (delta = 0 there) and that column of J - I
    carries -lam instead, one solve of [K, c, c] for the K rows.  Off the
    support the rows of J are 0 and the right side is set to 0, so x stays
    -inf there.  Returns x + delta, nan in a row whose system is singular.
    """
    _, jac_t = _cycle_factors(parts)
    k, c = x.shape
    system = np.swapaxes(jac_t, -1, -2)
    system -= np.eye(c)
    pin = x.argmax(axis=1)
    system[np.arange(k), :, pin] = -1.0
    rhs = np.where(np.isfinite(x), x - lx, 0.0)[..., None]
    try:
        delta = np.linalg.solve(system, rhs)[..., 0]
    except np.linalg.LinAlgError:
        # one singular row fails the stack: solve the rows one by one
        delta = np.full((k, c), np.nan)
        for row in range(k):
            try:
                delta[row] = np.linalg.solve(system[row], rhs[row])[:, 0]
            except np.linalg.LinAlgError:
                pass
    delta[np.arange(k), pin] = 0.0  # that entry held lam
    return x + delta


def _eigen_rows(
    model: AdjacencyModel,
    period: PeriodStructure,
    r: np.ndarray,
    class_index: int = 0,
    tol: float = EIGEN_TOL,
    max_iter: int = EIGEN_MAX_ITER,
    start: np.ndarray | None = None,
) -> list[EigenPair]:
    """``principal_eigenpair`` for each row of the exponents ``r`` [K, p] at once.

    Every row follows the rules above and stops on its own bracket; the loop
    only steps the rows still open, and compacts them when one stops.
    ``start`` ([n] or [K, n], logs, supported in class j) replaces the class
    indicator as the first iterate.  The bracket stays a certificate from
    any start whose support is the cone's, such as an eigenvector of the
    same cone at other exponents.  A row that reaches ``max_iter`` raises
    ``NoConvergence`` with its own bracket and kept pair.

    Each row keeps the point with its bracket: a power step's point is
    always kept, a Newton point only when its bracket is narrower than the
    kept one.  So the bracket is a certificate of the reported vector, and a
    rejected Newton point costs one evaluation.  The Jacobian of a Newton
    step is built only for the rows that take one, from the softmax weights
    of the evaluation that kept their point (``_cycle_factors``).

    The loop runs ``_cycle`` on the class blocks (``_class_blocks``) and
    keeps only the class-j entries of its vectors.  The normalizing sum
    still runs over all n entries (zeros off the class), so it adds the same
    terms in the same order as on the full vector.
    """
    p, n = period.period, model.n_symbols
    r = _check_exponents(r, model.arity)
    if r.ndim != 2 or r.shape[1] != p:
        raise BadExponent(f"need {p} exponents per row, got shape {r.shape}")
    j = class_index % p
    members, blocks = _class_blocks(model, period, j)
    cone = members[0]

    def full(v: np.ndarray) -> np.ndarray:
        out = np.full(n, -np.inf)
        out[cone] = v
        return out

    x = np.broadcast_to(0.0 if start is None else start[..., cone], (len(r), len(cone)))
    kept, kept_lx = x, x
    rotation = (p - j) % p
    # steps[i] holds every row's exponent for step i of the cycle, as [K, 1]
    steps = r.T[[(rotation + i) % p for i in range(p)], :, None]
    rows = np.arange(len(r))
    lo = hi = np.full(len(r), np.nan)
    newton = np.zeros(len(r), dtype=bool)  # x is a Newton point on trial
    terms = np.zeros((len(r), n))
    pairs: list[EigenPair | None] = [None] * len(r)
    with np.errstate(invalid="ignore"):
        for it in range(1, max_iter + 1):
            lx, parts = _cycle(blocks, steps, x)
            # off the support both are -inf and the difference is nan, which
            # fmin/fmax skip; a support that changes leaves an infinite one
            diffs = lx - x
            lo_it, hi_it = np.fmin.reduce(diffs, axis=1), np.fmax.reduce(diffs, axis=1)
            # a Newton point is kept only if it narrows the kept bracket (a
            # support it changes leaves a nan or infinite width, which does not)
            take = ~newton | (hi_it - lo_it < hi - lo)
            kept = np.where(take[:, None], x, kept)
            kept_lx = np.where(take[:, None], lx, kept_lx)
            lo, hi = np.where(take, lo_it, lo), np.where(take, hi_it, hi)
            # a row whose cone collapses (eigenvalue 0) has no support left
            collapsed = kept_lx.max(axis=1) == -np.inf
            stop = (hi - lo < tol) | collapsed
            for k in np.flatnonzero(stop):
                if collapsed[k]:
                    pair = EigenPair(-np.inf, full(kept_lx[k]), j, it, 0.0)
                else:
                    width = float(hi[k] - lo[k])
                    pair = EigenPair(float(0.5 * (lo[k] + hi[k])), full(kept[k]), j, it, width)
                pairs[rows[k]] = pair
            if stop.all():
                return pairs
            live = np.flatnonzero(~stop)
            if stop.any():
                kept, kept_lx, lo, hi, take, rows, terms = (
                    kept[live], kept_lx[live], lo[live], hi[live], take[live], rows[live],
                    terms[live],
                )
                steps = steps[:, live]
            invariant = np.isfinite(hi - lo)
            y = np.where(invariant[:, None] & (it > 1), np.logaddexp(kept, kept_lx), kept_lx)
            newton = take & invariant
            if newton.any():
                trial = live[newton]
                if len(trial) < len(stop):
                    parts = [(z[trial], w[trial], t[trial]) for z, w, t in parts]
                step = _newton_points(kept[newton], kept_lx[newton], parts)
                ok = np.isfinite(np.where(np.isfinite(kept[newton]), step, 0.0)).all(axis=1)
                y[newton] = np.where(ok[:, None], step, y[newton])
                newton[newton] = ok
            del parts  # the next evaluation builds its own
            top = y.max(axis=1, keepdims=True)
            terms[:, cone] = np.exp(y - top)
            x = y - (top + np.log(terms.sum(axis=1, keepdims=True)))
    lo, hi = float(lo[0]), float(hi[0])
    best = EigenPair(0.5 * (lo + hi), full(kept[0]), j, max_iter, hi - lo)
    raise NoConvergence(
        f"eigen bracket width {hi - lo:.3e} after {max_iter} iterations",
        bracket=(lo, hi),
        best=best,
    )


def _certified_depth(scale: float, d: int, tol: float) -> int:
    """Smallest n >= 1 with the a-priori bound scale * d^(-n) below ``tol``."""
    n = max(1, floor(log(scale / tol) / log(d)) + 1) if scale >= tol else 1
    return n + int(scale * d ** (-n) >= tol)  # log rounding at an exact power of d


@dataclass(frozen=True)
class EntropySequence:
    """Normalized log block counts by depth, the limit and its a-priori error bound."""

    depths: tuple[int, ...]
    values: tuple[float, ...]
    h_top: float
    error_bound: float


def entropy_iterate(model: AdjacencyModel) -> EntropySequence:
    """Topological-entropy recursion log c_{k+1} = psi(A, d, log c_k), to a certified depth.

    Emits log(sum_a c_k(a)) / |Lambda(k)| for k = 0..n on the model's core:
    the symbols that a cycle reaches and that reach a cycle, so each has a
    parent and a child in it.  The entropy is the pressure at mu = 0 with
    unit weights, and on the core its a-priori bound is 2 log|A| d^(-n),
    |A| the core's size; n is the first depth where that bound drops below
    PRESSURE_TOL, and ``h_top`` is the value at n.  A symbol outside the
    core leaves the limit unchanged, but a parentless root's count trails
    its descendants' by up to |A| levels, an excess near d^|A| that the
    bound does not cover.
    """
    reach = model.reach
    cycle = _recurrent(model.adjacency, reach)
    core = np.flatnonzero(reach[:, cycle].any(axis=1) & reach[cycle].any(axis=0))
    if core.size == 0:
        raise EmptyModel("no symbol lies on a cycle: the shift holds no infinite tree")
    d = model.arity
    scale = 2.0 * log(core.size)
    n = _certified_depth(scale, d, PRESSURE_TOL)
    log_adj = log_weights(model.adjacency[np.ix_(core, core)])
    x = np.zeros(core.size)
    values = [logsumexp(x)]
    for k in range(1, n + 1):
        x = psi(log_adj, d, x)
        size = (d ** (k + 1) - 1.0) / (d - 1.0)  # float on purpose: huge at large k
        values.append(logsumexp(x) / size)
    return EntropySequence(tuple(range(n + 1)), tuple(values), values[-1], scale * d**-n)
