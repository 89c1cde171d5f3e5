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
tilted recursion runs on it too.  The power iteration is one loop over a
batch of exponent vectors (``_eigen_rows``); ``principal_eigenpair`` is its
single-row call.  Eigenvectors are plain log arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import log

import numpy as np

from .alphabet_graph import AdjacencyModel, PeriodStructure
from .errors import BadExponent, ModelValidationError, NoConvergence

EIGEN_TOL = 1e-11
EIGEN_MAX_ITER = 10**4
PRODUCT_TOL = 1e-12
LOG_MAX_FLOAT = log(np.finfo(float).max)


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
    x = np.asarray(log_x, dtype=float)
    z = log_w + x[..., :, None]
    peak = z.max(axis=-2, keepdims=True, initial=-np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        peak = np.where(peak > -np.inf, peak, 0.0)
        z -= peak
        weight = np.exp(z, out=z)
        total = weight.sum(axis=-2, keepdims=True)
        x = s * (peak + np.log(total))[..., 0, :]
        if dlog_w is None:
            return x
        # softmax from its own sum, not exp(z - lse): at large weights the
        # rounding of the lse is no longer small against 1 and would compound
        return x, s * (weight / total * (dlog_w + dx[..., :, None])).sum(axis=-2)


def _check_exponents(r: np.ndarray, d: int) -> np.ndarray:
    """Validate exponent vectors along the last axis of ``r``."""
    r = np.asarray(r, dtype=float)
    if (r <= 0).any() or (r > d + 1e-12).any():
        raise BadExponent(f"exponents must lie in (0, {d}], got {r}")
    prod = np.prod(r, axis=-1)
    if (abs(prod - 1.0) > PRODUCT_TOL * np.maximum(1.0, abs(prod))).any():
        raise BadExponent(f"exponent product must be 1, got {prod}")
    return r


def apply_l(model: AdjacencyModel, r, log_x: np.ndarray, rotation: int = 0) -> np.ndarray:
    """Full p-step cycle, starting with exponent r_rotation."""
    r = _check_exponents(r, model.arity)
    x = np.asarray(log_x, dtype=float)
    log_adj = log_weights(model.adjacency)
    p = len(r)
    for i in range(p):
        x = psi(log_adj, float(r[(rotation + i) % p]), x)
    return x


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
    """Power iteration for the cone-restricted principal eigenpair.

    Starts from the indicator of the class and brackets the eigenvalue with
    the Collatz-Wielandt bounds min/max of (L(x) - x) over the support, once
    the cycle maps that support onto itself.  The bracket is valid for
    order-preserving homogeneous maps, which the cycle is.  The first step,
    and any step that shrinks the support, is x -> L(x); every later step
    is x -> x + L(x) (logaddexp in log domain), renormalized.  The shift by
    the identity makes the iteration aperiodic: without it, a cone whose
    p-step cycle permutes sub-classes (a cyclic block whose own period is a
    multiple of p) never settles.
    """
    r = np.asarray(r, dtype=float)
    return _eigen_rows(model, period, r[None], class_index, tol, max_iter)[0]


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
    ``NoConvergence`` with its own bracket and best pair.

    Step i of the cycle maps class j - i onto class j - i - 1, so it runs
    ``psi`` on that block of the matrix, and the loop keeps only the class-j
    entries of its vectors.  The normalizing sum still runs over all n
    entries (zeros off the class), so it adds the same terms in the same
    order as on the full vector.
    """
    p, n = period.period, model.n_symbols
    r = _check_exponents(r, model.arity)
    if r.ndim != 2 or r.shape[1] != p:
        raise BadExponent(f"need {p} exponents per row, got shape {r.shape}")
    log_adj = log_weights(model.adjacency)
    j = class_index % p
    members = [np.flatnonzero(period.class_mask(j - i, n)) for i in range(p + 1)]
    blocks = [log_adj[np.ix_(members[i], members[i + 1])] for i in range(p)]
    cone = members[0]

    def full(v: np.ndarray) -> np.ndarray:
        out = np.full(n, -np.inf)
        out[cone] = v
        return out

    x = np.broadcast_to(0.0 if start is None else start[..., cone], (len(r), len(cone)))
    rotation = (p - j) % p
    # steps[i] holds every row's exponent for step i of the cycle, as [K, 1]
    steps = r.T[[(rotation + i) % p for i in range(p)], :, None]
    rows = np.arange(len(r))
    lo = hi = np.full(len(r), np.nan)
    terms = np.zeros((len(r), n))
    pairs: list[EigenPair | None] = [None] * len(r)
    with np.errstate(invalid="ignore"):
        for it in range(1, max_iter + 1):
            lx = x
            for w, s in zip(blocks, steps):
                lx = psi(w, s, lx)
            # off the support both are -inf and the difference is nan, which
            # fmin/fmax skip; a support that changes leaves an infinite one
            diffs = lx - x
            lo_it, hi_it = np.fmin.reduce(diffs, axis=1), np.fmax.reduce(diffs, axis=1)
            invariant = np.isfinite(hi_it - lo_it)
            if invariant.all():
                lo, hi = lo_it, hi_it
                y = np.logaddexp(x, lx) if it > 1 else lx
            else:
                lo, hi = np.where(invariant, lo_it, lo), np.where(invariant, hi_it, hi)
                y = np.where(invariant[:, None] & (it > 1), np.logaddexp(x, lx), lx)
            top = y.max(axis=1, keepdims=True)
            terms[:, cone] = np.exp(y - top)
            x = y - (top + np.log(terms.sum(axis=1, keepdims=True)))
            # a row whose cone collapses (eigenvalue 0) has no support left
            collapsed = top[:, 0] == -np.inf
            stop = (hi - lo < tol) | collapsed
            if not stop.any():
                continue
            for k in np.flatnonzero(stop):
                if collapsed[k]:
                    pair = EigenPair(-np.inf, full(lx[k]), j, it, 0.0)
                else:
                    width = float(hi[k] - lo[k])
                    pair = EigenPair(float(0.5 * (lo[k] + hi[k])), full(x[k]), j, it, width)
                pairs[rows[k]] = pair
            if stop.all():
                return pairs
            keep = ~stop
            x, steps, rows, lo, hi, terms = (
                x[keep], steps[:, keep], rows[keep], lo[keep], hi[keep], terms[keep]
            )
    lo, hi = float(lo[0]), float(hi[0])
    best = EigenPair(0.5 * (lo + hi), full(x[0]), j, max_iter, hi - lo)
    raise NoConvergence(
        f"eigen bracket width {hi - lo:.3e} after {max_iter} iterations",
        bracket=(lo, hi),
        best=best,
    )


@dataclass(frozen=True)
class EntropySequence:
    """Normalized log block counts by depth and the extrapolated limit."""

    depths: tuple[int, ...]
    values: tuple[float, ...]
    h_top: float


def entropy_iterate(model: AdjacencyModel, n_max: int = 40) -> EntropySequence:
    """Topological-entropy recursion log c_{k+1} = psi(A, d, log c_k).

    Emits log(sum_a c_k(a)) / |Lambda(k)| for k = 0..n_max and an Aitken
    extrapolation of the last three terms as the limit estimate.
    """
    if n_max < 0:
        raise ModelValidationError(f"entropy depth must be >= 0, got {n_max}")
    d = model.arity
    # |Lambda(n)| < d^(n+1) / (d-1) and log c_n <= |Lambda(n)| log |A| must stay
    # floats, with room to round
    log_size = (n_max + 1) * log(d) - log(d - 1)
    if log_size + log(max(log(model.n_symbols), 1.0)) > LOG_MAX_FLOAT - 1.0:
        raise ModelValidationError(
            f"entropy depth {n_max} leaves the float range: |Lambda({n_max})| is about "
            f"e^{log_size:.0f}"
        )
    log_adj = log_weights(model.adjacency)
    x = np.zeros(model.n_symbols)
    depths = [0]
    values = [logsumexp(x) / 1.0]
    for k in range(1, n_max + 1):
        x = psi(log_adj, d, x)
        size = (d ** (k + 1) - 1.0) / (d - 1.0)  # float on purpose: huge at large k
        depths.append(k)
        values.append(logsumexp(x) / size)
    h = values[-1]
    if len(values) >= 3:
        e1, e2, e3 = values[-3], values[-2], values[-1]
        denom = e2 - e1
        if denom != 0.0:
            q = (e3 - e2) / denom
            if abs(q) < 1.0:
                h = e3 + (e3 - e2) * q / (1.0 - q)
    return EntropySequence(tuple(depths), tuple(values), float(h))
