"""Reference checks for every command the benchmark runs.

Tolerances follow ``tests/test_acceptance.py`` and are never looser.  Each
check returns a list of problems; an empty list means the output is correct.
"""
from __future__ import annotations

import csv
import json
from math import inf, isfinite, log

import numpy as np

LOG2 = log(2)
RATE_RESOLUTION = 5e-3
LIMIT_CYCLES = 200  # periods of depth after which exact phase means equal their limits
SAMPLE_Z = 6.0  # standard errors a sampled phase mean may lie from its exact expectation


def _close(name, got, want, tol):
    if not isinstance(got, (int, float)) or not abs(got - want) <= tol:
        return [f"{name}={got!r}, expected {want!r} +- {tol}"]
    return []


def check_nine(out: dict, ctx: dict) -> list[str]:
    problems = _close("dim", out["dim"], 0.3027, 5e-3)
    problems += _close("log_rho_linear", out["log_rho_linear"], 0.3208, 1e-3)
    if not out["dim"] < out["log_rho_linear"]:
        problems.append("dim is not below log_rho_linear")
    return problems


def check_wide64(out: dict, ctx: dict) -> list[str]:
    problems = []
    if not out["dim"] <= out["log_rho_linear"] + 1e-9:
        problems.append(f"dim {out['dim']!r} exceeds log_rho_linear {out['log_rho_linear']!r}")
    values = out["class_values"]
    if not max(values) - min(values) <= 1e-8:
        problems.append(f"class_values spread {max(values) - min(values):.3e} > 1e-8")
    return problems


def check_rate(out: dict, ctx: dict) -> list[str]:
    """Example-1 rate CSV: finite exactly on [0, (2/3) log 2], nonnegative, convex."""
    with open(out["csv"]) as fh:
        rows = list(csv.DictReader(fh))
    alphas = np.array([float(r["alpha"]) for r in rows])
    values = np.array([inf if r["rate"] == "inf" else float(r["rate"]) for r in rows])
    problems = []
    if len(rows) != 200:
        problems.append(f"{len(rows)} rate points, expected 200")
    if not alphas[1] - alphas[0] < RATE_RESOLUTION:
        problems.append("alpha grid coarser than the 5e-3 resolution")
    lo, hi = 0.0, 2 * LOG2 / 3
    for a, v in zip(alphas, values):
        if lo + RATE_RESOLUTION <= a <= hi - RATE_RESOLUTION and not np.isfinite(v):
            problems.append(f"rate should be finite at {a}")
        if (a < lo - RATE_RESOLUTION or a > hi + RATE_RESOLUTION) and v != inf:
            problems.append(f"rate should be +inf at {a}")
    finite = values[np.isfinite(values)]
    if finite.size < 3:
        return problems + ["fewer than 3 finite rate points"]
    if not finite.min() >= -1e-8:
        problems.append(f"rate minimum {finite.min():.3e} below -1e-8")
    if not np.diff(finite, 2).min() > -1e-8:
        problems.append(f"second difference {np.diff(finite, 2).min():.3e} below -1e-8")
    return problems


def check_lln(out: dict, ctx: dict) -> list[str]:
    return _close("alpha_star", out["alpha_star"][0], LOG2 / 3, 1e-8)


def phase_means(m: np.ndarray, w: np.ndarray, d: int, root: int, depth: int) -> float:
    """Exact expected sample mean of log W over a depth-n tree rooted at ``root``.

    Level k holds d^k edges whose parents follow M^(k-1) e_root; level weights
    are kept relative to the bottom level so that large depths do not overflow.
    """
    sup = m > 0
    edge = np.where(sup, m * np.log(np.where(sup, w, 1.0)), 0.0).sum(axis=0)
    dist = np.zeros(m.shape[0])
    dist[root] = 1.0
    total = 0.0
    for k in range(1, depth + 1):
        total += float(d) ** (k - depth) * float(edge @ dist)
        dist = m @ dist
    return total / sum(float(d) ** (-i) for i in range(depth + 1))


def check_simulate(out: dict, ctx: dict) -> list[str]:
    """Sampled phase means against their exact expectations, and the reported numbers.

    Each phase's ``empirical`` mean must lie within ``SAMPLE_Z`` standard
    errors of the exact expected sample mean at that phase's depth, computed
    here independently, so a biased or broken sampler fails.  The targets
    must equal the exact limits, the z-scores must follow from the reported
    numbers and the verdicts from the z-scores.  ``passed`` itself is not
    required: at depth 12 on the 9x9 chain the finite-depth bias is several
    standard errors, so the program's verdict is false (see NOTES.md).
    """
    with open(ctx["workdir"] / "nine_chain.json") as fh:
        doc = json.load(fh)
    m = np.asarray(doc["M"], dtype=float)
    d, root = doc["d"], out["manifest"]["config"]["root"]
    depth = out["manifest"]["config"]["depth"]
    problems = []
    if out["seed"] != ctx["seed"] or out["generator"] != "philox4x64":
        problems.append("seed or generator not echoed")
    checks = out["phase_checks"]
    p = len(checks)
    for c in checks:
        j = c["phase"]
        if c["depth"] != max(k for k in range(1, depth + 1) if k % p == j):
            problems.append(f"phase {j} sampled at depth {c['depth']}")
        if not (isfinite(c["empirical"]) and c["stderr"] > 0):
            problems.append(f"phase {j}: empirical {c['empirical']!r}, stderr {c['stderr']!r}")
            continue
        expected = phase_means(m, m, d, root, c["depth"])
        problems += _close(f"phase {j} empirical", c["empirical"], expected,
                           SAMPLE_Z * c["stderr"])
        limit = phase_means(m, m, d, root, LIMIT_CYCLES * p + j)
        problems += _close(f"phase {j} target", c["target"], limit, 1e-8)
        z = (c["empirical"] - c["target"]) / c["stderr"]
        problems += _close(f"phase {j} z", c["z_score"], z, 1e-9 * max(1.0, abs(z)))
        if c["passed"] != (abs(c["z_score"]) <= 3.0):
            problems.append(f"phase {j} verdict disagrees with its z-score")
    if out["passed"] != all(c["passed"] for c in checks):
        problems.append("overall verdict disagrees with the phase verdicts")
    return problems


def check_oracle(out: dict, ctx: dict) -> list[str]:
    problems = []
    if out["n_classes"] != 12459:
        problems.append(f"n_classes={out['n_classes']}, expected 12459")
    return problems + _close("total_probability", out["total_probability"], 1.0, 1e-12)


def check_measure(out: dict, ctx: dict) -> list[str]:
    problems = _close("dim", out["dim"], LOG2 / 3, 1e-4)
    # the certificate: the smallest likelihood-decay phase reproduces dim
    if out["validation_value"] != min(out["phases"]):
        problems.append("validation_value is not the smallest phase")
    return problems + _close("certificate", out["validation_value"], out["dim"], 1e-6)
