"""Command-line entry point.

stdout carries data (JSON; CSV goes to files), stderr carries logs.  Exit
codes: 2 parse error, 3 validation error, 4 numeric failure, 5 resource
guard.  Every JSON artifact embeds a run manifest (command, input hash,
configuration, version, wall time).
"""
from __future__ import annotations

import csv
import functools
import hashlib
import json
import sys
import time
from dataclasses import asdict, is_dataclass

import click
import numpy as np

from . import __version__
from .alphabet_graph import (
    A1Violated,
    _recurrent,
    _sccs,
    is_irreducible,
    model_from_dict,
    reduce_a0,
)
from .dimension import check_tolerance, hausdorff_dimension, optimal_markov_measure
from .errors import (
    ModelParseError,
    ModelValidationError,
    NoConvergence,
    Overflow,
    TooLarge,
    TreeShiftError,
    ValidationFailed,
)
from .oracle import enumerate_type_classes, exact_mean_distribution
from .rate_function import (
    domain_endpoints,
    lln_beta_bounds,
    lln_limit,
    parse_weighted,
    rate_curve,
)
from .stochastic import SampleConfig, lln_experiment
from .transfer_op import entropy_iterate

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4
EXIT_RESOURCE = 5


def _emit(payload: dict, command: str, digest: str, config: dict, started: float) -> None:
    payload["manifest"] = {
        "command": command,
        "input_sha256": digest,
        "config": config,
        "tool_version": __version__,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    sys.stdout.write(_dumps(payload) + "\n")


def _dumps(obj) -> str:
    """One line of strict JSON.

    The C encoder writes the document as it is; only a non-finite float
    (``ValueError``) sends it through the ``_sanitize`` walk and its sentinels.
    No payload holds a cycle (``_sanitize`` would recurse on one without end),
    so the encoder skips its circular-reference bookkeeping, one dict insert
    and delete per container.
    """
    try:
        return json.dumps(obj, allow_nan=False, check_circular=False, default=_plain)
    except ValueError:
        return json.dumps(_sanitize(obj), allow_nan=False)


def _plain(obj):
    """The JSON value of an object the encoder does not know."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, frozenset):
        return sorted(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _sanitize(obj):
    """Strict-JSON form: plain values, non-finite floats to sentinels."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return "nan" if np.isnan(obj) else "inf" if obj > 0 else "-inf"
    if isinstance(obj, (np.ndarray, np.generic, frozenset)):
        return _sanitize(_plain(obj))
    return obj


def _load(path):
    """One read of the model file: its SHA-256, JSON document, model, reduced model."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        data = json.loads(raw)
    except (OSError, ValueError) as exc:
        raise ModelParseError(f"cannot read model file {path}: {exc}") from exc
    model = model_from_dict(data)
    return hashlib.sha256(raw).hexdigest(), data, model, reduce_a0(model)


def _run(fn):
    """Translate package errors into the uniform exit-code map.

    A failure writes a human-readable line to stderr, then one JSON error
    record: exit code, error class and message, and the numbers the error
    carries (``bracket``/``best`` or ``expected``/``got``).
    """
    try:
        fn()
    except ModelParseError as exc:
        _fail(EXIT_PARSE, "parse error", exc)
    except (ModelValidationError, A1Violated) as exc:
        _fail(EXIT_VALIDATION, "validation error", exc)
    except (NoConvergence, ValidationFailed) as exc:
        _fail(EXIT_NUMERIC, "numeric failure", exc)
    except (TooLarge, Overflow, MemoryError) as exc:
        _fail(EXIT_RESOURCE, "resource guard", exc)
    except TreeShiftError as exc:
        _fail(EXIT_NUMERIC, "error", exc)


def _fail(code: int, label: str, exc: BaseException):
    click.echo(f"{label}: {exc}", err=True)
    record = {"exit_code": code, "error": type(exc).__name__, "message": str(exc)}
    for key in ("bracket", "best", "expected", "got"):
        value = getattr(exc, key, None)
        if is_dataclass(value):  # the best estimate, without its arrays
            value = {k: v for k, v in vars(value).items() if isinstance(v, (int, float))}
        if value is not None:
            record[key] = value
    click.echo(_dumps(record), err=True)
    sys.exit(code)


@click.group()
@click.version_option(__version__)
def main():
    """Analyze Markov chains indexed by rooted d-trees."""


def _command(body):
    """Register ``body(data, model, reduced, **options) -> (payload, config)``
    as the subcommand of its own name, on a ``model_file`` argument.

    The command reads the file once (``_load``), runs the body under
    ``_run``'s exit-code map, and emits the payload with the run manifest.
    ``functools.wraps`` hands the body's name, docstring (the help text) and
    ``click`` options on to the command.
    """

    @main.command()
    @click.argument("model_file", type=click.Path())
    @functools.wraps(body)
    def command(model_file, **options):
        started = time.perf_counter()

        def go():
            digest, data, model, reduced = _load(model_file)
            payload, config = body(data, model, reduced, **options)
            _emit(payload, body.__name__, digest, config, started)

        _run(go)

    return command


@_command
def analyze(_data, model, reduced):
    """Structure report: reductions, a0, period, classes, reachability."""
    symbols, reach = reduced.symbols, reduced.reach
    payload = {
        "symbols": list(symbols),
        "d": reduced.arity,
        "a0_reduction_removed": sorted(set(model.symbols) - set(symbols)),
        "a0_holds": reduced.satisfies_a0(),
        "recurrent": np.flatnonzero(_recurrent(reduced.adjacency, reach)).tolist(),
        "closures": {
            symbols[a]: sorted(symbols[b] for b in np.flatnonzero(row))
            for a, row in enumerate(reach)
        },
        "scc_list": _sccs(reach),
        "irreducible": is_irreducible(reduced),
    }
    try:
        period = reduced.structure
        payload["a1_holds"] = True
        payload["a0_symbol"] = symbols[period.a0]
        payload["period"] = period.period
        payload["classes"] = [sorted(symbols[a] for a in cls) for cls in period.classes]
    except A1Violated as exc:
        payload["a1_holds"] = False
        payload["a1_violation"] = str(exc)
    return payload, {}


@_command
@click.option("--eigen-tol", default=1e-11, show_default=True,
              help="Collatz-Wielandt bracket width for eigenpairs.")
@click.option("--scan-csv", type=click.Path(), default=None,
              help="Also write the objective over the search's starting s-lattice "
                   "(at most 51 points) to this CSV (for an upper bound: the "
                   "lattice of the closure that sets it).")
def dimension(_data, _model, reduced, eigen_tol, scan_csv):
    """Hausdorff dimension (exact when irreducible, upper bound otherwise)."""
    report = hausdorff_dimension(reduced, eigen_tol=eigen_tol)
    if scan_csv:
        _write_scan_csv(scan_csv, report)
    col_sums = reduced.adjacency.sum(axis=0)
    payload = {
        "dim": report.dim,
        "argmin_s": report.argmin_s,
        "argmin_r": report.argmin_r,
        "class_values": list(report.class_values),
        "h_top": report.h_top,
        "log_rho_linear": report.log_rho_linear,
        "method": report.method,
        "iterations": report.iterations,
        "eigen_iterations": report.eigen_iterations,
        "gap": report.gap,
        "a0": report.a0,
        "a0_symbol": reduced.symbols[report.a0],
        "period": report.period,
        "spectral_equality_predicate": bool((col_sums == col_sums[0]).all()),
    }
    return payload, {"eigen_tol": eigen_tol}


def _write_scan_csv(path, report):
    """The search's lattice points and objective values; floats in repr form."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"s{i}" for i in range(report.period)] + ["objective"])
        writer.writerows(np.column_stack([report.grid_s, report.grid_values]).tolist())


@_command
@click.option("--class-index", "-j", default=0, show_default=True)
@click.option("--grid-points", default=200, show_default=True)
@click.option("--pressure-tol", default=1e-10, show_default=True)
@click.option("--csv", "csv_path", type=click.Path(), required=True,
              help="Destination for the alpha,rate,argmax_mu,finite table.")
def rate(data, _model, reduced, class_index, grid_points, pressure_tol, csv_path):
    """Sanov rate curve for conditional sample means (CSV + JSON summary)."""
    chain, _ = parse_weighted(data, reduced)
    curve = rate_curve(chain, class_index, n_points=grid_points, pressure_tol=pressure_tol)
    with open(csv_path, "w") as fh:
        curve.to_csv(fh)
    payload = dict(curve.summary())
    payload["csv"] = csv_path
    config = {"class": class_index, "grid_points": grid_points, "pressure_tol": pressure_tol}
    return payload, config


@_command
def lln(data, _model, reduced):
    """Almost-sure phase limits of the sample mean, and expectation bounds."""
    chain, pi = parse_weighted(data, reduced)
    p = reduced.structure.period
    phases = [lln_limit(chain, j) for j in range(p)]
    a1, a2 = domain_endpoints(chain, 0)
    payload = {
        "period": p,
        "alpha_star": phases,
        "alpha1": a1,
        "alpha2": a2,
    }
    if pi is not None:
        lo, hi = lln_beta_bounds(chain, pi)
        payload["beta_minus"] = lo
        payload["beta_plus"] = hi
    return payload, {}


@_command
@click.option("--seed", default=0, show_default=True)
@click.option("--trials", default=50, show_default=True)
@click.option("--depth", default=12, show_default=True)
@click.option("--root", default=None, type=int,
              help="Root symbol index (default: the distinguished symbol a0).")
@click.option("--csv", "csv_path", type=click.Path(), default=None,
              help="Optional per-trial CSV output.")
def simulate(data, _model, reduced, seed, trials, depth, root, csv_path):
    """Monte-Carlo sample-mean experiment against the phase limits."""
    chain, _ = parse_weighted(data, reduced)
    root_sym = reduced.structure.a0 if root is None else root
    config = SampleConfig(depth=depth, trials=trials, seed=seed, root=root_sym)
    report = lln_experiment(chain, config)
    if csv_path:
        with open(csv_path, "w") as fh:
            fh.write("trial,sample_mean\n")
            for t, m in enumerate(report.trial_means):
                fh.write(f"{t},{m!r}\n")
    payload = {
        "empirical_mean": report.empirical_mean,
        "stderr": report.stderr,
        "generator": report.generator,
        "seed": report.seed,
        "passed": report.passed,
        "phase_checks": [asdict(c) for c in report.phase_checks],
    }
    return payload, {"seed": seed, "trials": trials, "depth": depth, "root": root_sym}


@_command
@click.option("--n", "depth", default=2, show_default=True)
@click.option("--root", default=None, type=int)
@click.option("--class-guard", default=10**6, show_default=True,
              help="Abort when the enumeration exceeds this many type classes.")
@click.option("--csv", "csv_path", type=click.Path(), default=None,
              help="Optional CSV of the exact sample-mean distribution.")
def oracle(data, _model, reduced, depth, root, class_guard, csv_path):
    """Exact type-class enumeration at small depth."""
    chain, _ = parse_weighted(data, reduced)
    root_sym = root if root is not None else reduced.structure.a0
    classes = enumerate_type_classes(chain, depth, root_sym, class_guard=class_guard)
    dist = exact_mean_distribution(chain, depth, root_sym)
    if csv_path:
        with open(csv_path, "w") as fh:
            fh.write("mean,probability\n")
            for atom in dist.atoms:
                fh.write(f"{atom.mean!r},{atom.prob!r}\n")
    payload = {
        "depth": depth,
        "root": root_sym,
        "n_classes": len(classes),
        "total_probability": dist.total_prob(),
        "classes": [
            {
                "levels": cls.levels,
                "count": str(cls.count),  # decimal string: counts overflow JSON numbers
                "log_prob": cls.log_prob,
            }
            for cls in classes
        ],
        "mean_atoms": [
            {"mean": atom.mean, "probability": atom.prob} for atom in dist.atoms
        ],
    }
    return payload, {"n": depth, "root": root_sym}


@_command
def entropy(_data, _model, reduced):
    """Topological-entropy recursion to its certified depth, with its error bound."""
    seq = entropy_iterate(reduced)
    payload = {
        "depths": list(seq.depths),
        "values": list(seq.values),
        "h_top": seq.h_top,
        "error_bound": seq.error_bound,
    }
    return payload, {}


@_command
@click.option("--eigen-tol", default=1e-11, show_default=True)
@click.option("--tol", default=1e-6, show_default=True,
              help="Certificate tolerance: |min phase - dim|.")
def measure(_data, _model, reduced, eigen_tol, tol):
    """Optimal Markov measure attaining the dimension, with certificate."""
    check_tolerance("certificate tolerance", tol)  # before the dimension solve
    if not is_irreducible(reduced):  # a reducible model gets only a bound, no measure
        raise ModelValidationError("optimal measure needs an irreducible model")
    report = hausdorff_dimension(reduced, eigen_tol=eigen_tol)
    om = optimal_markov_measure(reduced, report, tol=tol, eigen_tol=eigen_tol)
    payload = {
        "M_star": om.M,
        "pi_star": om.pi,
        "phases": list(om.phases),
        "validation_value": om.validation_value,
        "dim": om.dim,
    }
    return payload, {"eigen_tol": eigen_tol, "tol": tol}


if __name__ == "__main__":
    main()
