#!/usr/bin/env python3
"""Reproduce the three worked examples end to end and print a summary.

Usage: python scripts/run_examples.py [--csv-dir DIR]

Writes the Example-1 rate curve (and the 9x9 objective over the dimension
search's simplex grid) as CSV when a directory is given.
"""
import argparse
import time
from math import log
from pathlib import Path

import numpy as np

import treeshift as ts

NINE = [
    [0, 0, 0, 0, 1, 1, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 1, 0, 0],
    [0, 1, 1, 0, 0, 0, 0, 0, 0],
    [1, 0, 1, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 0, 0],
]


def example_one(csv_dir):
    print("== primitive 2-symbol chain with one weighted edge ==")
    chain = ts.chain_from_matrices([[0.5, 1.0], [0.5, 0.0]], [[1.0, 2.0], [1.0, 0.0]])
    star = ts.lln_limit(chain, 0)
    a1, a2 = ts.domain_endpoints(chain, 0)
    print(f"  almost-sure limit : {star:.6f}  (= (1/3) log 2 = {log(2) / 3:.6f})")
    print(f"  finite rate domain: [{a1:.6f}, {a2:.6f}]  (upper = (2/3) log 2)")
    curve = ts.rate_curve(chain, 0, n_points=200)
    if csv_dir:
        out = Path(csv_dir) / "example1_rate.csv"
        with open(out, "w") as fh:
            curve.to_csv(fh)
        print(f"  rate curve        : {out}")
    report = ts.lln_experiment(chain, ts.SampleConfig(depth=14, trials=40, seed=0))
    check = report.phase_checks[0]
    print(f"  Monte-Carlo check : empirical {check.empirical:.6f}, z = {check.z_score:+.2f}")


def example_two():
    print("== period-2 chain with alternating sample means ==")
    m = np.array([[0.0, 1.0, 1.0], [0.5, 0.0, 0.0], [0.5, 0.0, 0.0]])
    chain = ts.chain_from_matrices(m, ts.reciprocal_on_support(m))
    phases = [ts.lln_limit(chain, j) for j in range(2)]
    lo, hi = ts.lln_beta_bounds(chain, np.array([0.5, 0.25, 0.25]))
    print(f"  likelihood-decay phases: {phases[0]:.6f}, {phases[1]:.6f}")
    print(f"  expectation bounds     : [{lo:.6f}, {hi:.6f}]  (= (1/2) log 2)")
    model = chain.base
    rep = ts.hausdorff_dimension(model)
    om = ts.optimal_markov_measure(model, rep)
    print(f"  Hausdorff dimension    : {rep.dim:.6f}  (= (1/3) log 2)")
    print(f"  optimal measure phases : {[round(p, 6) for p in om.phases]}")


def example_nine(csv_dir):
    print("== 9-symbol period-3 shift on the 3-tree ==")
    model = ts.AdjacencyModel(tuple(f"s{i}" for i in range(9)), NINE, 3)
    started = time.perf_counter()
    rep = ts.hausdorff_dimension(model)
    elapsed = time.perf_counter() - started
    print(f"  dim_H     : {rep.dim:.5f}   ({elapsed:.1f} s)")
    print(f"  log rho   : {rep.log_rho_linear:.5f}")
    print(f"  h_top     : {rep.h_top:.5f}")
    print(f"  argmin s  : {np.round(rep.argmin_s, 4).tolist()}")
    print(f"  argmin r  : {np.round(rep.argmin_r, 4).tolist()}")
    if csv_dir:
        out = Path(csv_dir) / "nine_objective_scan.csv"
        with open(out, "w") as fh:
            fh.write("s0,s1,s2,objective\n")
            for s, val in zip(rep.grid_s, rep.grid_values):
                fh.write(",".join(f"{x:.6f}" for x in s) + f",{val:.8f}\n")
        print(f"  objective scan: {out}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csv-dir", default=None, help="directory for CSV artifacts")
    args = parser.parse_args()
    if args.csv_dir:
        Path(args.csv_dir).mkdir(parents=True, exist_ok=True)
    example_one(args.csv_dir)
    print()
    example_two()
    print()
    example_nine(args.csv_dir)


if __name__ == "__main__":
    main()
