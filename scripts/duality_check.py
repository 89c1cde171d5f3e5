#!/usr/bin/env python3
"""Exhaustive finite-depth duality audit for a small weighted chain.

Enumerates every type class up to --depth, prints the exact class
log-probability per node against the finite-depth dual bound, and reports
the worst slack.  Zero tolerance is expected up to float roundoff.
"""
import argparse
import json
from math import inf

import treeshift as ts
from treeshift.oracle import enumerate_type_classes, finite_rate


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("model", help="model JSON file with M (and optional A)")
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()

    with open(args.model) as fh:
        raw = json.load(fh)
    model = ts.reduce_a0(ts.model_from_dict(raw))
    from treeshift.rate_function import parse_weighted

    chain, _ = parse_weighted(raw, model)
    period = model.structure

    worst = -inf
    total = 0
    for n in range(1, args.depth + 1):
        size = ts.lattice_size(model.arity, n)
        for cls in enumerate_type_classes(chain, n, root=period.a0):
            lhs = cls.log_prob / size
            bound = finite_rate(chain, n % period.period, n, cls.mean(chain))
            slack = lhs - bound
            worst = max(worst, slack)
            total += 1
            if args.verbose:
                print(f"n={n} mean={cls.mean(chain):+.5f} "
                      f"logP/|L|={lhs:+.6f} dual={bound:+.6f} slack={slack:+.2e}")
    print(f"{total} classes checked to depth {args.depth}; worst slack {worst:.3e}")
    if worst > 1e-9:
        raise SystemExit("duality violated beyond roundoff")


if __name__ == "__main__":
    main()
