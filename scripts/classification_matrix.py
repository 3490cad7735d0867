#!/usr/bin/env python3
"""Classify the shrinkage catalog against the critical tail.

Prints one row per estimator with its verdict, witness coefficient, and
threshold, plus assumption diagnostics.  Pass --json PATH to also dump the
verdicts as canonical JSON.
"""

import argparse

from sure_boundary.boundary import QuasiClass, check_assumptions, classify
from sure_boundary.core import ProblemDims, constants
from sure_boundary.families import make_shrinkage, parse_phi_spec
from sure_boundary.reports import canonical_json, write_text

CATALOG = [
    "zero",
    "jsplus:a={c_pn}",
    "linear:alpha=0.3",
    "linear:alpha=0.7",
    "boundary:b=0.5",
    "boundary:b=1.0",
    "boundary:b=2.0",
    "gb:a=-2,b=0.5",
    "gb:a=-2,b=1.0",
    "gb:a=-2,b=2.0",
    "gb:a=-1,b=0.0",
]


def verdicts(dims: ProblemDims) -> dict[str, QuasiClass]:
    """The catalog's verdicts at dims, keyed by phi spec: what --json writes."""
    c_pn = constants(dims).c_pn
    labels = (template.format(c_pn=c_pn) for template in CATALOG)
    return {label: classify(make_shrinkage(parse_phi_spec(label), dims), dims)
            for label in labels}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=5)
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--json", default=None, help="also write verdicts to this path")
    args = ap.parse_args()

    dims = ProblemDims(args.p, args.n)
    k = constants(dims)
    print(f"dims p={dims.p} n={dims.n}: c_pn={k.c_pn:.6f} beta_star={k.beta_star:.6f}")
    print(f"{'phi':24s} {'verdict':18s} {'b_witness':>9s} {'w_star':>12s} assumptions")

    rows = verdicts(dims)
    for label, verdict in rows.items():
        rep = check_assumptions(make_shrinkage(parse_phi_spec(label), dims))
        bw = f"{verdict.b_witness:.2f}" if verdict.b_witness is not None else "-"
        ws = f"{verdict.w_star:.4g}" if verdict.w_star is not None else "-"
        flags = "ok" if rep.all_ok else "CHECK"
        print(f"{label:24s} {verdict.variant:18s} {bw:>9s} {ws:>12s} {flags}")

    if args.json:
        write_text(args.json, canonical_json(rows))
        print(f"wrote {args.json}")


if __name__ == "__main__":
    main()
