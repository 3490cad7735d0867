#!/usr/bin/env python3
"""SHA-256 digest of a fixed grid of Monte Carlo reports.

Runs estimate_risk (zero, jsplus, gb) and domination_mc (zero against its
b = 1.5 dominator) at (p, n) in {(5, 6), (20, 6), (3, 3)}, reps in
{1, 2, 1000, 131072, 300001}, Normal and Student-t df = 10, and threads
1, 2 and 4: 360 canonical JSON reports, plus a hash of sample_all's bytes.
A refactor of the montecarlo module that keeps reports byte-identical
leaves the digest unchanged.  Pass --out PATH to keep the reports
themselves, one per line, for a diff.
"""

import argparse
import hashlib

from sure_boundary.boundary import construct_dominator
from sure_boundary.core import ProblemDims, constants
from sure_boundary.families import GBUnknown, PositivePartJS, Zero, make_shrinkage
from sure_boundary.montecarlo import (
    Normal,
    SimConfig,
    StudentT,
    domination_mc,
    encode_model,
    estimate_risk,
    sample_all,
)
from sure_boundary.reports import canonical_json, write_text

DIMS = ((5, 6), (20, 6), (3, 3))
REPS = (1, 2, 1000, 131_072, 300_001)
MODELS = (Normal(), StudentT(df=10.0))
THREADS = (1, 2, 4)


def reports():
    for p, n in DIMS:
        dims = ProblemDims(p, n)
        zero = make_shrinkage(Zero(), dims)
        members = {
            "zero": zero,
            "jsplus": make_shrinkage(PositivePartJS(a=constants(dims).c_pn), dims),
            "gb": make_shrinkage(GBUnknown(a=-2.0, b=1.0), dims),
        }
        spec = construct_dominator(zero, dims, 1.5)
        for reps in REPS:
            for model in MODELS:
                config = SimConfig(dims=dims, theta_norm=1.0, sigma=1.3, reps=reps,
                                   seed=20240817, model=model)
                for threads in THREADS:
                    label = f"p={p} n={n} reps={reps} {encode_model(model)} threads={threads}"
                    for name, phi in members.items():
                        yield label, name, estimate_risk(phi, config, threads)
                    yield label, "dom", domination_mc(zero, spec, [config], threads)[0]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="also write the reports to this path")
    args = ap.parse_args()

    lines = []
    for label, name, report in reports():
        body = canonical_json(report).rstrip("\n")
        lines.append(f"{label} {name} {body}")
    x, s = sample_all(SimConfig(dims=ProblemDims(5, 6), theta_norm=1.0, reps=1000,
                                seed=3, model=StudentT(df=10.0)))
    sample_hash = hashlib.sha256(x.tobytes() + s.tobytes()).hexdigest()
    lines.append(f"sample_all {sample_hash}")
    text = "\n".join(lines) + "\n"
    if args.out:
        write_text(args.out, text)
    print(f"{len(lines)} lines, sha256 {hashlib.sha256(text.encode()).hexdigest()}")


if __name__ == "__main__":
    main()
