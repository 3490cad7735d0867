#!/usr/bin/env python3
"""End-to-end domination experiment for a quasi-inadmissible estimator.

Constructs the perturbation g for the target phi, verifies the sign of the
risk difference on a dense grid, then runs paired Monte Carlo at several
signal strengths under both the Normal model and a Student-t scale mixture.
Writes a CSV of paired results next to a JSON certificate.
"""

import argparse
import os

from sure_boundary.boundary import construct_dominator, default_w_grid, verify_domination
from sure_boundary.core import ProblemDims
from sure_boundary.families import make_shrinkage, parse_phi_spec
from sure_boundary.montecarlo import SimConfig, domination_mc, parse_model
from sure_boundary.reports import canonical_csv, canonical_json, write_text

CSV_HEADER = ("model", "theta_norm", "reps", "seed", "mean_diff", "se_diff", "se_unpaired")


def experiment(dims: ProblemDims, phi_spec: str, b: float, reps: int, t_reps: int, seed: int):
    """The certificate, the paired rows (CSV_HEADER order) and the text of
    each output file by name."""
    phi = make_shrinkage(parse_phi_spec(phi_spec), dims)
    spec = construct_dominator(phi, dims, b)
    cert = verify_domination(phi, spec, dims, default_w_grid(points=10**4))

    rows = []
    thetas = (0.0, 1.0, 5.0, 20.0)
    for model, model_reps in (("normal", reps), ("student-t:df=5.0", t_reps)):
        configs = [
            SimConfig(dims=dims, theta_norm=t, sigma=1.0, reps=model_reps, seed=seed + i,
                      model=parse_model(model))
            for i, t in enumerate(thetas)
        ]
        for rep in domination_mc(phi, spec, configs):
            rows.append((
                model, rep.config.theta_norm, rep.reps, rep.config.seed,
                rep.mean_diff, rep.se_diff, rep.se_unpaired,
            ))
    files = {
        "domination_paired.csv": canonical_csv(CSV_HEADER, rows),
        "domination_certificate.json": canonical_json(cert),
    }
    return cert, rows, files


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=5)
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--phi", default="zero")
    ap.add_argument("--b", type=float, default=1.5)
    ap.add_argument("--reps", type=int, default=10**6)
    ap.add_argument("--t-reps", type=int, default=10**5)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--outdir", default="out")
    args = ap.parse_args()

    cert, rows, files = experiment(ProblemDims(args.p, args.n), args.phi, args.b,
                                   args.reps, args.t_reps, args.seed)
    spec = cert.spec
    print(f"dominator: nu={spec.nu:.6f} w_sharp={spec.w_sharp:.4f} "
          f"ramp={spec.ramp_width:.4f} (witness b={spec.b})")
    print(f"certificate: verdict={cert.verdict} "
          f"min_delta_above_sharp={cert.min_delta_above_sharp:.3e}")
    for model, theta, _, _, mean_diff, se_diff, _ in rows:
        verdict = "ok" if mean_diff >= -3.0 * se_diff else "WORSE"
        print(f"{model:18s} theta={theta:5.1f} "
              f"diff={mean_diff:+.6f} +/- {se_diff:.6f} [{verdict}]")

    os.makedirs(args.outdir, exist_ok=True)
    paths = {os.path.join(args.outdir, name): text for name, text in files.items()}
    for path, text in paths.items():
        write_text(path, text)
    print(f"wrote {' and '.join(paths)}")


if __name__ == "__main__":
    main()
