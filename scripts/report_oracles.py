#!/usr/bin/env python3
"""Byte oracles of the canonical reports: one line per oracle.

Prints `<name> <k> lines, sha256 <hex>` for each oracle, which CI compares
with report_oracles.pinned (written at the default thread cap of 1):
- exact_routes: the gb table samples, gb, saigo4 and derivative routes and
  the known-variance routes and checks over fixed grids of (p, n), a, b, w,
  z and two rel_tol; a table line is `table <k> samples <sha256>`, the
  number of samples and a hash of their log-w nodes and values, so a change
  of the split rule shows as a count; an error is recorded as its type and
  message.
- gb_interpolant: the compiled gb member of each (p, n), a and b of
  exact_routes, at the default rel_tol: a hash of phi.eval and phi.deriv at
  every table node, every node midpoint, 0, 1e-12 and 1e14.
- mc_reports: estimate_risk and domination_mc reports over fixed (p, n),
  reps, models and threads 1, 2 and 4, plus a hash of sample_all's bytes;
  a SimConfig that rejects its reps is recorded as its error.
- classification_matrix_p<p>_n<n>: what classification_matrix.py --json
  writes, at (5, 6), (3, 3) and (12, 19).
- domination_paired and domination_certificate: the files of
  domination_experiment.py --reps 300000 --t-reps 20000.
All oracles run in one process, sharing the gb-table and power caches and
the point memo of power_log_integrals; a value from a cache is the one a
fresh computation gives, so the output does not depend on the order.
Pass --out DIR to also write each oracle's text to DIR/<name>.txt; `diff -r`
of two such directories shows the moved lines.
"""

import argparse
import hashlib
import math
import os

import numpy as np

from classification_matrix import verdicts
from domination_experiment import experiment
from sure_boundary import families
from sure_boundary import known_variance as kv
from sure_boundary.boundary import construct_dominator
from sure_boundary.core import InputError, ProblemDims, constants
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
from sure_boundary.quadrature import DEFAULT_CONFIG, QuadratureConfig
from sure_boundary.reports import canonical_json, write_text

DIMS = ((3, 3), (5, 6), (8, 4), (20, 20), (41, 10))
KV_P = (3, 5, 8, 20, 41, 300, 400)
A = (-3.0, -2.0, -1.0)
B = (0.0, 0.4, 1.0, 1.7)
W = (1e-3, 0.7, 30.0, 1e4, 1e8)
Z = (0.0, 0.3, 4.0, 50.0, 1e3)
CONFIGS = (DEFAULT_CONFIG, QuadratureConfig(rel_tol=1e-8))

MC_DIMS = ((5, 6), (20, 6), (3, 3))
MC_REPS = (1, 2, 1000, 131_072, 300_001)
MC_MODELS = (Normal(), StudentT(df=10.0))
MC_THREADS = (1, 2, 4)

MATRIX_DIMS = ((5, 6), (3, 3), (12, 19))


def outcome(f, *args):
    try:
        out = f(*args)
    except Exception as exc:  # the message is part of the oracle
        return f"{type(exc).__name__}: {exc}"
    if isinstance(out, tuple):  # a gb table's (edges, nodes, values), or (phi, phi') at w
        digest = hashlib.sha256(out[-2].tobytes() + out[-1].tobytes()).hexdigest()
        return digest if len(out) == 2 else f"{len(out[1])} samples {digest}"
    return repr(out)


def exact_routes():
    for cfg in CONFIGS:
        tag = f"rel_tol={cfg.rel_tol!r}"
        for p, n in DIMS:
            dims = ProblemDims(p, n)
            for a in A:
                for b in B:
                    head = f"{tag} p={p} n={n} a={a} b={b}"
                    yield f"{head} table {outcome(families._gb_samples, a, b, dims, cfg)}"
                    for w in W:
                        vals = [outcome(families.phi_gb_unknown, a, b, w, dims, cfg),
                                outcome(families.phi_gb_unknown_deriv, a, b, w, dims, cfg)]
                        if a == -2.0:
                            vals.append(outcome(families.phi_gb_identity_saigo4, b, w, dims, cfg))
                        yield f"{head} w={w} {' '.join(vals)}"
        for p in KV_P:
            for b in B:
                head = f"{tag} p={p} b={b}"
                for v in W:
                    yield (f"{head} v={v} {outcome(kv.psi_known, b, v, p, cfg)} "
                           f"{outcome(kv.psi_known_via_identity, b, v, p, cfg)}")
                yield f"{head} psi_tail {outcome(kv.psi_tail_fit, b, p, cfg)}"
            for a in A:
                for b in B:
                    prior = kv.PriorSpec(a, kv.LogPow(b) if b else kv.One())
                    head = f"{tag} p={p} a={a} L={kv.encode_l_family(prior.L)}"
                    ms = [outcome(kv.marginal_m, z, prior, p, cfg) for z in Z]
                    yield f"{head} m {' '.join(ms)}"
                    for check in (kv.tauberian_check, kv.gradient_bound_check):
                        yield f"{head} {check.__name__} {outcome(check, prior, p, None, cfg)}"
                    if p <= 41:
                        brown = outcome(kv.brown_integral_numeric, prior, p, 1e6, cfg)
                        yield f"{head} brown {brown}"
    # a grid that is not the default one, with a point per grid check
    z = np.geomspace(2.0, 3e4, 9)
    for L in (kv.One(), kv.LogPow(1.5)):
        prior = kv.PriorSpec(-2.0, L)
        yield f"custom z {outcome(kv.tauberian_check, prior, 5, z)}"
        yield f"custom z {outcome(kv.gradient_bound_check, prior, 5, z)}"
    yield f"custom v {outcome(kv._psi_tail, 1.5, 5, np.geomspace(1.5, 1e9, 11), DEFAULT_CONFIG)}"


def _compiled_gb(a, b, dims, w):
    phi = make_shrinkage(GBUnknown(a=a, b=b), dims)
    return phi.eval(w), phi.deriv(w)


def gb_interpolant():
    x = families._GB_NODES
    logs = [*x, *(0.5 * (x[:-1] + x[1:]))]
    w = np.array([0.0, 1e-12, *(math.exp(xi) for xi in logs), 1e14])
    for p, n in DIMS:
        for a in A:
            for b in B:
                yield f"p={p} n={n} a={a} b={b} {outcome(_compiled_gb, a, b, ProblemDims(p, n), w)}"


def mc_reports():
    for p, n in MC_DIMS:
        dims = ProblemDims(p, n)
        zero = make_shrinkage(Zero(), dims)
        members = {
            "zero": zero,
            "jsplus": make_shrinkage(PositivePartJS(a=constants(dims).c_pn), dims),
            "gb": make_shrinkage(GBUnknown(a=-2.0, b=1.0), dims),
        }
        spec = construct_dominator(zero, dims, 1.5)
        for reps in MC_REPS:
            for model in MC_MODELS:
                label = f"p={p} n={n} reps={reps} {encode_model(model)}"
                try:
                    config = SimConfig(dims=dims, theta_norm=1.0, sigma=1.3, reps=reps,
                                       seed=20240817, model=model)
                except InputError as exc:  # the message is part of the oracle
                    yield f"{label} {type(exc).__name__}: {exc}"
                    continue
                for threads in MC_THREADS:
                    runs = [(name, estimate_risk(phi, config, threads))
                            for name, phi in members.items()]
                    runs.append(("dom", domination_mc(zero, spec, [config], threads)[0]))
                    for name, report in runs:
                        body = canonical_json(report).rstrip("\n")
                        yield f"{label} threads={threads} {name} {body}"
    x, s = sample_all(SimConfig(dims=ProblemDims(5, 6), theta_norm=1.0, reps=1000,
                                seed=3, model=StudentT(df=10.0)))
    yield f"sample_all {hashlib.sha256(x.tobytes() + s.tobytes()).hexdigest()}"


def oracles():
    """(name, text) of each oracle, in the order of the pinned file."""
    yield "exact_routes", "\n".join(exact_routes()) + "\n"
    yield "gb_interpolant", "\n".join(gb_interpolant()) + "\n"
    yield "mc_reports", "\n".join(mc_reports()) + "\n"
    for p, n in MATRIX_DIMS:
        yield f"classification_matrix_p{p}_n{n}", canonical_json(verdicts(ProblemDims(p, n)))
    _, _, files = experiment(ProblemDims(5, 6), "zero", 1.5, 300_000, 20_000, 2024)
    for file, text in files.items():
        yield file.partition(".")[0], text


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, metavar="DIR",
                    help="also write each oracle's text to DIR/<name>.txt")
    args = ap.parse_args()
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    for name, text in oracles():
        if args.out:
            write_text(os.path.join(args.out, f"{name}.txt"), text)
        lines, digest = text.count("\n"), hashlib.sha256(text.encode()).hexdigest()
        print(f"{name} {lines} lines, sha256 {digest}", flush=True)


if __name__ == "__main__":
    main()
