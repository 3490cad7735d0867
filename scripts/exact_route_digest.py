#!/usr/bin/env python3
"""SHA-256 digest of a fixed grid of exact quadrature-route outputs.

Covers the gb spline-table values, the gb, saigo4 and derivative routes,
psi_known and its identity route, marginal_m, and the Tauberian, gradient,
Brown and psi-tail reports, at (p, n) in {(3, 3), (5, 6), (8, 4), (20, 20),
(41, 10)}, b in {0, 0.4, 1, 1.7}, a in {-3, -2, -1}, the default and a looser
rel_tol, plus the known-variance checks at p = 300 and 400.  Errors are
recorded as their type and message, so a refactor of the quadrature routes
that keeps every value and every error message leaves the digest unchanged.
Pass --out PATH to keep the lines themselves for a diff.
"""

import argparse
import hashlib

import numpy as np

from sure_boundary import families
from sure_boundary import known_variance as kv
from sure_boundary.core import ProblemDims
from sure_boundary.quadrature import DEFAULT_CONFIG, QuadratureConfig
from sure_boundary.reports import write_text

DIMS = ((3, 3), (5, 6), (8, 4), (20, 20), (41, 10))
KV_P = (3, 5, 8, 20, 41, 300, 400)
A = (-3.0, -2.0, -1.0)
B = (0.0, 0.4, 1.0, 1.7)
W = (1e-3, 0.7, 30.0, 1e4, 1e8)
Z = (0.0, 0.3, 4.0, 50.0, 1e3)
CONFIGS = (DEFAULT_CONFIG, QuadratureConfig(rel_tol=1e-8))


def outcome(f, *args):
    try:
        out = f(*args)
    except Exception as exc:  # the message is part of what is digested
        return f"{type(exc).__name__}: {exc}"
    if isinstance(out, tuple):  # the gb table: (log-w grid, values)
        return hashlib.sha256(out[0].tobytes() + out[1].tobytes()).hexdigest()
    return repr(out)


def lines():
    for cfg in CONFIGS:
        tag = f"rel_tol={cfg.rel_tol!r}"
        for p, n in DIMS:
            dims = ProblemDims(p, n)
            for a in A:
                for b in B:
                    head = f"{tag} p={p} n={n} a={a} b={b}"
                    yield f"{head} table {outcome(families._gb_grid_values, a, b, dims, cfg)}"
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


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="also write the lines to this path")
    args = ap.parse_args()
    text = "\n".join(lines()) + "\n"
    if args.out:
        write_text(args.out, text)
    print(f"{text.count(chr(10))} lines, sha256 {hashlib.sha256(text.encode()).hexdigest()}")


if __name__ == "__main__":
    main()
