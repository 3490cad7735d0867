"""Command line front end.

Subcommands: classify, dominate, verify, simulate, sure-check, asymptotics,
known-variance, crosscheck.  Every run emits a single report: JSON by
default, whose "config" block contains the exact key=value pairs needed to
reproduce it, or, for ``simulate --format csv``, one row of the simulation
columns (SIMULATE_CSV_HEADER), which leaves out p, n, phi and rel_tol.
Identical configs produce byte-identical reports.

Start-up loads nothing numerical: the command line is parsed with argparse
alone, so --version, --help and a rejected command line never import numpy.
Each command then imports only the layers it runs.  scipy is needed only by
the Monte Carlo layer (ndtri, gammaincinv), so only simulate and sure-check
load it; known-variance and crosscheck --identity psi load neither families
nor boundary, and crosscheck --identity saigo4 does not load boundary.

Exit status: 0 success, 2 classification came back Indeterminate, 1 runtime
error, a certificate whose verdict is false (the report is still written) or
a crosscheck outside --tol, 64 usage error: a malformed command line, or an
option value the library rejects (core.InputError), which prints one
"sure-boundary: error:" line and no report.  ``SURE_BOUNDARY_THREADS`` caps
worker threads for Monte Carlo leaves, the pieces of numpy's pairwise-sum
tree of a chunk; each leaf samples its own block of the counter-based stream
and the leaf sums are added back up that tree, so the cap never changes
results.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import TYPE_CHECKING, Any, Sequence

from . import __version__

if TYPE_CHECKING:
    from .core import ProblemDims, ShrinkageFunction
    from .montecarlo import SimConfig

USAGE_EXIT = 64

SIMULATE_CSV_HEADER = (
    "theta_norm",
    "sigma",
    "model",
    "reps",
    "seed",
    "mean_loss",
    "se_loss",
    "sure_mean",
    "se_sure",
)


class _NegativeNumber:
    """argparse's test for a token that is a value, not an option, though it
    starts with "-": any such token float() reads.  argparse's own test reads
    only forms like -2 and -2.5, so it would take -2e0 or -inf for an option
    and leave the option before it without a value."""

    @staticmethod
    def match(token: str) -> bool:
        try:
            float(token)
        except ValueError:
            return False
        return token.startswith("-")


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    Indeterminate verdicts and use 64 (EX_USAGE) instead."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NegativeNumber

    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def parse_config_file(path: str) -> list[str]:
    """Expand a key=value file into CLI tokens (key -> --key value)."""
    tokens: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"malformed config line {line!r} in {path}")
            tokens.append("--" + key.strip().replace("_", "-"))
            tokens.append(value.strip())
    return tokens


def _expand_config(argv: list[str]) -> list[str]:
    """Splice the first --config FILE (or --config=FILE) into argv."""
    for i, token in enumerate(argv):
        flag, eq, path = token.partition("=")
        if flag == "--config":
            break
    else:
        return argv
    if i == 0:
        raise ValueError("--config must follow a subcommand")
    if not eq:
        if i + 1 >= len(argv):
            raise ValueError("--config needs a file path")
        path = argv[i + 1]
    tokens = parse_config_file(path)
    # config tokens go right after the subcommand so explicit flags win
    rest = argv[:i] + argv[i + (1 if eq else 2) :]
    return [rest[0]] + tokens + rest[1:]


def _add_common(p: argparse.ArgumentParser, *, dims: bool = True) -> None:
    if dims:
        p.add_argument("--p", "--mean-dim", dest="p", type=int, required=True,
                       help="mean dimension p (>= 3)")
        p.add_argument("--n", "--resid-df", dest="n", type=int, required=True,
                       help="residual degrees of freedom n (>= 3)")
    p.add_argument("--out", "-o", dest="out", default=None, help="report file path")
    p.add_argument("--format", dest="format", default="json", choices=("json", "csv"),
                   help="report format")
    p.add_argument("--config", dest="config", default=None,
                   help="key=value file supplying defaults (flags override)")
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=1e-10,
                   help="quadrature relative tolerance")


def build_parser() -> _Parser:
    parser = _Parser(prog="sure-boundary", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="quasi-admissibility verdict")
    _add_common(p)
    p.add_argument("--phi", required=True, help="shrinkage spec, e.g. zero, gb:a=-2,b=1.0")
    # left unset here; classify fills in boundary.MARGIN_DEFAULT
    p.add_argument("--margin", type=float,
                   help="dead zone half-width around the critical coefficient 1")

    p = sub.add_parser("dominate", help="construct and verify a dominating perturbation")
    _add_common(p)
    p.add_argument("--phi", required=True)
    p.add_argument("--b", "--tail-coeff", dest="b", type=float, required=True,
                   help="quasi-inadmissibility witness (> 1)")

    p = sub.add_parser("verify", help="verify an explicit dominator spec")
    _add_common(p)
    p.add_argument("--phi", required=True)
    p.add_argument("--b", "--tail-coeff", dest="b", type=float, required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--w-sharp", dest="w_sharp", type=float, required=True)
    p.add_argument("--ramp-width", dest="ramp_width", type=float, required=True)
    p.add_argument("--w-star", dest="w_star", type=float, required=True)
    # left unset here; verify fills in boundary.GRID_POINTS_DEFAULT
    p.add_argument("--grid-points", dest="grid_points", type=int)

    p = sub.add_parser("simulate", help="Monte Carlo risk of one configuration")
    _add_common(p)
    p.add_argument("--phi", required=True)
    p.add_argument("--theta-norm", dest="theta_norm", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--reps", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", default="normal", help="normal or student-t:df=5")

    p = sub.add_parser("sure-check", help="SURE unbiasedness z-score (Normal model)")
    _add_common(p)
    p.add_argument("--phi", required=True)
    p.add_argument("--theta-norm", dest="theta_norm", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--reps", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("asymptotics", help="tail profile and critical-coefficient fit")
    _add_common(p)
    p.add_argument("--phi", required=True)
    p.add_argument("--w-lo", dest="w_lo", type=float, default=1e3)
    p.add_argument("--w-hi", dest="w_hi", type=float, default=1e8)
    p.add_argument("--points", type=int, default=48)

    p = sub.add_parser("known-variance", help="known-variance prior analysis")
    _add_common(p, dims=False)
    p.add_argument("--p", "--mean-dim", dest="p", type=int, required=True)
    p.add_argument("--a", "--prior-power", dest="a", type=float, required=True)
    p.add_argument("--L", dest="L", default="one", help="one or logpow:b=1.0")
    p.add_argument("--z-max", dest="z_max", type=float, default=1e8)
    p.add_argument("--r-max", dest="r_max", type=float, default=1e6)

    p = sub.add_parser("crosscheck", help="two-route identity agreement")
    _add_common(p)
    p.add_argument("--identity", required=True, choices=("saigo4", "psi"))
    p.add_argument("--b", "--tail-coeff", dest="b", type=float, required=True)
    p.add_argument("--w", type=float, default=None, help="evaluation point (saigo4)")
    p.add_argument("--v", type=float, default=None, help="evaluation point (psi)")
    p.add_argument("--tol", type=float, default=1e-8)

    return parser


def _problem(args: argparse.Namespace) -> tuple[ProblemDims, ShrinkageFunction]:
    from .core import ProblemDims
    from .families import make_shrinkage, parse_phi_spec
    from .quadrature import QuadratureConfig

    dims = ProblemDims(args.p, args.n)
    return dims, make_shrinkage(parse_phi_spec(args.phi), dims, QuadratureConfig(args.rel_tol))


def _write(args: argparse.Namespace, text: str) -> None:
    if args.out:
        from .reports import write_text

        write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _emit(args: argparse.Namespace, body: dict[str, Any]) -> None:
    """Write the JSON report: body plus the command and the config that
    reproduces the run (every parsed option that is set)."""
    from .reports import canonical_json

    config = {
        key: str(value)  # str of a float is its round-trip repr
        for key, value in vars(args).items()
        if key != "out" and value is not None
    }
    _write(args, canonical_json({"command": args.command, "config": config, **body}))


def _cmd_classify(args) -> int:
    from .boundary import MARGIN_DEFAULT, classify

    if args.margin is None:
        args.margin = MARGIN_DEFAULT
    dims, phi = _problem(args)
    verdict = classify(phi, dims, margin=args.margin)
    _emit(args, {"verdict": verdict, "tail_profile": phi.tail})
    return 2 if verdict.variant == "Indeterminate" else 0


def _cmd_dominate(args) -> int:
    from .boundary import construct_dominator, verify_domination

    dims, phi = _problem(args)
    spec = construct_dominator(phi, dims, args.b)
    cert = verify_domination(phi, spec, dims)
    _emit(args, {"certificate": cert})
    return 0 if cert.verdict else 1


def _cmd_verify(args) -> int:
    from .boundary import GRID_POINTS_DEFAULT, DominatorSpec, default_w_grid, verify_domination

    if args.grid_points is None:
        args.grid_points = GRID_POINTS_DEFAULT
    _require_positive(args, "grid_points")
    dims, phi = _problem(args)
    spec = DominatorSpec(
        nu=args.nu, w_sharp=args.w_sharp, ramp_width=args.ramp_width,
        b=args.b, w_star=args.w_star,
    )
    cert = verify_domination(phi, spec, dims, default_w_grid(points=args.grid_points))
    _emit(args, {"certificate": cert})
    return 0 if cert.verdict else 1


def _sim_config(args, dims: ProblemDims) -> SimConfig:
    from .montecarlo import SimConfig, parse_model

    return SimConfig(
        dims=dims,
        theta_norm=args.theta_norm,
        sigma=args.sigma,
        reps=args.reps,
        seed=args.seed,
        model=parse_model(getattr(args, "model", "normal")),
    )


def _cmd_simulate(args) -> int:
    from .montecarlo import encode_model, estimate_risk
    from .reports import canonical_csv

    dims, phi = _problem(args)
    config = _sim_config(args, dims)
    risk = estimate_risk(phi, config)
    if args.format == "csv":
        row = (
            config.theta_norm, config.sigma, encode_model(config.model),
            config.reps, config.seed, risk.mean_loss, risk.se_loss,
            risk.sure_mean, risk.se_sure,
        )
        _write(args, canonical_csv(SIMULATE_CSV_HEADER, [row]))
    else:
        _emit(args, {"risk": risk})
    return 0


def _cmd_sure_check(args) -> int:
    from .montecarlo import sure_unbiasedness_test

    dims, phi = _problem(args)
    _emit(args, {"check": sure_unbiasedness_test(phi, _sim_config(args, dims))})
    return 0


def _require_positive(args, *dests: str) -> None:
    """Reject a non-finite or non-positive bound or point count of a grid,
    naming its option, before the grid is built."""
    from .core import InputError

    for dest in dests:
        value = getattr(args, dest)
        option = "--" + dest.replace("_", "-")
        if isinstance(value, float) and not math.isfinite(value):
            raise InputError(f"argument {option}: must be finite, got {value!r}")
        if value <= 0.0:
            raise InputError(f"argument {option}: must be positive, got {value!r}")


def _cmd_asymptotics(args) -> int:
    import numpy as np

    from .core import InputError
    from .families import _GB_NODES, GBUnknown, parse_phi_spec, tail_profile

    _require_positive(args, "w_lo", "w_hi", "points")
    w_top = math.exp(_GB_NODES[-1])
    if args.w_hi > w_top and isinstance(parse_phi_spec(args.phi), GBUnknown):
        raise InputError(f"argument --w-hi: a gb table ends at w = {w_top!r}, got {args.w_hi!r}")
    dims, phi = _problem(args)
    grid = np.geomspace(args.w_lo, args.w_hi, args.points)
    _emit(args, {"tail_profile": tail_profile(phi, dims, grid)})
    return 0


def _cmd_known_variance(args) -> int:
    import numpy as np

    from .known_variance import (
        PriorSpec,
        brown_classify,
        brown_integral_numeric,
        encode_l_family,
        gradient_bound_check,
        parse_l_family,
        tauberian_check,
    )
    from .quadrature import QuadratureConfig

    _require_positive(args, "z_max")
    prior = PriorSpec(a=args.a, L=parse_l_family(args.L))
    cfg = QuadratureConfig(args.rel_tol)
    verdict = brown_classify(prior)
    z_grid = np.geomspace(10.0, args.z_max, 15)
    taub = tauberian_check(prior, args.p, z_grid, cfg)
    grad = gradient_bound_check(prior, args.p, z_grid, cfg)
    brown = brown_integral_numeric(prior, args.p, args.r_max, cfg)
    _emit(args, {
        "prior": {"a": prior.a, "L": encode_l_family(prior.L)},
        "verdict": verdict.verdict,
        "boundary": verdict.boundary,
        "tauberian_ratio_final": taub.final_ratio,
        "gradient_limit_target": grad.target,
        "gradient_value_final": grad.final_value,
        "brown_partial_integrals": brown.checkpoints,
        "brown_diverges": brown.diverges,
    })
    return 0


def _cmd_crosscheck(args) -> int:
    from .core import InputError, ProblemDims
    from .quadrature import QuadratureConfig

    if not 0.0 <= args.tol < math.inf:  # also rejects nan
        raise InputError(f"argument --tol: must be finite and >= 0, got {args.tol!r}")
    dims = ProblemDims(args.p, args.n)
    cfg = QuadratureConfig(args.rel_tol)
    if args.identity == "saigo4":
        from .families import phi_gb_identity_saigo4, phi_gb_unknown

        at = [args.w] if args.w is not None else [1.0, 10.0, 1e3, 1e6]
        routes = (lambda w: phi_gb_unknown(-2.0, args.b, w, dims, cfg),
                  lambda w: phi_gb_identity_saigo4(args.b, w, dims, cfg))
    else:
        from .known_variance import psi_known, psi_known_via_identity

        at = [args.v] if args.v is not None else [1.0, 10.0, 100.0]
        routes = (lambda v: psi_known(args.b, v, args.p, cfg),
                  lambda v: psi_known_via_identity(args.b, v, args.p, cfg))
    points = []
    for x in at:
        a_route, b_route = (route(x) for route in routes)
        points.append({"at": x, "route_defining": a_route, "route_identity": b_route,
                       "rel_dev": abs(a_route - b_route) / (1.0 + abs(a_route))})
    max_dev = max(pt["rel_dev"] for pt in points)
    within = max_dev <= args.tol
    _emit(args, {"points": points, "max_rel_dev": max_dev, "tol": args.tol,
                 "within_tol": within})
    return 0 if within else 1


_COMMANDS = {
    "classify": _cmd_classify,
    "dominate": _cmd_dominate,
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
    "sure-check": _cmd_sure_check,
    "asymptotics": _cmd_asymptotics,
    "known-variance": _cmd_known_variance,
    "crosscheck": _cmd_crosscheck,
}


def _unused_option(args: argparse.Namespace) -> str | None:
    """Usage error for an option the command accepts but would not use."""
    if args.config is not None:  # a second or abbreviated --config is never read
        return f"--config {args.config} would not be read: give one --config FILE in full"
    if args.format == "csv" and args.command != "simulate":
        return f"--format csv applies only to simulate, not {args.command}"
    other = {"saigo4": "v", "psi": "w"}.get(getattr(args, "identity", None))
    if other and getattr(args, other) is not None:
        return f"--{other} does not apply to --identity {args.identity}"
    return None


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _expand_config(argv)
    except (OSError, ValueError) as exc:
        print(f"sure-boundary: config error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    args = parser.parse_args(argv)
    unused = _unused_option(args)
    if unused:
        parser.error(unused)
    from .core import InputError  # parsed: from here on a command loads numpy

    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        raise
    except InputError as exc:  # a rejected option value is a usage error
        print(f"sure-boundary: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except Exception as exc:  # noqa: BLE001 - CLI boundary maps errors to status 1
        print(f"sure-boundary: error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
