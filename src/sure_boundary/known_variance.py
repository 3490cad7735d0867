"""Known-variance companion: priors, marginals, limits, and admissibility.

For Z ~ N_p(mu, I_p) under quadratic loss, consider spherical priors whose
mixing density on the shrinkage scale lambda in (0, 1) is

    lambda^a L(1/lambda),      p/2 + a + 1 > 0,

with L slowly varying; numerically this module supports L = 1 (``One``) and
L(y) = (log y)^b (``LogPow``).  The induced marginal density of ||z|| is the
Laplace-type integral

    m(||z||; a, L) = int_0^1 exp(-lambda ||z||^2 / 2) lambda^{p/2+a} L(1/lambda) dlambda,

whose large-||z|| behaviour follows from a Tauberian argument:

    m ~ Gamma(p/2+a+1) (2/||z||^2)^{p/2+a+1} L(||z||^2).

Admissibility of the generalized Bayes estimator is governed by the Brown
integral int_1^inf dr / (r^{p-1} m(r)); via the Tauberian form it reduces to
int_1^inf r^{2a+3} / L(r^2) dr, so divergence (admissible) versus convergence
(inadmissible) is decided symbolically by (a, b):

    a > -2            -> admissible      (integrand ~ r^{2a+3}, 2a+3 > -1)
    a < -2            -> inadmissible
    a = -2, b <= 1    -> admissible      (int dr / (r (log r)^b) diverges)
    a = -2, b  > 1    -> inadmissible

b = 1 lies exactly on the dichotomy and is tagged boundary.  Classification
is symbolic because convergence of an improper integral is not decidable by
finite quadrature; ``brown_integral_numeric`` provides the numeric growth
cross-check (partial integrals at geometric checkpoints plus a log-log slope
of the last two decade increments).

The shrinkage factor of the boundary-family estimator is

    psi_b(v) = v * int lambda^{p/2-1} (log 1/lambda)^b e^{-v lambda/2} dlambda
                 / int lambda^{p/2-2} (log 1/lambda)^b e^{-v lambda/2} dlambda,

with the integration-by-parts identity (kept exact at b = 0 via the boundary
term, which the b > 0 case kills):

    psi_b(v) = p - 2 - 2b * int lambda^{p/2-2} (log 1/lambda)^{b-1} e^{-v lambda/2}
               / int lambda^{p/2-2} (log 1/lambda)^b e^{-v lambda/2}
               (- 2 e^{-v/2} / denominator at b = 0),

and the tail limit (log v)(p - 2 - psi_b(v)) -> 2b, the known-variance twin
of the unknown-scale critical tail.

Every integral above is quadrature.power_log_integrals with one kernel object
exp(-c lambda), so psi_known_via_identity takes the denominator J_b(v) that
psi_known integrated at the same v from the point memo; a grid check, and
the Brown integral over all its decades, integrates all its points in one
batched pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .core import EvaluationError, InputError, encode_spec, parse_spec
from .core import require_finite, require_grid
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, power_log_integrals

__all__ = [
    "One",
    "LogPow",
    "LFamily",
    "PriorSpec",
    "AdmissClass",
    "TauberianReport",
    "GradientBoundReport",
    "PsiTailReport",
    "BrownIntegralReport",
    "marginal_m",
    "tauberian_check",
    "gradient_bound_check",
    "brown_classify",
    "psi_known",
    "psi_known_via_identity",
    "psi_tail_fit",
    "brown_integral_numeric",
    "parse_l_family",
    "encode_l_family",
]


@dataclass(frozen=True)
class One:
    """L identically 1."""


@dataclass(frozen=True)
class LogPow:
    """L(y) = (log y)^b with b > 0."""

    b: float

    def __post_init__(self) -> None:
        require_finite(self)
        if not self.b > 0.0:
            raise InputError("LogPow requires b > 0")


LFamily = Union[One, LogPow]
_L_KINDS = {"one": One, "logpow": LogPow}


def parse_l_family(text: str) -> LFamily:
    return parse_spec(text, _L_KINDS)


def encode_l_family(L: LFamily) -> str:
    return encode_spec(L, _L_KINDS)


@dataclass(frozen=True)
class PriorSpec:
    """Mixing density lambda^a L(1/lambda) on (0, 1)."""

    a: float
    L: LFamily = One()

    def __post_init__(self) -> None:
        require_finite(self)

    def validate_for(self, p: int) -> None:
        if not p / 2 + self.a + 1 > 0:
            raise InputError(f"prior requires p/2 + a + 1 > 0, got p={p}, a={self.a}")

    @property
    def log_power(self) -> float:
        return self.L.b if isinstance(self.L, LogPow) else 0.0


@dataclass(frozen=True)
class AdmissClass:
    """Known-variance verdict; boundary marks the b = 1 edge of the dichotomy."""

    verdict: str  # "admissible" | "inadmissible"
    boundary: bool = False


def _exp_kernel(c, lam):
    """exp(-c lambda); one function object, so that the point memo of
    power_log_integrals finds the integrals of earlier calls.  It computes
    in one buffer, so each call allocates one array."""
    out = -c * lam
    return np.exp(out, out=out)


def _squares(z: np.ndarray) -> np.ndarray:
    """zi**2 rounded as the single-point routes round it (pow, not z*z).
    A square past the float range is inf, without numpy's overflow warning:
    its marginal underflows to 0, which the caller reports."""
    with np.errstate(over="ignore"):
        return np.array([zi**2 for zi in z])


def _marginals(z: np.ndarray, prior: PriorSpec, p: int, cfg: QuadratureConfig) -> np.ndarray:
    """m(z) at every ||z|| of the grid z; zeros are left to the caller."""
    return power_log_integrals(_squares(z) / 2.0, (p / 2 + prior.a,), prior.log_power,
                               _exp_kernel, cfg)[0]


def marginal_m(
    z_norm: float,
    prior: PriorSpec,
    p: int,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Marginal density integral m(z; a, L) for ||z|| = z_norm >= 0."""
    prior.validate_for(p)
    if not 0.0 <= z_norm < math.inf:
        raise InputError(f"z_norm must be finite and >= 0, got {z_norm!r}")
    (m,) = power_log_integrals(z_norm**2 / 2.0, (p / 2 + prior.a,), prior.log_power,
                               _exp_kernel, cfg)
    if m == 0.0:
        raise _range_error("m(z) underflowed to 0", z_norm, prior, p)
    return m


def _range_error(what: str, z: float, prior: PriorSpec, p: int) -> EvaluationError:
    return EvaluationError(
        f"known-variance: {what} at z={float(z)!r} for (p, a, L) = "
        f"({p}, {prior.a!r}, {encode_l_family(prior.L)})",
        z,
    )


def _tauberian_ratio(z: float, m: float, prior: PriorSpec, p: int) -> float:
    if m == 0.0:
        raise _range_error("m(z) underflowed to 0", z, prior, p)
    s1 = p / 2 + prior.a + 1.0
    try:
        out = math.gamma(s1) * (2.0 / z**2) ** s1
    except OverflowError:
        raise _range_error("the Tauberian form of m(z) overflowed", z, prior, p) from None
    if out == 0.0:
        raise _range_error("the Tauberian form of m(z) underflowed to 0", z, prior, p)
    if isinstance(prior.L, LogPow):
        out *= math.log(z**2) ** prior.L.b
    return m / out


def _z_grid(z_grid: np.ndarray | None) -> np.ndarray:
    """The default z grid, or z_grid once it passes core.require_grid, is >= 0
    and reaches 1e4."""
    z = np.geomspace(10.0, 1e8, 15) if z_grid is None else require_grid("z_grid", z_grid)
    if z[0] < 0.0 or z[-1] < 1e4:
        raise InputError("z_grid must hold norms >= 0 and reach at least 1e4")
    return z


@dataclass(frozen=True)
class TauberianReport:
    z_grid: tuple[float, ...]
    ratios: tuple[float, ...]
    final_ratio: float
    monotone_trend: bool


def tauberian_check(
    prior: PriorSpec,
    p: int,
    z_grid: np.ndarray | None = None,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> TauberianReport:
    """Ratio of m to its Tauberian form along an ascending z grid (into >= 1e4).

    The form needs z > 1, where (2/z^2)^s and L(z^2) = (log z^2)^b are
    positive and finite; a grid with a norm <= 1 raises InputError naming
    the first.  The trend flag records whether |ratio - 1| is non-increasing
    over the top decade of the grid.
    """
    prior.validate_for(p)
    z = _z_grid(z_grid)
    if z[0] <= 1.0:
        raise InputError(f"z_grid of the Tauberian form must hold norms > 1, got {float(z[0])!r}")
    ratios = np.array([  # point by point, so faults are raised in grid order
        _tauberian_ratio(zi, mi, prior, p) for zi, mi in zip(z, _marginals(z, prior, p, cfg))
    ])
    top = z >= z[-1] / 10.0
    gaps = np.abs(ratios[top] - 1.0)
    monotone = bool(np.all(np.diff(gaps) <= 1e-12)) if gaps.size > 1 else True
    return TauberianReport(
        z_grid=tuple(z.tolist()),
        ratios=tuple(ratios.tolist()),
        final_ratio=float(ratios[-1]),
        monotone_trend=monotone,
    )


@dataclass(frozen=True)
class GradientBoundReport:
    z_grid: tuple[float, ...]
    values: tuple[float, ...]
    final_value: float
    target: float


def gradient_bound_check(
    prior: PriorSpec,
    p: int,
    z_grid: np.ndarray | None = None,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> GradientBoundReport:
    """||z||^2 times the posterior-mean integral ratio, converging to p+2a+2.

    The quantity is ||z|| times the log-marginal gradient norm; its limit
    p + 2a + 2 is what makes the Brown condition applicable.
    """
    prior.validate_for(p)
    z = _z_grid(z_grid)
    q = p / 2 + prior.a
    z2 = _squares(z)
    num, den = power_log_integrals(z2 / 2.0, (q + 1.0, q), prior.log_power, _exp_kernel, cfg)
    under = (num == 0.0) | (den == 0.0)
    if under.any():
        raise _range_error("a marginal integral underflowed to 0", z[np.argmax(under)], prior, p)
    values = z2 * num / den
    return GradientBoundReport(
        z_grid=tuple(z.tolist()),
        values=tuple(values.tolist()),
        final_value=float(values[-1]),
        target=float(p + 2 * prior.a + 2),
    )


def brown_classify(prior: PriorSpec) -> AdmissClass:
    """Symbolic admissibility verdict from the reduced Brown integral.

    Note: divergence of the integral corresponds to admissibility.  For
    a = -2 the verdict follows the int dr/(r (log r)^b) dichotomy; b = 1 is
    reported admissible but tagged boundary.
    """
    a = prior.a
    if a > -2.0:
        return AdmissClass("admissible")
    if a < -2.0:
        return AdmissClass("inadmissible")
    if isinstance(prior.L, One):
        return AdmissClass("admissible")
    b = prior.L.b
    if b < 1.0:
        return AdmissClass("admissible")
    if b == 1.0:
        return AdmissClass("admissible", boundary=True)
    return AdmissClass("inadmissible")


def _j_underflow(route: str, v: float, p: int, b: float) -> EvaluationError:
    v = float(v)
    return EvaluationError(
        f"{route}: J_b(v) underflowed to 0 at v={v!r} for (p, b) = ({p}, {b!r})", v
    )


def _check_psi(b: float, p: int, *v: float) -> None:
    """The check of every psi route: b and each point v finite and >= 0, and p >= 3."""
    if not (0.0 <= b < math.inf and p >= 3 and all(0.0 <= x < math.inf for x in v)):
        raise InputError(f"psi needs finite b, v >= 0 and p >= 3, got b={b!r}, "
                         f"v={', '.join(map(repr, v))}, p={p!r}")


def psi_known(
    b: float, v: float, p: int, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """The boundary-family shrinkage factor psi_b(v) (defining ratio route)."""
    _check_psi(b, p, v)
    if v == 0.0:
        return 0.0
    num, den = power_log_integrals(v / 2.0, (p / 2 - 1.0, p / 2 - 2.0), b, _exp_kernel, cfg)
    if den == 0.0:
        raise _j_underflow("psi_known", v, p, b)
    return v * num / den


def psi_known_via_identity(
    b: float, v: float, p: int, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """Integration-by-parts route: p - 2 - 2b J_{b-1}(v)/J_b(v).

    At b = 0 the integrated-out lambda = 1 term survives and contributes
    -2 e^{-v/2} / J_0(v); for b > 0 it vanishes.
    """
    _check_psi(b, p, v)
    if v == 0.0:
        return 0.0
    c = v / 2.0
    (den,) = power_log_integrals(c, (p / 2 - 2.0,), b, _exp_kernel, cfg)
    if den == 0.0:
        raise _j_underflow("psi_known_via_identity", v, p, b)
    out = p - 2.0
    if b > 0.0:
        (num,) = power_log_integrals(c, (p / 2 - 2.0,), b - 1.0, _exp_kernel, cfg)
        out -= 2.0 * b * num / den
    else:
        out -= 2.0 * math.exp(-c) / den
    return out


@dataclass(frozen=True)
class PsiTailReport:
    v_grid: tuple[float, ...]
    scaled_gaps: tuple[float, ...]  # (log v)(p - 2 - psi_b(v))
    limit_estimate: float
    target: float  # 2b


def psi_tail_fit(
    b: float, p: int, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> PsiTailReport:
    """Fit the limit of (log v)(p - 2 - psi_b(v)) over the top half of v in [1e3, 1e8]."""
    return _psi_tail(b, p, np.geomspace(1e3, 1e8, 24), cfg)


def _psi_tail(b: float, p: int, v: np.ndarray, cfg: QuadratureConfig) -> PsiTailReport:
    """psi_tail_fit on the ascending grid v > 1."""
    _check_psi(b, p, *v.tolist())
    num, den = power_log_integrals(v / 2.0, (p / 2 - 1.0, p / 2 - 2.0), b, _exp_kernel, cfg)
    if not np.all(den):
        raise _j_underflow("psi_tail_fit", v[np.argmin(den != 0.0)], p, b)
    gaps = np.array([math.log(vi) * (p - 2.0 - si) for vi, si in zip(v, v * num / den)])
    log_v = np.log(v)
    fit = log_v >= 0.5 * (log_v[0] + log_v[-1])
    return PsiTailReport(
        v_grid=tuple(v.tolist()),
        scaled_gaps=tuple(gaps.tolist()),
        limit_estimate=float(np.mean(gaps[fit])),
        target=2.0 * b,
    )


@dataclass(frozen=True)
class BrownIntegralReport:
    checkpoints: tuple[tuple[float, float], ...]  # (r, partial integral to r)
    decade_increments: tuple[float, ...]
    slope_last: float
    diverges: bool


@lru_cache(maxsize=None)
def _gauss_legendre_24() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 24-point Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(24)


# log10 of the increment ratio separating growth from decay; the a = -2,
# b = 1 boundary prior sits on the convergent side of this cut at finite r
# (its increments decay like 1/log r), which is exactly the case the
# symbolic classifier owns.
_SLOPE_DIVERGENCE_CUT = -0.05


def brown_integral_numeric(
    prior: PriorSpec,
    p: int,
    r_max: float = 1e6,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> BrownIntegralReport:
    """Partial Brown integrals int_1^R dr/(r^{p-1} m(r)) at decade checkpoints.

    The checkpoints are R = 10, 100, ... up to the largest power of ten that
    does not exceed r_max.  Each decade is a 24-point Gauss-Legendre panel
    in log r; the marginals at the nodes of all decades come from one
    batched pass, and an underflow names the smallest r where m is 0.  The
    slope is log10 of the ratio of the last two decade increments:
    nonnegative (up to the documented cut) indicates divergence, i.e. the
    admissible direction.
    """
    prior.validate_for(p)
    if not math.isfinite(r_max):
        raise InputError(f"r_max must be finite, got {r_max!r}")
    if r_max < 1e3:
        raise InputError("r_max must be >= 1e3")
    decades = math.floor(math.log10(r_max))
    if 10.0**decades > r_max:  # log10 rounds up just below a power of ten
        decades -= 1

    # the 24-point Gauss-Legendre rule on each decade [d, d + 1] in log r;
    # the nodes of all decades, ascending, take one batched pass
    x, weights = _gauss_legendre_24()
    panels = [(0.5 * (lo + hi), 0.5 * (hi - lo))
              for lo, hi in ((d * math.log(10.0), (d + 1) * math.log(10.0))
                             for d in range(decades))]
    u = np.concatenate([mid + half * x for mid, half in panels])
    r = np.exp(u)
    m = _marginals(r, prior, p, cfg)
    if not np.all(m):
        raise _range_error("m(z) underflowed to 0", r[np.argmin(m != 0.0)], prior, p)
    values = np.exp(u * (2.0 - p)) / m

    checkpoints: list[tuple[float, float]] = []
    increments: list[float] = []
    total = 0.0
    for d, (_, half) in enumerate(panels):
        inc = float(half * np.sum(weights * values[d * x.size:(d + 1) * x.size]))
        increments.append(inc)
        total += inc
        checkpoints.append((10.0 ** (d + 1), total))
    for d in (decades - 2, decades - 1):  # a zero increment would fail the slope's log10
        if increments[d] == 0.0:
            what = "the Brown integrand r^(2-p)/m(r) underflowed to 0 over the decade starting"
            raise _range_error(what, 10.0**d, prior, p)
    slope = math.log10(increments[-1] / increments[-2])
    return BrownIntegralReport(
        checkpoints=tuple(checkpoints),
        decade_increments=tuple(increments),
        slope_last=slope,
        diverges=slope >= _SLOPE_DIVERGENCE_CUT,
    )
