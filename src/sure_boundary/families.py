"""Concrete shrinkage functions, including generalized-Bayes members.

Catalog (text encodings in parentheses):

* ``Zero`` (``zero``): phi = 0, the unshrunk estimator X.
* ``Linear`` (``linear:alpha=0.5``): phi(w) = (1-alpha) w, i.e. delta = alpha X.
* ``PositivePartJS`` (``jsplus:a=0.375``): phi(w) = min(w, a), the positive-part
  James-Stein multiplier.
* ``BoundaryPhi`` (``boundary:b=1.0``): phi(w) = max(0, c_pn - b beta_star /
  log w) above a floor and 0 at and below it, a function sitting exactly on
  the b-scaled critical tail.  The floor is always derived (boundary_floor):
  the zero crossing exp(b beta_star / c_pn), capped at e^2, so phi(0) = 0
  holds (assumption a1); only the tail shape matters to the classification
  theory.
* ``GBUnknown`` (``gb:a=-2,b=1.0``): the generalized Bayes multiplier under the
  scale-mixture prior with mixing density lambda^a (log 1/lambda)^b on (0,1),

      phi_{a,b}(w) = w * N(w) / D(w),
      N(w) = int_0^1 lambda^{p/2+a+1} (log 1/lambda)^b (1+w lambda)^{-(p+n)/2-1} dlambda,
      D(w) = int_0^1 lambda^{p/2+a}   (log 1/lambda)^b (1+w lambda)^{-(p+n)/2-1} dlambda,

  requiring p/2 + a + 1 > 0.  Its limit is (p/2+a+1)/(n/2-a-1); at a = -2 the
  limit equals c_pn and (log w)(c_pn - phi(w)) -> b beta_star, which is the
  critical tail rate.

Two independent quadrature routes exist for the a = -2 member: the defining
ratio above and an integration-by-parts identity

    phi_{-2,b}(w) = c_pn - (2b/(n+2)) * R(w) + boundary term,
    R(w) = int lambda^{p/2-2} L^{b-1} (1+w lambda)^{-(p+n)/2} dlambda /
           int lambda^{p/2-2} L^{b}   (1+w lambda)^{-(p+n)/2-1} dlambda,

where L = log(1/lambda).  For b > 0 the boundary term vanishes; at b = 0 the
integrated-out term leaves (2/(n+2)) (1+w)^{-(p+n)/2} / D(w), which is kept so
the identity reproduces phi exactly for every b >= 0.  Their agreement is a
theorem, asserted in tests to 1e-8 relative.

Derivatives of the generalized Bayes member come from differentiating under
the integral sign (d/dw (1+w l)^{-m} = -m l (1+w l)^{-m-1}), giving a
quotient-rule combination of four integrals; a finite-difference cross-check
is part of the test suite.

``make_shrinkage`` compiles a spec into a vectorized ShrinkageFunction whose
eval and deriv are ndarray bodies lifted by core.elementwise.  The
generalized Bayes member is tabulated once on a dense log-spaced grid and
interpolated with a cubic Hermite spline in log w (linear below the grid,
constant above), which keeps Monte Carlo evaluation cheap; the spline and its
exact derivative are used consistently so SURE identities hold for the
compiled function itself.  Its node values and slopes come from Chebyshev
series of log phi through phi at 32 nodes on each piece of the window (192
to 512 samples a table, not its 508 nodes), so the fit needs no solve and no
scipy; the spline equals scipy's CubicHermiteSpline with those values and
slopes bit for bit, which the tests check.  Every integral above is
quadrature.power_log_integrals with kernel (1 + w lambda)^-m, one kernel
object per m (_gb_kernel), so the integrals that phi, phi' and the a = -2
identity share at one w (N, D, and D again as its denominator) come from
the point memo after their first pass; a table's samples run in batched
passes, equal to phi_gb_unknown bit for bit.  Where D(w), or for the
defining routes N(w), underflows to 0, the routes raise EvaluationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .core import EvaluationError, InputError, ProblemDims, ShrinkageFunction, constants
from .core import elementwise, encode_spec, parse_spec, require_finite, require_grid
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, power_log_integrals

__all__ = [
    "Zero",
    "Linear",
    "PositivePartJS",
    "BoundaryPhi",
    "GBUnknown",
    "PhiSpec",
    "TailProfile",
    "parse_phi_spec",
    "encode_phi_spec",
    "make_shrinkage",
    "phi_gb_unknown",
    "phi_gb_unknown_deriv",
    "phi_gb_identity_saigo4",
    "phi_gb_limit",
    "tail_profile",
]


# ---------------------------------------------------------------------------
# specs and text encoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class Linear:
    alpha: float

    def __post_init__(self) -> None:
        require_finite(self)
        if not 0.0 <= self.alpha <= 1.0:
            raise InputError("linear: alpha must lie in [0, 1]")


@dataclass(frozen=True)
class PositivePartJS:
    a: float

    def __post_init__(self) -> None:
        require_finite(self)
        if not self.a > 0.0:
            raise InputError("jsplus: a must be > 0")


@dataclass(frozen=True)
class BoundaryPhi:
    b: float

    def __post_init__(self) -> None:
        require_finite(self)
        if not self.b > 0.0:
            raise InputError("boundary: b must be > 0")


@dataclass(frozen=True)
class GBUnknown:
    a: float
    b: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        if not self.b >= 0.0:
            raise InputError("gb: b must be >= 0")

    def validate_for(self, dims: ProblemDims) -> None:
        if not dims.p / 2 + self.a + 1 > 0:
            raise InputError(
                f"gb: requires p/2 + a + 1 > 0, got p={dims.p}, a={self.a}"
            )


PhiSpec = Union[Zero, Linear, PositivePartJS, BoundaryPhi, GBUnknown]
_PHI_KINDS = {"zero": Zero, "linear": Linear, "jsplus": PositivePartJS,
              "boundary": BoundaryPhi, "gb": GBUnknown}


def encode_phi_spec(spec: PhiSpec) -> str:
    return encode_spec(spec, _PHI_KINDS)


def parse_phi_spec(text: str) -> PhiSpec:
    return parse_spec(text, _PHI_KINDS)


# ---------------------------------------------------------------------------
# tail profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailProfile:
    """Tail behaviour of a shrinkage function.

    phi_limit is lim phi(w) (math.inf when unbounded); b_hat is the fitted
    coefficient in phi(w) ~ c_pn - b_hat beta_star / log w, defined only when
    phi_limit is finite and close enough to c_pn for the fit to be meaningful;
    fit_quality is the max absolute residual of that fit over the fit window.
    """

    phi_limit: float
    b_hat: float | None = None
    fit_quality: float | None = None


# growth-detection and fit-window knobs for tail_profile
_INF_SLOPE = 0.15
_FIT_B_MAX = 6.0


def tail_profile(
    phi: ShrinkageFunction, dims: ProblemDims, w_grid: np.ndarray
) -> TailProfile:
    """Estimate phi_limit and the critical-tail coefficient b_hat from a grid.

    The grid must pass core.require_grid, span at least [1e3, 1e8], hold
    >= 20 points and >= 2 of them in its top decade.  b_hat is the
    least-squares (constant-model) fit of (log w)(c_pn - phi(w)) ~ b beta_star
    over the top half of the grid in log w; the limit converges at
    O(1/log w) so early points would bias it.
    """
    w = require_grid("w_grid", w_grid)
    if len(w) < 20:
        raise InputError("w_grid must hold at least 20 points")
    if w[0] > 1e3 or w[-1] < 1e8:
        raise InputError("w_grid must span at least [1e3, 1e8]")
    top = w >= w[-1] / 10.0  # the decade whose log-log slope detects growth
    if np.count_nonzero(top) < 2:
        raise InputError("w_grid must hold at least 2 points in its top decade")
    k = constants(dims)
    vals = np.asarray(phi.eval(w), dtype=float)
    if not np.all(np.isfinite(vals)):
        w_bad = float(w[~np.isfinite(vals)][0])
        raise EvaluationError(f"phi non-finite at w={w_bad}", w_bad)

    # unbounded growth: positive log-log slope across the top decade
    if np.all(vals[top] > 0.0):
        slope = np.polyfit(np.log(w[top]), np.log(vals[top]), 1)[0]
    else:
        slope = 0.0
    if slope > _INF_SLOPE and vals[-1] > 2.0 * (1.0 + k.c_pn):
        return TailProfile(phi_limit=math.inf)

    phi_limit = float(vals[-1])
    # b_hat only makes sense when the limit is c_pn at a resolvable rate
    if abs(phi_limit - k.c_pn) > _FIT_B_MAX * k.beta_star / math.log(w[-1]):
        return TailProfile(phi_limit=phi_limit)

    log_w = np.log(w)
    fit = log_w >= 0.5 * (log_w[0] + log_w[-1])
    y = log_w[fit] * (k.c_pn - vals[fit])
    b_hat = float(np.mean(y) / k.beta_star)
    fit_quality = float(np.max(np.abs(y - b_hat * k.beta_star)))
    return TailProfile(phi_limit=phi_limit, b_hat=b_hat, fit_quality=fit_quality)


# ---------------------------------------------------------------------------
# generalized Bayes member: exact quadrature routes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _validate_gb(a: float, b: float, dims: ProblemDims) -> None:
    """GBUnknown(a=a, b=b).validate_for(dims), kept for the inputs that pass."""
    GBUnknown(a=a, b=b).validate_for(dims)


@lru_cache(maxsize=256)
def _gb_kernel(m: float):
    """(1 + w lambda)**-m, one function object per m, so that the point memo
    of power_log_integrals finds the integrals of earlier calls.  m is
    (p + n)/2 + 1 or one more, so a sweep over many (p, n) keeps the last
    256.  It computes in one buffer, so each call allocates one array."""

    def kernel(w, lam):
        base = w * lam
        base += 1.0
        return np.power(base, -m, out=base)

    return kernel


def _gb_num_den(a: float, b: float, w, dims: ProblemDims, cfg: QuadratureConfig):
    """(m, q, N(w), D(w)); raises EvaluationError at the first w where D, then
    at the first w where N, is 0 (phi = w N / D would read 0 there, far below
    its limit)."""
    m = (dims.p + dims.n) / 2 + 1
    q = dims.p / 2 + a
    num, den = power_log_integrals(w, (q + 1.0, q), b, _gb_kernel(m), cfg)
    for what, vals in (("gb: D(w)", den), ("gb: N(w)", num)):
        # a scalar w gives floats, which need no numpy reduction
        if vals == 0.0 if isinstance(vals, float) else not np.all(vals):
            w_zero = np.ravel(w)[np.argmin(np.ravel(vals) != 0.0)].item()
            raise _underflow(a, b, w_zero, dims, what)
    return m, q, num, den


def phi_gb_limit(a: float, dims: ProblemDims) -> float:
    """lim_w phi_{a,L}(w) = (p/2 + a + 1)/(n/2 - a - 1) for slowly varying L."""
    return (dims.p / 2 + a + 1) / (dims.n / 2 - a - 1)


def phi_gb_unknown(
    a: float,
    b: float,
    w: float,
    dims: ProblemDims,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """The generalized Bayes multiplier phi_{a,b}(w) = w N(w)/D(w) (exact route)."""
    _validate_gb(a, b, dims)
    if not 0.0 <= w < math.inf:
        raise InputError(f"w must be finite and >= 0, got {w!r}")
    if w == 0.0:
        return 0.0
    _, _, num, den = _gb_num_den(a, b, w, dims, cfg)
    return w * num / den


def _underflow(
    a: float, b: float, w: float, dims: ProblemDims, what: str = "gb: D(w)"
) -> EvaluationError:
    return EvaluationError(
        f"{what} underflowed to 0 at w={w!r} for (p, n, a, b) = "
        f"({dims.p}, {dims.n}, {a!r}, {b!r})",
        w,
    )


def phi_gb_unknown_deriv(
    a: float,
    b: float,
    w: float,
    dims: ProblemDims,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """d/dw of phi_{a,b} by differentiation under the integral sign."""
    _validate_gb(a, b, dims)
    if not 0.0 < w < math.inf:
        raise InputError(f"derivative route requires finite w > 0, got {w!r}")
    m, q, num, den = _gb_num_den(a, b, w, dims, cfg)
    ints = power_log_integrals(w, (q + 2.0, q + 1.0), b, _gb_kernel(m + 1.0), cfg)
    dnum, dden = (-m * i for i in ints)
    if den**2 == 0.0:
        raise _underflow(a, b, w, dims, "gb derivative route: D(w)**2")
    return num / den + w * (dnum * den - num * dden) / den**2


def phi_gb_identity_saigo4(
    b: float,
    w: float,
    dims: ProblemDims,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Independent integration-by-parts route to phi_{-2,b}(w).

    c_pn - (2b/(n+2)) R(w), minus the lambda = 1 boundary contribution
    (2/(n+2)) (1+w)^{-(p+n)/2} / D(w) which is nonzero only at b = 0.
    """
    _validate_gb(-2.0, b, dims)
    if not 0.0 < w < math.inf:
        raise InputError(f"identity route requires finite w > 0, got {w!r}")
    k = constants(dims)
    m0 = (dims.p + dims.n) / 2
    q = dims.p / 2 - 2.0
    (den,) = power_log_integrals(w, (q,), b, _gb_kernel(m0 + 1.0), cfg)
    if den == 0.0:
        raise _underflow(-2.0, b, w, dims)
    out = k.c_pn
    if b > 0.0:
        (num,) = power_log_integrals(w, (q,), b - 1.0, _gb_kernel(m0), cfg)
        out -= (2.0 * b / (dims.n + 2)) * num / den
    else:
        out -= (2.0 / (dims.n + 2)) * (1.0 + w) ** (-m0) / den
    return out


# ---------------------------------------------------------------------------
# compiled (vectorized) shrinkage functions
# ---------------------------------------------------------------------------

# window of the generalized Bayes table, in log w, and its spline's 508 nodes
_GB_LOG_LO = math.log(1e-9)
_GB_LOG_HI = math.log(1e13)
_GB_STEP = 0.1
_GB_NODES = np.arange(_GB_LOG_LO, _GB_LOG_HI + _GB_STEP / 2, _GB_STEP)
_GB_NODES.flags.writeable = False

# phi is sampled at _CHEB_N first-kind Chebyshev nodes of each piece of the
# window: _GB_PIECES equal pieces, each halved at most _GB_MAX_SPLITS times,
# so a table runs at most _GB_MAX_SPLITS + 1 batched passes
_CHEB_N, _GB_PIECES, _GB_MAX_SPLITS = 32, 4, 4
_CHEB_ANGLES = [math.pi * (_CHEB_N - 0.5 - j) / _CHEB_N for j in range(_CHEB_N)]
_CHEB_T = np.array([math.cos(th) for th in _CHEB_ANGLES])  # ascending in (-1, 1)
# row j: the weights of the sample at _CHEB_T[j] in the series' coefficients
_CHEB_WEIGHTS = np.array([[(2.0 - (k == 0)) / _CHEB_N * math.cos(k * th)
                           for k in range(_CHEB_N)] for th in _CHEB_ANGLES])


def _cheb_coefs(f: np.ndarray) -> np.ndarray:
    """Coefficients (pieces, _CHEB_N) of the Chebyshev series through the rows
    of f at _CHEB_T, summed over j in order (numpy so reduces an axis that is
    not the last), not through BLAS, so that the bits do not depend on the host."""
    return np.add.reduce(f[:, :, None] * _CHEB_WEIGHTS, axis=1)


def _cheb_eval(edges: np.ndarray, c: np.ndarray, at: np.ndarray):
    """The series with coefficients c[i] on [edges[i], edges[i+1]] and its
    derivative at the points `at` within the edges, by Clenshaw's recurrence
    for the sum and, differentiated, for the derivative."""
    i = np.clip(np.searchsorted(edges, at, side="right") - 1, 0, len(edges) - 2)
    c, half = c[i].T, 0.5 * (edges[i + 1] - edges[i])
    t = (at - 0.5 * (edges[i] + edges[i + 1])) / half
    t2, b1, b2, d1, d2 = 2.0 * t, 0.0, 0.0, 0.0, 0.0
    for k in range(_CHEB_N - 1, 0, -1):
        b1, b2, d1, d2 = c[k] + t2 * b1 - b2, b1, 2.0 * b1 + t2 * d1 - d2, d1
    return c[0] + t * b1 - b2, (b1 + t * d1 - d2) / half


def _gb_samples(a: float, b: float, dims: ProblemDims, cfg: QuadratureConfig):
    """Piece edges in log w, and sample nodes x and phi_{a,b} at them, ascending.

    A piece is halved while the largest of the last three coefficients of
    the series of log phi through its samples exceeds the tolerance the
    quadrature stops on.  Each new set of pieces is one batched pass of
    power_log_integrals in ascending w, so the values are
    [phi_gb_unknown(a, b, exp(xi), dims, cfg) for xi in x] exactly, and an
    underflow names the smallest w of its pass where N or D is 0.
    """
    edges = np.linspace(_GB_NODES[0], _GB_NODES[-1], _GB_PIECES + 1)
    lo, hi, kept = edges[:-1], edges[1:], []
    for depth in range(_GB_MAX_SPLITS + 1):
        x = (0.5 * (lo + hi))[:, None] + (0.5 * (hi - lo))[:, None] * _CHEB_T
        w = np.array([math.exp(xi) for xi in x.ravel()])
        _, _, num, den = _gb_num_den(a, b, w, dims, cfg)
        vals = (w * num / den).reshape(x.shape)
        tail = np.abs(_cheb_coefs(np.log(vals))[:, -3:]).max(axis=1)
        split = (tail > cfg.tol) & (depth < _GB_MAX_SPLITS)
        kept += zip(lo[~split], x[~split], vals[~split])
        if not split.any():
            break
        mid = 0.5 * (lo + hi)[split]  # each piece's halves, in ascending order
        lo, hi = np.c_[lo[split], mid].ravel(), np.c_[mid, hi[split]].ravel()
    lo, x, vals = zip(*sorted(kept, key=lambda piece: piece[0]))
    return np.array([*lo, edges[-1]]), np.concatenate(x), np.concatenate(vals)


def _gb_series(a: float, b: float, dims: ProblemDims, cfg: QuadratureConfig):
    """phi_{a,b} and dphi/d(log w) at _GB_NODES, from the series of log phi
    on each piece of _gb_samples.  A piece whose tail still exceeds the
    tolerance at the split bound holds noise, as where N(w) is subnormal near
    the top of the window; its coefficients no larger than the largest of its
    upper half are dropped, so the noise does not reach the slopes."""
    edges, _, vals = _gb_samples(a, b, dims, cfg)
    c = _cheb_coefs(np.log(vals).reshape(-1, _CHEB_N))
    mag = np.abs(c)
    noisy = mag[:, -3:].max(axis=1) > cfg.tol
    noise = np.where(noisy, mag[:, _CHEB_N // 2:].max(axis=1), 0.0)
    f, df = _cheb_eval(edges, np.where(mag > noise[:, None], c, 0.0), _GB_NODES)
    y = np.exp(f)
    return y, y * df


def _hermite(x: np.ndarray, y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Coefficients (4, len(x) - 1) of the cubic through (x, y) with slopes s;
    row k multiplies (x - x[i])**(3 - k) on [x[i], x[i+1]].  The expressions
    are scipy's CubicHermiteSpline(x, y, s), so they equal its ``c`` bit for bit."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


def _gb_spline(c: np.ndarray, nodes: np.ndarray, x):
    """The piecewise polynomial c on the gb grid at x in [nodes[0], nodes[-1]].

    Each x falls in [nodes[i], nodes[i+1]), the top node in the last
    interval, and nan gives nan.  The sum runs as scipy's PPoly runs it,
    0.0 + c[-1], then rising powers of s = x - nodes[i], so a spline from
    _hermite evaluates as CubicHermiteSpline does, bit for bit.
    """
    last = len(nodes) - 2
    # the step locates x to within one interval; fmin/fmax send nan to a
    # valid index, which keeps the cast quiet
    i = np.fmax(np.fmin(np.floor((x - nodes[0]) / _GB_STEP), last), 0.0).astype(np.intp)
    i = i - (x < nodes[i])
    i = np.minimum(i + (x >= nodes[i + 1]), last)
    s = x - nodes[i]
    out, z = 0.0 + c[-1][i], 1.0
    for row in c[-2::-1]:
        z = z * s
        out = out + row[i] * z
    return out


# A table holds about 31 KB; sweeps over many (a, b, p, n) keep at most this many.
_GB_TABLES_KEPT = 64


@lru_cache(maxsize=_GB_TABLES_KEPT)
def _gb_table(a: float, b: float, p: int, n: int, cfg: QuadratureConfig):
    y, s = _gb_series(a, b, ProblemDims(p, n), cfg)
    c = _hermite(_GB_NODES, y, s)
    dc = np.array([3.0, 2.0, 1.0])[:, None] * c[:-1]
    return _GB_NODES, c, dc, float(y[0]), float(y[-1])


def _make_gb(spec: GBUnknown, dims: ProblemDims, cfg: QuadratureConfig) -> ShrinkageFunction:
    spec.validate_for(dims)
    nodes, c, dc, v_lo, v_hi = _gb_table(float(spec.a), float(spec.b), dims.p, dims.n, cfg)
    x_lo, x_hi = float(nodes[0]), float(nodes[-1])
    w_lo = math.exp(x_lo)
    slope0 = v_lo / w_lo  # phi is asymptotically linear at the origin

    @elementwise
    def ev(w):
        x = np.log(np.maximum(w, w_lo))
        out = _gb_spline(c, nodes, np.clip(x, x_lo, x_hi))
        out = np.where(x > x_hi, v_hi, out)
        return np.where(w < w_lo, slope0 * w, out)

    @elementwise
    def dv(w):
        wc = np.maximum(w, w_lo)
        x = np.log(wc)
        out = _gb_spline(dc, nodes, np.clip(x, x_lo, x_hi)) / wc
        out = np.where(x > x_hi, 0.0, out)
        return np.where(w < w_lo, slope0, out)

    limit = phi_gb_limit(spec.a, dims)
    tail = TailProfile(
        phi_limit=limit, b_hat=spec.b if spec.a == -2.0 else None, fit_quality=None
    )
    return ShrinkageFunction(eval=ev, deriv=dv, label=encode_phi_spec(spec), tail=tail)


def boundary_floor(spec: BoundaryPhi, dims: ProblemDims) -> float:
    """The floor of a BoundaryPhi, at and below which phi is 0: the zero
    crossing exp(b beta_star / c_pn) of its tail, capped at e^2.

    The floor is never above the crossing, which is what keeps phi(0) = 0
    (assumption a1); a fixed floor independent of b would not.  The cap is
    taken on the exponent, so a crossing past the float range is e^2 too.
    """
    k = constants(dims)
    return math.exp(min(2.0, spec.b * k.beta_star / k.c_pn))


def make_shrinkage(
    spec: PhiSpec,
    dims: ProblemDims,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> ShrinkageFunction:
    """Compile a PhiSpec into a vectorized, pure ShrinkageFunction."""
    k = constants(dims)
    label = encode_phi_spec(spec)

    if isinstance(spec, Zero):
        return ShrinkageFunction(
            eval=elementwise(np.zeros_like),
            deriv=elementwise(np.zeros_like),
            label=label,
            tail=TailProfile(phi_limit=0.0),
        )

    if isinstance(spec, Linear):
        slope = 1.0 - spec.alpha
        return ShrinkageFunction(
            eval=elementwise(lambda w: slope * w),
            deriv=elementwise(lambda w: np.full_like(w, slope)),
            label=label,
            tail=TailProfile(phi_limit=math.inf if slope > 0.0 else 0.0),
        )

    if isinstance(spec, PositivePartJS):
        a = spec.a
        return ShrinkageFunction(
            eval=elementwise(lambda w: np.minimum(w, a)),
            deriv=elementwise(lambda w: np.where(w < a, 1.0, 0.0)),
            label=label,
            tail=TailProfile(phi_limit=a),
        )

    if isinstance(spec, BoundaryPhi):
        floor = boundary_floor(spec, dims)
        coeff = spec.b * k.beta_star

        # phi vanishes at the floor, the zero crossing; the exp/log round trip
        # alone would leave it at ~1e-17 below the floor.  A floor that rounds
        # to 1 makes log 0 at and below it, where the masks give 0.
        @elementwise
        def ev(w):
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.maximum(0.0, k.c_pn - coeff / np.log(np.maximum(w, floor)))
            return np.where(w <= floor, 0.0, out)

        @elementwise
        def dv(w):
            lw = np.log(np.maximum(w, floor))
            with np.errstate(divide="ignore", invalid="ignore"):
                active = (w > floor) & (k.c_pn - coeff / lw > 0.0)
                slope = coeff / (w * lw**2)
            return np.where(active, slope, 0.0)

        return ShrinkageFunction(
            eval=ev,
            deriv=dv,
            label=label,
            tail=TailProfile(phi_limit=k.c_pn, b_hat=spec.b, fit_quality=None),
        )

    if isinstance(spec, GBUnknown):
        return _make_gb(spec, dims, cfg)

    raise TypeError(f"not a PhiSpec: {spec!r}")
