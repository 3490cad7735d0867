"""Quasi-admissibility classification and constructive domination.

The critical tail is c_pn - beta_star / log w.  With margin m (default 0.05):

* quasi-inadmissible: some b > 1 + m has phi(w) <= c_pn - b beta_star / log w
  at every grid point from a threshold w_star onward (and then an explicit
  dominating perturbation exists);
* quasi-admissible: some b < 1 - m has phi(w) >= c_pn - b beta_star / log w
  likewise, or phi diverges (unbounded phi is quasi-admissible directly);
* otherwise indeterminate.  The margin is a deliberate dead zone: the theory
  is silent exactly at b = 1, and finite grids cannot resolve it.

Since the inequalities are monotone in b, testing at the edge witnesses
b = 1 -/+ margin is sufficient: if the quasi-admissible inequality fails at
b = 1 - margin it fails for every smaller b, and symmetrically.  A verdict
additionally requires the inequality to hold over at least the last two
decades of the grid, so a one-point tail can never decide.  Verdicts,
assumption checks and certificates share one grid, default_w_grid().  One
scan, ``_tail_start``, on its points above w = 1, gives both verdicts and
the construction's threshold w_star; b picks the side (phi at or below the
tail when b > 1, at or above it when b < 1).

The constructive dominator for a quasi-inadmissible phi (with witness b and
finite limit phi_star) is

    g(w) = k(w) {log(w + e)}^{-(1+nu)},
    nu   = min(1, (2 b beta_star - d_n (1 + phi_star)) / (2 d_n (3 + phi_star))),

with k a non-decreasing continuous ramp, zero up to w_sharp.  Here k is fixed
to the clamped linear ramp clip((w - w_sharp)/ramp_width, 0, 1) so that
certificates are reproducible.  w_sharp starts at the verified inequality
threshold and doubles until the risk-difference Delta(w) = D_phi - D_{phi+g}
is nonnegative at every grid point above w_sharp (and exactly zero below,
where g vanishes identically) on default_w_grid(), the grid the certificate
is made on.  Existence is a theorem, but the theory provides no constructive
bound, so the search stops at the top of the grid: from there g vanishes at
every grid point and the certificate would be vacuous.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import InputError, ProblemDims, ShrinkageFunction, constants, d_phi, delta
from .core import elementwise, require_finite, require_grid
from .families import TailProfile

__all__ = [
    "QuasiClass",
    "DominatorSpec",
    "DominationCertificate",
    "AssumptionReport",
    "ConstructionError",
    "MARGIN_DEFAULT",
    "GRID_POINTS_DEFAULT",
    "nu_from_witness",
    "check_assumptions",
    "classify",
    "construct_dominator",
    "dominator_g",
    "verify_domination",
    "default_w_grid",
]

MARGIN_DEFAULT = 0.05
GRID_POINTS_DEFAULT = 800

QUASI_ADMISSIBLE = "QuasiAdmissible"
QUASI_INADMISSIBLE = "QuasiInadmissible"
INDETERMINATE = "Indeterminate"


class ConstructionError(RuntimeError):
    """Dominator construction failed: phi or the witness does not meet its
    preconditions, or no w_sharp below the grid top verifies."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class QuasiClass:
    """Classification verdict; b_witness / w_star present except when indeterminate."""

    variant: str
    b_witness: float | None = None
    w_star: float | None = None
    reason: str | None = None

    @classmethod
    def admissible(cls, b_witness: float, w_star: float) -> "QuasiClass":
        if not b_witness < 1.0:
            raise InputError("quasi-admissible witness requires b < 1")
        if not w_star > 1.0:
            raise InputError("w_star must exceed 1")
        return cls(QUASI_ADMISSIBLE, b_witness=b_witness, w_star=w_star)

    @classmethod
    def inadmissible(cls, b_witness: float, w_star: float) -> "QuasiClass":
        if not b_witness > 1.0:
            raise InputError("quasi-inadmissible witness requires b > 1")
        if not w_star > 1.0:
            raise InputError("w_star must exceed 1")
        return cls(QUASI_INADMISSIBLE, b_witness=b_witness, w_star=w_star)

    @classmethod
    def indeterminate(cls, reason: str) -> "QuasiClass":
        return cls(INDETERMINATE, reason=reason)


@dataclass(frozen=True)
class DominatorSpec:
    """Parameters of the constructed perturbation g (see module docstring)."""

    nu: float
    w_sharp: float
    ramp_width: float
    b: float
    w_star: float

    def __post_init__(self) -> None:
        require_finite(self)
        if not 0.0 < self.nu <= 1.0:
            raise InputError(f"DominatorSpec: nu must lie in (0, 1], got {self.nu!r}")
        if not self.w_sharp >= 0.0:  # g(0) > 0 otherwise
            raise InputError(f"DominatorSpec: w_sharp must be >= 0, got {self.w_sharp!r}")
        if not self.ramp_width > 0.0:
            raise InputError(f"DominatorSpec: ramp_width must be > 0, got {self.ramp_width!r}")
        if not self.b > 1.0:
            raise InputError(f"DominatorSpec: witness b must be > 1, got {self.b!r}")


@dataclass(frozen=True)
class DominationCertificate:
    """Grid evidence for Delta >= 0 above w_sharp and Delta = 0 below."""

    spec: DominatorSpec
    grid: tuple[tuple[float, float], ...]
    min_delta_above_sharp: float
    zero_below_sharp: bool
    verdict: bool

    @property
    def trivial(self) -> bool:
        """True when g vanished on the whole grid (vacuous certificate)."""
        return all(d == 0.0 for _, d in self.grid)


def dominator_g(spec: DominatorSpec) -> ShrinkageFunction:
    """The perturbation g(w) = k(w) {log(w+e)}^{-(1+nu)} as a ShrinkageFunction."""
    nu, w_sharp, width = spec.nu, spec.w_sharp, spec.ramp_width
    expo = 1.0 + nu

    def ramp(w):
        # (w - w_sharp) / width overflows for a tiny width; clipped, inf is 1
        with np.errstate(over="ignore"):
            return np.clip((w - w_sharp) / width, 0.0, 1.0)

    @elementwise
    def ev(w):
        return ramp(w) * np.log(w + math.e) ** (-expo)

    @elementwise
    def dv(w):
        le = np.log(w + math.e)
        k = ramp(w)
        kp = np.where((w > w_sharp) & (w < w_sharp + width), 1.0 / width, 0.0)
        return kp * le ** (-expo) - k * expo * le ** (-expo - 1.0) / (w + math.e)

    return ShrinkageFunction(
        eval=ev,
        deriv=dv,
        label=f"dominator:nu={nu!r},w_sharp={w_sharp!r},ramp_width={width!r}",
        tail=TailProfile(phi_limit=0.0),
    )


def default_w_grid(points: int = GRID_POINTS_DEFAULT) -> np.ndarray:
    """w = 0 followed by a geometric grid of points from 1e-6 to 1e8; the
    default is the grid every verdict and certificate is made on.  Each grid
    is built once per process and is read-only."""
    return _read_only_w_grid(points)


# Cached apart from default_w_grid, which stays a plain function that
# perfbench's tracer can wrap; typed, so a float count still raises in
# np.geomspace when an equal int count is cached.
@functools.lru_cache(maxsize=None, typed=True)
def _read_only_w_grid(points: int) -> np.ndarray:
    grid = np.concatenate([[0.0], np.geomspace(1e-6, 1e8, points)])
    grid.flags.writeable = False
    return grid


def _w_grid(w_grid: np.ndarray | None) -> np.ndarray:
    """default_w_grid(), or w_grid once it passes core.require_grid."""
    return default_w_grid() if w_grid is None else require_grid("w_grid", w_grid)


# ---------------------------------------------------------------------------
# assumption diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssumptionReport:
    """Diagnostics for the regularity assumptions on phi, sampled on
    default_w_grid(), the grid its verdict and certificate are made on.

    a1: phi(0) = 0 and phi >= 0; a2: at most _MAX_EXTREMA sign changes of
    phi'; a3: phi' finite everywhere sampled; a4: values of w phi'(w)/phi(w)
    from w = _TAIL_FROM on inside [-_A4_EPS, 1 + _A4_EPS] (ratio taken as 0
    where phi = 0).  Failures are report entries, never exceptions.
    """

    a1_ok: bool
    a2_ok: bool
    a2_sign_changes: int
    a3_ok: bool
    a4_ok: bool
    a4_ratio_range: tuple[float, float]

    @property
    def all_ok(self) -> bool:
        return self.a1_ok and self.a2_ok and self.a3_ok and self.a4_ok


_MAX_EXTREMA = 12
_A4_EPS = 0.05
_TAIL_FROM = 1e3


def check_assumptions(phi: ShrinkageFunction) -> AssumptionReport:
    """a1-a4 of AssumptionReport for phi on default_w_grid()."""
    grid = default_w_grid()
    vals = np.asarray(phi.eval(grid), dtype=float)
    derivs = np.asarray(phi.deriv(grid), dtype=float)

    a1 = bool(vals[0] == 0.0 and np.all(vals >= 0.0))  # grid[0] == 0
    a3 = bool(np.all(np.isfinite(derivs)))

    # oscillation count: derivative values below the resolution floor are
    # numerical dust (e.g. spline noise where the true slope underflows),
    # not local extrema
    floor = 1e-12 * max(1.0, float(np.max(np.abs(derivs))))
    signs = np.sign(derivs)
    signs = signs[np.abs(derivs) > floor]
    changes = int(np.count_nonzero(np.diff(signs) != 0.0))
    a2 = changes <= _MAX_EXTREMA

    tail = grid >= _TAIL_FROM
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = grid[tail] * derivs[tail] / vals[tail]
    ratios = np.where(vals[tail] == 0.0, 0.0, ratios)  # phi == 0 convention
    lo, hi = float(np.min(ratios)), float(np.max(ratios))
    a4 = bool(np.isfinite(lo) and np.isfinite(hi) and lo >= -_A4_EPS and hi <= 1.0 + _A4_EPS)

    return AssumptionReport(
        a1_ok=a1, a2_ok=a2, a2_sign_changes=changes, a3_ok=a3, a4_ok=a4,
        a4_ratio_range=(lo, hi),
    )


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _phi_limit(phi: ShrinkageFunction) -> float:
    """phi's limit at infinity, from the tail profile its family attached."""
    if phi.tail is None:
        raise InputError(f"{phi.label} has no tail profile to read phi_limit from")
    return phi.tail.phi_limit


def _tail_start(grid: np.ndarray, vals: np.ndarray, dims: ProblemDims, b: float) -> float | None:
    """Smallest grid point from which phi stays on the b side of the critical
    tail c_pn - b beta_star / log w through the end of the grid: at or below
    it when b > 1, at or above it when b < 1.  None unless that stretch
    covers at least the last two decades of the grid.
    """
    grid, vals = grid[grid > 1.0], vals[grid > 1.0]  # the tail needs log w > 0
    k = constants(dims)
    tail = k.c_pn - b * k.beta_star / np.log(grid)
    ok = vals <= tail if b > 1.0 else vals >= tail
    fails = np.flatnonzero(~ok)
    start = fails[-1] + 1 if fails.size else 0
    if start == len(grid) or grid[-1] / grid[start] < 100.0:
        return None
    return float(grid[start])


def classify(
    phi: ShrinkageFunction,
    dims: ProblemDims,
    margin: float = MARGIN_DEFAULT,
    w_grid: np.ndarray | None = None,
) -> QuasiClass:
    """Place phi on the quasi-admissible / quasi-inadmissible side of the
    critical tail, or report Indeterminate inside the margin dead zone.

    It scans the grid's points above w = 1, where log w > 0; a verdict needs
    its inequality over at least the last two decades of the grid.
    """
    if not 0.0 < margin < 1.0:
        raise InputError(f"margin must lie in (0, 1), got {margin!r}")
    if 1.0 + margin == 1.0:  # the witness b = 1 +/- margin must pick a side
        raise InputError(f"margin {margin!r} leaves 1 + margin equal to 1")
    grid = _w_grid(w_grid)
    if not np.any(grid > 1.0):
        raise InputError("w_grid must have a point above 1")
    # unbounded phi shrinks past every critical tail eventually
    unbounded = math.isinf(_phi_limit(phi))
    vals = np.asarray(phi.eval(grid), dtype=float)

    for b in (1.0 - margin,) if unbounded else (1.0 + margin, 1.0 - margin):
        w_star = _tail_start(grid, vals, dims, b)
        if w_star is not None:
            verdict = QuasiClass.inadmissible if b > 1.0 else QuasiClass.admissible
            return verdict(b, w_star)

    if unbounded:
        return QuasiClass.indeterminate(
            "phi unbounded but the admissible-side inequality did not "
            "stabilize on the grid"
        )
    return QuasiClass.indeterminate(
        f"neither tail inequality holds for b outside 1 +/- {margin} "
        f"over the final two decades of the grid"
    )


# ---------------------------------------------------------------------------
# constructive domination
# ---------------------------------------------------------------------------

def nu_from_witness(b: float, phi_star: float, dims: ProblemDims) -> float:
    """nu = min(1, (2 b beta_star - d_n(1+phi_star)) / (2 d_n (3+phi_star)))."""
    k = constants(dims)
    numer = 2.0 * b * k.beta_star - k.d_n * (1.0 + phi_star)
    if numer <= 0.0:
        raise ConstructionError(
            f"witness b={b} too small for phi_star={phi_star}: the exponent "
            "formula requires 2 b beta_star > d_n (1 + phi_star)"
        )
    return min(1.0, numer / (2.0 * k.d_n * (3.0 + phi_star)))


def construct_dominator(
    phi: ShrinkageFunction,
    dims: ProblemDims,
    b: float,
) -> DominatorSpec:
    """Build a perturbation g whose risk-difference certificate verifies.

    Requires 1 < b < inf, a finite tail limit, and the quasi-inadmissible
    inequality to hold with this b on the grid tail.  w_sharp starts at the
    verified threshold and doubles until the certificate on default_w_grid()
    passes (non-vacuously).  It doubles only while some grid point lies
    above it; ConstructionError reports the last w_sharp tried, below the
    grid top 1e8.
    """
    if not 1.0 < b < math.inf:
        raise InputError(f"construction requires a witness 1 < b < inf, got {b!r}")
    phi_star = _phi_limit(phi)
    if math.isinf(phi_star):
        raise ConstructionError("phi_star must be finite to construct a dominator")

    grid = default_w_grid()
    # phi, phi' and D_phi on the grid do not change with w_sharp, so each is
    # evaluated once
    pv = np.asarray(phi.eval(grid), dtype=float)
    w_star = _tail_start(grid, pv, dims, b)
    if w_star is None:
        raise ConstructionError(
            f"the quasi-inadmissible inequality with b={b} does not hold on "
            "the grid tail; classify() first"
        )

    nu = nu_from_witness(b, phi_star, dims)
    dv = phi.deriv(grid)
    kept = ShrinkageFunction(eval=lambda w: pv, deriv=lambda w: dv, label=phi.label)
    d_kept = d_phi(kept, grid, dims)
    w_sharp = w_star
    diag = {}
    while w_sharp < grid[-1]:
        spec = DominatorSpec(nu=nu, w_sharp=w_sharp, ramp_width=w_sharp, b=b, w_star=w_star)
        # delta(phi, g) on the grid, without evaluating phi again
        deltas = d_kept - d_phi(kept.plus(dominator_g(spec)), grid, dims)
        min_above, _, verdict = _delta_signs(spec, grid, deltas)
        if verdict and deltas.any():  # a certificate that is not trivial
            return spec
        diag = {"min_delta_above_sharp": min_above, "last_w_sharp": w_sharp}
        w_sharp *= 2.0
    raise ConstructionError(
        f"no verifying w_sharp below the grid top {grid[-1]:g}", diagnostics=diag
    )


def verify_domination(
    phi: ShrinkageFunction,
    spec: DominatorSpec,
    dims: ProblemDims,
    w_grid: np.ndarray | None = None,
) -> DominationCertificate:
    """Evaluate Delta(w) = D_phi - D_{phi+g} on a grid and certify its sign.

    Below w_sharp g vanishes identically, so Delta must be exactly zero
    there (bit-exact, asserted); the verdict additionally needs
    min Delta >= 0 over the grid points above w_sharp.
    """
    grid = _w_grid(w_grid)
    if len(grid) < 500 or grid.min() > 0.0 or grid.max() < 1e8:
        raise InputError("verification grid must span [0, 1e8] with >= 500 points")
    return _certificate(spec, grid, delta(phi, dominator_g(spec), grid, dims))


def _delta_signs(spec: DominatorSpec, grid: np.ndarray, deltas: np.ndarray):
    """(min Delta above w_sharp, whether Delta is 0 at and below it, verdict):
    the rule by which a certificate verifies, which needs both."""
    below = grid <= spec.w_sharp
    zero_below = bool(np.all(deltas[below] == 0.0))
    above = ~below
    min_above = float(np.min(deltas[above])) if np.any(above) else 0.0
    return min_above, zero_below, zero_below and min_above >= 0.0


def _certificate(spec: DominatorSpec, grid: np.ndarray, deltas) -> DominationCertificate:
    deltas = np.asarray(deltas, dtype=float)
    min_above, zero_below, verdict = _delta_signs(spec, grid, deltas)
    return DominationCertificate(
        spec=spec,
        grid=tuple(zip(grid.tolist(), deltas.tolist())),
        min_delta_above_sharp=min_above,
        zero_below_sharp=zero_below,
        verdict=verdict,
    )
