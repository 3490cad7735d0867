"""Problem dimensions and the exact unbiased-risk (SURE) formulas.

Model and conventions
---------------------
Observations X ~ N_p(theta, sigma^2 I_p) and S ~ sigma^2 chi^2_n are
independent, with p >= 3 and n >= 3, and both theta and sigma^2 unknown.
Estimators of theta take the shrinkage form

    delta_phi(X, S) = (1 - phi(W)/W) X,      W = ||X||^2 / S,

and incur scaled quadratic loss ||d - theta||^2 / sigma^2.  For absolutely
continuous phi with finite component expectations, the statistic

    p + (n+2) D_phi(W)

is an unbiased estimate of the risk, where

    D_phi(w) = {phi(w) - 2 c_pn} phi(w) / w - d_n phi'(w) {1 + phi(w)},
    c_pn = (p-2)/(n+2),   d_n = 4/(n+2).

The unbiased estimate of the risk *difference* between delta_phi and
delta_{phi+g} is (n+2) Delta(w) with

    Delta(w; phi, g) = D_phi(w) - D_{phi+g}(w)
                     = g(w) {Delta1(w; phi) + Delta2(w; phi, g)},
    Delta1(w; phi)   = 2 (c_pn - phi(w))/w + d_n phi'(w),
    Delta2(w; phi,g) = -g(w)/w + d_n g'(w) + d_n (g'(w)/g(w)) {1 + phi(w)}.

Delta2 needs g(w) != 0; Delta itself does not, so ``delta`` is always computed
as the difference of two D_phi evaluations and never divides by g.  The
factored form serves only as a test oracle (tests/oracles.py).

The sharp-boundary constant used throughout classification is

    beta_star = d_n (1 + c_pn) / 2 = 2 (p+n) / (n+2)^2.

Edge convention at w = 0: when phi(0) = 0 and phi' is right-continuous at 0,
the phi(w)^2/w term vanishes in the limit and D_phi(0) = -d_n phi'(0+).  That
continuous extension is a choice of this library (the formulas above are
stated for w > 0); inputs with phi(0) != 0 are rejected at w = 0.

All operations are pure functions of their arguments and accept either a
scalar w or an ndarray of w values.

Text specs
----------
Shrinkage functions, known-variance L families and sampling models reach
the CLI as ``head`` or ``head:key=value,...`` (``gb:a=-2,b=1.0``,
``logpow:b=1.0``, ``student-t:df=5``).  ``parse_spec`` and ``encode_spec``
are the one grammar for all of them: the head picks a frozen dataclass, its
fields are the keys, and a field with a default may be left out.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .families import TailProfile

__all__ = [
    "ProblemDims",
    "Constants",
    "ShrinkageFunction",
    "EvaluationError",
    "InputError",
    "constants",
    "elementwise",
    "parse_spec",
    "encode_spec",
    "d_phi",
    "delta",
]

ArrayLike = Union[float, np.ndarray]


class InputError(ValueError):
    """An argument value the library rejects (dimensions, a spec, a grid, a point,
    a tolerance or a simulation setting): a usage error, not a numerical failure."""


class EvaluationError(ValueError):
    """A shrinkage function (or its derivative) was non-finite at some w."""

    def __init__(self, message: str, w: float):
        super().__init__(message)
        self.w = w


@dataclass(frozen=True)
class ProblemDims:
    """Mean dimension p and residual degrees of freedom n (both >= 3)."""

    p: int
    n: int

    def __post_init__(self) -> None:
        require_finite(self)
        if int(self.p) != self.p or int(self.n) != self.n:
            raise InputError("p and n must be integers")
        if self.p < 3 or self.n < 3:
            raise InputError(f"require p >= 3 and n >= 3, got p={self.p}, n={self.n}")


@lru_cache(maxsize=None)
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def require_finite(spec: Any) -> None:
    """Raise InputError naming the first numeric field of spec that is not
    finite; each spec dataclass calls this first in ``__post_init__``."""
    for name in _field_names(type(spec)):
        value = getattr(spec, name)
        # an int is always finite (and may be too large for math.isfinite)
        if isinstance(value, float) and not math.isfinite(value):
            raise InputError(f"{type(spec).__name__}: non-finite parameter {name!r} = {value!r}")


def require_grid(name: str, grid: ArrayLike) -> np.ndarray:
    """grid as a float array if it is 1-d, non-empty, finite and strictly ascending,
    else InputError naming its first non-finite value; callers check the span."""
    g = np.asarray(grid, dtype=float)
    bad = g[~np.isfinite(g)]
    if g.ndim == 1 and bad.size:
        raise InputError(f"{name} must be finite, got {float(bad[0])!r}")
    if g.ndim != 1 or not g.size or np.any(np.diff(g) <= 0):
        raise InputError(f"{name} must be 1-d, finite and strictly ascending")
    return g


def parse_spec(text: str, kinds: Mapping[str, type]) -> Any:
    """kinds[head](**params) for ``head`` or ``head:key=value,...``.

    Every value is a float.  An unknown head, and an unknown, repeated or
    missing parameter, raise InputError naming it; the dataclass itself
    rejects a non-finite one (see require_finite).
    """
    head, _, rest = text.strip().partition(":")
    if head not in kinds:
        raise InputError(f"unknown spec {head!r} in {text!r}; expected one of {', '.join(kinds)}")
    defaults = {f.name: f.default for f in fields(kinds[head])}
    params: dict[str, float] = {}
    for item in rest.split(",") if rest else ():
        key, _, value = (part.strip() for part in item.partition("="))
        if not key or not value:
            raise InputError(f"malformed parameter {item!r} in spec {text!r}")
        if key not in defaults:
            raise InputError(f"spec {text!r} has unknown parameter {key!r}")
        if key in params:
            raise InputError(f"spec {text!r} repeats parameter {key!r}")
        try:
            params[key] = float(value)
        except ValueError:
            raise InputError(f"spec {text!r} has non-numeric parameter {key!r}") from None
    for key, default in defaults.items():
        if key not in params and default is MISSING:
            raise InputError(f"spec {text!r} is missing parameter {key!r}")
    return kinds[head](**params)


def encode_spec(spec: Any, kinds: Mapping[str, type]) -> str:
    """Canonical text of spec; parse_spec(encode_spec(s, kinds), kinds) == s.

    Every field is written as name=repr(float(value)).
    """
    head = next((h for h, kind in kinds.items() if type(spec) is kind), None)
    if head is None:
        raise TypeError(f"not one of {', '.join(kinds)}: {spec!r}")
    params = ",".join(f"{f.name}={float(getattr(spec, f.name))!r}" for f in fields(spec))
    return f"{head}:{params}" if params else head


@dataclass(frozen=True)
class Constants:
    """Derived constants c_pn = (p-2)/(n+2), d_n = 4/(n+2), beta_star."""

    c_pn: float
    d_n: float
    beta_star: float


@lru_cache(maxsize=None)
def constants(dims: ProblemDims) -> Constants:
    """Evaluate the closed forms; beta_star = d_n (1 + c_pn)/2 = 2(p+n)/(n+2)^2."""
    c = (dims.p - 2) / (dims.n + 2)
    d = 4.0 / (dims.n + 2)
    return Constants(c_pn=c, d_n=d, beta_star=0.5 * d * (1.0 + c))


@dataclass(frozen=True)
class ShrinkageFunction:
    """An evaluatable shrinkage multiplier phi with derivative and tail hints.

    ``eval`` and ``deriv`` must be pure and accept scalar or ndarray w >= 0:
    a scalar w gives a float, an array gives an array.  ``elementwise``
    lifts a body written for a float ndarray to that convention.  Instances
    are immutable and safe to share across threads.
    """

    eval: Callable[[ArrayLike], ArrayLike]
    deriv: Callable[[ArrayLike], ArrayLike]
    label: str
    tail: Optional["TailProfile"] = None

    def plus(self, g: "ShrinkageFunction") -> "ShrinkageFunction":
        """The pointwise sum phi + g (the competing estimator's multiplier)."""
        return ShrinkageFunction(
            eval=lambda w, _p=self.eval, _g=g.eval: _p(w) + _g(w),
            deriv=lambda w, _p=self.deriv, _g=g.deriv: _p(w) + _g(w),
            label=f"({self.label})+({g.label})",
            tail=None,
        )


def elementwise(f: Callable[[np.ndarray], np.ndarray]) -> Callable[[ArrayLike], ArrayLike]:
    """Lift f, written for a float ndarray, to the ShrinkageFunction convention."""

    def lifted(w: ArrayLike) -> ArrayLike:
        out = f(np.asarray(w, dtype=float))
        return float(out) if np.ndim(w) == 0 else out

    return lifted


def _eval_pair(phi: ShrinkageFunction, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pv = np.asarray(phi.eval(w), dtype=float)
    dv = np.asarray(phi.deriv(w), dtype=float)
    for name, arr in (("phi", pv), ("phi'", dv)):
        bad = ~np.isfinite(arr)
        if np.any(bad):
            w_bad = float(np.asarray(w)[bad].flat[0])
            raise EvaluationError(f"{name} non-finite for '{phi.label}' at w={w_bad}", w_bad)
    return pv, dv


def _as_w_array(w: ArrayLike) -> tuple[np.ndarray, bool]:
    arr = np.asarray(w, dtype=float)
    if np.any(arr < 0.0):
        raise InputError("w must be >= 0")
    return arr, arr.ndim == 0


def d_phi(phi: ShrinkageFunction, w: ArrayLike, dims: ProblemDims) -> ArrayLike:
    """D_phi(w) = {phi - 2 c_pn} phi / w - d_n phi' {1 + phi}.

    At w = 0 the continuous extension -d_n phi'(0+) is used, valid only when
    phi(0) = 0 (raises EvaluationError otherwise).
    """
    k = constants(dims)
    arr, scalar = _as_w_array(w)
    pv, dv = _eval_pair(phi, arr)
    zero = arr == 0.0
    if np.any(zero):
        p0 = pv[zero] if pv.ndim else pv
        if np.any(np.atleast_1d(p0) != 0.0):
            raise EvaluationError(
                f"D_phi(0) undefined: phi(0) != 0 for '{phi.label}'", 0.0
            )
    with np.errstate(divide="ignore", invalid="ignore"):
        quad_term = (pv - 2.0 * k.c_pn) * pv / arr
    out = np.where(zero, 0.0, quad_term) - k.d_n * dv * (1.0 + pv)
    return float(out) if scalar else out


def delta(
    phi: ShrinkageFunction, g: ShrinkageFunction, w: ArrayLike, dims: ProblemDims
) -> ArrayLike:
    """Delta(w; phi, g) = D_phi(w) - D_{phi+g}(w).

    Computed directly from two D_phi evaluations (never divides by g), so it
    is well defined at zeros of g; where g(w) != 0 it equals
    g(w) {Delta1 + Delta2}.
    """
    return d_phi(phi, w, dims) - d_phi(phi.plus(g), w, dims)
