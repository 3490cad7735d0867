"""Adaptive double-exponential (tanh-sinh) quadrature on the unit interval.

All one-dimensional integrals in this package live on (0, 1) and may carry an
algebraic endpoint singularity lambda**s with s > -1 at lambda -> 0, a power of
log(1/lambda), and (after the lambda -> 1 - lambda reflection implicit in the
symmetric rule) an integrable singularity at lambda -> 1 such as
(log(1/lambda))**(b-1) ~ (1-lambda)**(b-1) for 0 < b < 1.

The tanh-sinh substitution

    lambda(t) = sigmoid(pi * sinh(t)),   dlambda/dt = lambda (1-lambda) pi cosh(t)

pushes nodes double-exponentially into both endpoints, so the trapezoidal rule
in t converges at roughly "digits double per level" speed for such integrands.
Nodes are generated from the logistic form directly, which keeps both lambda
and 1 - lambda accurate down to ~1e-276 (no cancellation against 1.0).

Refinement halves the step h; levels reuse all previous evaluations, and the
difference between consecutive levels serves as the (conservative) error
estimate: it is about the error of the coarser level, so the first level
where it meets the tolerance ends the pass.

power_log_integrals is the one primitive for the generalized-Bayes and known-
variance integrals, int_0^1 lambda**q (log 1/lambda)**b K(x, lambda).  Its
two passes take the same arguments (x, qs, b, kernel, cfg) and build that
integrand themselves: tanh_sinh_unit at a single point, _tanh_sinh_batch over
a grid.  Each call of the kernel serves all exponents.  A point pass runs
its exponents one after another and calls the kernel once per block of
levels reached: levels 0 to 5 (769 nodes), then each later level alone.  A
grid pass calls it once per level and slice of rows, holds the slice for all
exponents in one array and reduces it in one call.  log(1/lambda) is
computed once per level and kept with the nodes.  A point's lambda**q and
(log 1/lambda)**b depend only on the block and the exponent, so they are
kept too (_kept_power), and the passes of many points share them.  The
integrals of single points are kept as well, the last _POINTS_KEPT of them,
so the two-route identities, which integrate the same denominator at the
same point, run each integral once; grids are not kept.

The two passes share their levels, stopping rule and endpoint check but stay
two loops on purpose, because each is the faster one for its own use; both
give the same values.  A point run as a one-row batch is 4.7 to 5.8 times
slower, because the batch's per-level calls and bookkeeping outweigh one
point (two exponents of the unknown-scale kernel at w in {0.7, 30, 1e4},
medians of 15: 11-14 against 52-81 us).  The 128 samples of a gb table's
first pass run as point passes are about 4 times slower than one batched
pass, which pays those calls once per level and slice for all rows and
exponents ((a, b, p, n) in {(-2, 2, 5, 6), (-2, 0.5, 3, 3), (-1, 1.3, 12,
19), (-3, 1, 20, 20)}, medians of 7: 1.7-2.9 against 0.40-0.73 ms).  Both
measured on a shared 2-core x86-64 EPYC.  A point pass is bound by numpy's
fixed cost per call, not by its arithmetic, so its first block is large.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .core import InputError

__all__ = [
    "QuadratureConfig",
    "QuadratureError",
    "QuadratureConvergenceError",
    "tanh_sinh_unit",
    "power_log_integrals",
]

# Trapezoidal truncation horizon in t.  At t = 6 the node distance to the
# nearest endpoint is exp(-pi*sinh(6)) ~ 2.9e-276, comfortably above the
# subnormal range, while the discarded tail is below 1e-24 even for an
# endpoint singularity as strong as lambda**(-0.9).
_T_MAX = 6.0
_H0 = 0.5
# Weakest endpoint exponent the fixed horizon supports at full accuracy.
_MIN_EXPONENT = -0.95
# Floor of the stopping rule's relative tolerance (see _stop_rule) and the
# last level a pass runs.
_ABS_TOL = 1e-14
_MAX_LEVEL = 12
# Values per exponent in each slice of rows of _tanh_sinh_batch: a level is
# cut into slices of at most this many values per exponent, and a slice
# holds all exponents at once, which bounds the batch's temporaries (the
# 128 rows of a gb table's first pass take 1.2 MB of peak memory at once,
# 0.4 MB in slices).
_BATCH_ELEMENTS = 8192


@dataclass(frozen=True)
class QuadratureConfig:
    """Relative tolerance of the adaptive rule, against |integral|; the rule
    stops on tol, which floors it at _ABS_TOL (1e-14), and the refinement
    budget (_MAX_LEVEL) is fixed."""

    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < 1.0):  # also rejects nan
            raise InputError(f"rel_tol must lie in (0, 1), got {self.rel_tol!r}")

    @property
    def tol(self) -> float:
        """rel_tol, or _ABS_TOL where rel_tol is smaller."""
        return max(_ABS_TOL, self.rel_tol)


DEFAULT_CONFIG = QuadratureConfig()


class QuadratureError(ValueError):
    """Raised when an integrand produces non-finite values."""


class QuadratureConvergenceError(QuadratureError):
    """Refinement budget exhausted before the error estimate met tolerance.

    Carries the best estimate so callers can inspect or report it.
    """

    def __init__(self, message: str, best_estimate: float, error_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _level_abscissae(level: int) -> np.ndarray:
    if level == 0:
        k = np.arange(-int(_T_MAX / _H0), int(_T_MAX / _H0) + 1)
        return k * _H0
    h = _H0 / 2**level
    odd = np.arange(1, int(_T_MAX / h) + 1, 2)
    return np.concatenate([-odd[::-1], odd]) * h


def log_recip(lam: np.ndarray, lam_c: np.ndarray) -> np.ndarray:
    """log(1/lambda) computed stably at both endpoints of (0, 1)."""
    near_one = lam > 0.5
    out = np.empty_like(lam)
    out[~near_one] = -np.log(lam[~near_one])
    out[near_one] = -np.log1p(-lam_c[near_one])
    return out


@functools.cache
def _nodes(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lambda, dlambda/dt, log(1/lambda)) at a level's new nodes."""
    t = _level_abscissae(level)
    y = math.pi * np.sinh(t)
    lam, lam_c = _sigmoid(y), _sigmoid(-y)
    return lam, lam * lam_c * math.pi * np.cosh(t), log_recip(lam, lam_c)


# A point pass evaluates levels 0 to _BLOCK_LEVEL (769 nodes) in one call of
# its kernel, and each later level in a call of its own.  A call's fixed
# cost outweighs the nodes it adds: over the exact routes, against a block
# that ends at level 4, one at 5 took 3 % less time, 3 took 9 % more and 6
# the same, though only 46 % of their integrals reach level 5.
_BLOCK_LEVEL = 5


@functools.cache
def _block(last: int):
    """(lambda, dlambda/dt, log(1/lambda), levels) of the block of a point
    pass that ends at level last >= _BLOCK_LEVEL.

    The first block holds levels 0 to _BLOCK_LEVEL, concatenated, and every
    later block level last alone; levels gives (level, slice of the block's
    nodes, the level's step h) for each.
    """
    if last > _BLOCK_LEVEL:
        return (*_nodes(last), ((last, slice(None), _H0 / 2**last),))
    nodes = [_nodes(level) for level in range(last + 1)]
    bounds = np.cumsum([0] + [lam.size for lam, *_ in nodes]).tolist()
    levels = tuple((level, slice(bounds[level], bounds[level + 1]), _H0 / 2**level)
                   for level in range(last + 1))
    return (*(np.concatenate(arrays) for arrays in zip(*nodes)), levels)


# Exponent-only powers are kept for blocks that end at a level up to
# _KEPT_LEVEL, which hold at most 769 nodes each; most passes stop there.
_KEPT_LEVEL = 6


def _power(block: int, log: bool, exponent: float) -> np.ndarray:
    """lambda**exponent, or (log 1/lambda)**exponent if log, at a block's nodes.

    exponent is a Python float, so numpy's scalar fast paths apply as in
    lam**q (q = 0.5 goes through sqrt).
    """
    lam, _, log_l, _ = _block(block)
    return (log_l if log else lam) ** exponent


@functools.lru_cache(maxsize=512)
def _kept_power(block: int, log: bool, exponent: float) -> np.ndarray:
    """_power at a block up to _KEPT_LEVEL, computed once and kept read-only.

    At most 512 arrays of at most 769 floats: 3.1 MB in the worst case.
    """
    out = _power(block, log, exponent)
    out.flags.writeable = False
    return out


def _refine(value, h, s):
    """Fold one level's node sum into value; return (value, error estimate).

    Works on floats and, elementwise, on arrays of independent integrals.
    tanh_sinh_unit spells the same two expressions inline.
    """
    new_value = 0.5 * value + h * s
    return new_value, abs(new_value - value)


def _stop_rule(err, value, tol: float):
    """Whether a level ends the pass: err <= tol * |value|.

    A pass sets tol to QuadratureConfig.tol.  One such level suffices: a
    tanh-sinh level roughly doubles the correct digits, so the level after
    the first that meets tol would only re-confirm a value already far
    inside it.  An err of exactly 0 stops the pass at once, and an integral
    of 0 converges only there.  Works on floats and, elementwise, on arrays;
    tanh_sinh_unit spells the same comparison inline.
    """
    return err <= tol * abs(value)


# _check_endpoint's bounds: the largest log(1/lambda), its log, log(float max)
_LOG_MAX = float(_nodes(0)[2][0])
_LOG_LOG_MAX, _LOG_FLOAT_MAX = math.log(_LOG_MAX), math.log(sys.float_info.max)


def _check_endpoint(q: float, b: float) -> None:
    """Reject lambda**q (log 1/lambda)**b that the fixed horizon cannot take:
    q too singular, or the product overflowing at the smallest node, where
    log(1/lambda) = 633.70 is largest (b above 110.017 at q >= 0, where
    lambda**q <= 1; a smaller b at q < 0)."""
    if q <= _MIN_EXPONENT:
        raise ValueError(
            f"endpoint exponent {q} too singular for the "
            f"fixed tanh-sinh horizon (needs > {_MIN_EXPONENT})"
        )
    if b * _LOG_LOG_MAX - min(q, 0.0) * _LOG_MAX > _LOG_FLOAT_MAX:
        raise ValueError(
            f"log power {b} too large for the fixed tanh-sinh horizon at endpoint "
            f"exponent {q} (lambda**q (log 1/lambda)**b overflows at "
            f"log(1/lambda) = {_LOG_MAX!r})"
        )


def _not_converged(value: float, err: float):
    return QuadratureConvergenceError(
        f"tanh-sinh did not reach tolerance after {_MAX_LEVEL} "
        f"levels (error estimate {err:.3e})",
        best_estimate=value,
        error_estimate=err,
    )


def tanh_sinh_unit(x: float, qs: tuple, b: float, kernel, cfg: QuadratureConfig) -> list[float]:
    """power_log_integrals at a scalar x: the list of len(qs) floats, in one pass.

    An exponent stops at the first level whose error estimate is at most
    cfg.tol times |value|, the running integral (_stop_rule), and one that
    has not converged after level _MAX_LEVEL (12) raises
    QuadratureConvergenceError.
    The endpoint behaviour (the smallest q, and b) is checked before any
    level runs.

    The exponents run one after another, each as a pass of its own that
    raises its error at once, over blocks of levels: the 769 nodes of
    levels 0 to _BLOCK_LEVEL as one array, then each later level alone.
    The kernel values of a block, and its (log 1/lambda)**b, are computed
    when the first exponent reaches it and shared by the later ones, so the
    kernel is called once per block reached.  An exponent folds the levels
    of a block into its estimate one at a time, over their contiguous
    slices, and stops at its own level: the levels after it are neither
    summed nor checked for finite values.  An elementwise kernel gives each
    level the bits it gets when called for that level alone, so each
    exponent gets the float it gets alone.
    """
    _check_endpoint(min(qs), b)
    # Both tolerances are relative to the integral, not to 1.0: the integrals
    # here can be legitimately tiny (e.g. the generalized Bayes numerators at
    # w ~ 1e8 have total mass ~ 1e-12) and an absolute floor would accept them
    # long before the peak is resolved.
    tol = cfg.tol
    shared = {}  # block -> (kernel values, (log 1/lambda)**b or None)

    def integral(q: float) -> float:
        value, err = 0.0, math.inf
        for block in range(_BLOCK_LEVEL, _MAX_LEVEL + 1):
            lam, weight, _, levels = _block(block)
            power = _kept_power if block <= _KEPT_LEVEL else _power
            if block not in shared:
                shared[block] = kernel(x, lam), None if b == 0.0 else power(block, True, b)
            kern, log_b = shared[block]
            vals = np.multiply(power(block, False, q), kern)
            if log_b is not None:
                vals *= log_b
            vals *= weight
            for level, cut, h in levels:
                # a non-finite value makes s non-finite: only then are the values scanned
                s = float(np.add.reduce(vals[cut]))
                if not math.isfinite(s) and not np.isfinite(vals[cut]).all():
                    bad = lam[cut][~np.isfinite(vals[cut])]
                    raise QuadratureError(f"integrand non-finite near lambda={float(bad[0])!r}")
                if level == 0:
                    value = h * s
                    continue
                new = 0.5 * value + h * s
                value, err = new, abs(new - value)
                if err <= tol * abs(value):
                    return value
        raise _not_converged(value, err)

    return [integral(q) for q in qs]


def _tanh_sinh_batch(x: np.ndarray, qs: tuple, b: float, kernel, cfg) -> np.ndarray:
    """power_log_integrals at a 1-d x: an array (len(qs), len(x)), in one pass.

    Every (k, i) runs the adaptive rule of tanh_sinh_unit on its own, with
    the same levels and stopping rule, and is frozen at the level where it
    converges; rows whose integrands have all converged are no longer
    evaluated.  A level is evaluated in slices of at most _BATCH_ELEMENTS
    values per exponent, and each row is summed along the contiguous last
    axis.  Checks the endpoint as tanh_sinh_unit does, but raises the first
    error by level, not by exponent: a non-finite value at the earliest
    level where one occurs, in the first slice of rows there, of the first
    exponent, at its first row; once all levels have run, the first row
    that has not converged, at its first such exponent.  So where several
    exponents fail, a later exponent's error can win.
    """
    _check_endpoint(min(qs), b)
    h, tol = _H0, cfg.tol
    # value, err and live hold only the rows x[rows] still running
    rows = np.arange(x.size)
    live = np.ones((len(qs), x.size), dtype=bool)
    value = h * _batch_level_sums(x, qs, b, kernel, 0, rows, live)
    err = np.full_like(value, math.inf)
    out = np.empty_like(value)
    for level in range(1, _MAX_LEVEL + 1):
        if not rows.size:
            break
        h *= 0.5
        s = _batch_level_sums(x, qs, b, kernel, level, rows, live)
        v, e = _refine(value, h, s)
        value, err = np.where(live, v, value), np.where(live, e, err)
        live &= ~_stop_rule(e, v, tol)
        done = ~live.any(axis=0)
        if done.any():
            out[:, rows[done]] = value[:, done]
            keep = ~done
            rows, value, err, live = rows[keep], value[:, keep], err[:, keep], live[:, keep]
    if rows.size:
        row, k = np.argwhere(live.T)[0]
        raise _not_converged(value[k, row], err[k, row])
    return out


def _batch_level_sums(x, qs, b, kernel, level, rows, live):
    """Node sums, shape (len(qs), len(rows)), of one batched level.

    lambda**q and (log 1/lambda)**b are computed once per level, and the
    kernel once per slice of rows.  A slice holds all exponents as one
    array (len(qs), rows, nodes), built with the elementwise operations of
    a point pass and reduced along its last axis in one call.
    """
    lam, weight, log_l = _nodes(level)
    lam_qs = np.array([lam**q for q in qs])[:, None, :]
    log_b = log_l**b if b != 0.0 else None
    s = np.empty(live.shape)
    step = max(1, _BATCH_ELEMENTS // lam.size)
    for start in range(0, rows.size, step):
        cut = slice(start, start + step)
        vals = lam_qs * kernel(x[rows[cut], None], lam)
        if log_b is not None:
            vals *= log_b
        vals *= weight
        s[:, cut] = np.add.reduce(vals, axis=2)
        if not np.isfinite(s[:, cut]).all():  # as a point pass, per exponent and row
            bad = ~np.isfinite(vals).all(axis=2) & live[:, cut]
            if bad.any():
                k, row = np.argwhere(bad)[0]
                near = float(lam[~np.isfinite(vals[k, row])][0])
                raise QuadratureError(f"integrand non-finite near lambda={near!r}")
    return s


# Integrals of single points that power_log_integrals keeps, keyed by
# (kernel, x, q, b, cfg); past this many the oldest is dropped.  An entry
# holds one float, so the memo stays below about 0.3 MB.
_POINTS_KEPT = 1024
_points: dict[tuple, float] = {}
_points_lock = threading.Lock()


def power_log_integrals(x, qs, b: float, kernel, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """I[k, i] = int_0^1 lambda^qs[k] (log 1/lambda)^b kernel(x[i], lambda) dlambda.

    qs are floats; kernel(x, lam) is elementwise; b may lie in (-1, 0), an
    integrable singularity at lambda -> 1.  A scalar x gives the list of
    len(qs) floats, and a 1-d x an array (len(qs), len(x)) from one
    _tanh_sinh_batch pass.

    A scalar x looks up each exponent in a memo keyed by (kernel, x, q, b,
    cfg), so a caller must pass the same kernel object each time for its
    integrals to be found.  The exponents not there run together in one
    tanh_sinh_unit pass, and are kept once the pass completes; an error is
    never kept, so a failing point fails again with the same error.  The
    memo holds the last _POINTS_KEPT integrals, and concurrent callers may
    share it.  A point takes lambda**q and (log 1/lambda)**b from
    _kept_power; a grid computes them once per level of its pass.  The two
    passes do the same elementwise operations and agree bit for bit; each
    exponent gets the bits it gets integrated on its own, so a value from
    the memo is the one a pass would give.
    """
    qs, b = tuple(map(float, qs)), float(b)
    if not isinstance(x, float):
        x = np.asarray(x, dtype=float)
        if x.ndim:
            return _tanh_sinh_batch(x, qs, b, kernel, cfg)
    x = float(x)
    with _points_lock:
        found = [_points.get((kernel, x, q, b, cfg)) for q in qs]
    if None not in found:
        return found
    missing = tuple(q for q, value in zip(qs, found) if value is None)
    new = dict(zip(missing, tanh_sinh_unit(x, missing, b, kernel, cfg)))
    with _points_lock:
        _points.update(((kernel, x, q, b, cfg), value) for q, value in new.items())
        while len(_points) > _POINTS_KEPT:
            del _points[next(iter(_points))]
    return [new[q] if value is None else value for q, value in zip(qs, found)]

