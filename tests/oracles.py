"""Reference implementations the tests compare the library against.

* ``delta1`` and ``delta2``: the factored risk difference
  Delta(w; phi, g) = g(w) {Delta1(w; phi) + Delta2(w; phi, g)}, which the
  library never evaluates (``core.delta`` is a difference of two D_phi
  values and does not divide by g).
* ``marginal_m_closed_one``: the known-variance marginal m(z; a, One) in
  closed form, through the lower incomplete gamma function.
* ``tanh_sinh_per_level``: the point tanh-sinh pass that calls its kernel
  once per level, one exponent after another, which
  ``quadrature.tanh_sinh_unit`` must match bit for bit, errors included.
"""

import math

import numpy as np
from scipy.special import gammainc, gammaln

from sure_boundary.core import _as_w_array, _eval_pair, constants
from sure_boundary.quadrature import (
    _ABS_TOL,
    _H0,
    _MAX_LEVEL,
    QuadratureError,
    _check_endpoint,
    _nodes,
    _not_converged,
    _refine,
    _stop_rule,
)


class ZeroPerturbationError(ValueError):
    """Delta2 requested at a zero of g; the caller should use delta() instead."""


def delta1(phi, w, dims):
    """Delta1(w; phi) = 2 (c_pn - phi(w))/w + d_n phi'(w), for w > 0."""
    k = constants(dims)
    arr, scalar = _as_w_array(w)
    if np.any(arr == 0.0):
        raise ValueError("delta1 requires w > 0")
    pv, dv = _eval_pair(phi, arr)
    out = 2.0 * (k.c_pn - pv) / arr + k.d_n * dv
    return float(out) if scalar else out


def delta2(phi, g, w, dims):
    """Delta2(w; phi, g) = -g/w + d_n g' + d_n (g'/g)(1 + phi), for w > 0, g(w) != 0."""
    k = constants(dims)
    arr, scalar = _as_w_array(w)
    if np.any(arr == 0.0):
        raise ValueError("delta2 requires w > 0")
    pv, _ = _eval_pair(phi, arr)
    gv, gd = _eval_pair(g, arr)
    if np.any(gv == 0.0):
        raise ZeroPerturbationError("Delta2 is undefined where g(w) = 0; use delta()")
    out = -gv / arr + k.d_n * gd + k.d_n * (gd / gv) * (1.0 + pv)
    return float(out) if scalar else out


def marginal_m_closed_one(z_norm, a, p):
    """Closed form of m(z; a, One) via the lower incomplete gamma function."""
    s1 = p / 2 + a + 1.0
    c = z_norm**2 / 2.0
    if c == 0.0:
        return 1.0 / s1
    return math.exp(gammaln(s1)) * float(gammainc(s1, c)) / c**s1


def tanh_sinh_per_level(x, qs, b, kernel, cfg):
    """tanh_sinh_unit with one call of the kernel per level: the exponents run
    one after another and share each level's kernel values."""
    _check_endpoint(min(qs), b)
    tol = max(_ABS_TOL, cfg.rel_tol)
    kern = {}  # level -> kernel values

    def integral(q):
        value, err, hit = 0.0, math.inf, 0
        for level in range(_MAX_LEVEL + 1):
            h = _H0 / 2**level
            lam, weight, log_l = _nodes(level)
            if level not in kern:
                kern[level] = kernel(x, lam)
            f = lam**q * kern[level]
            vals = (f if b == 0.0 else f * log_l**b) * weight
            if not np.isfinite(vals).all():
                near = float(lam[~np.isfinite(vals)][0])
                raise QuadratureError(f"integrand non-finite near lambda={near!r}")
            s = float(np.add.reduce(vals))
            if level == 0:
                value = h * s
                continue
            value, err = _refine(value, h, s)
            hit, done = _stop_rule(err, value, hit, tol)
            if done:
                return value
        raise _not_converged(value, err)

    return [integral(q) for q in qs]
