"""Reference values computed apart from the program.

Nothing here calls into ``sure_boundary``: every formula is written out from
the model's definitions, and the integrals use scipy's QUADPACK or mpmath
instead of the program's tanh-sinh rule.
"""

from __future__ import annotations

import math

import mpmath
from scipy import integrate, optimize


def _log_quad(logf, lo_bound: float = 0.0) -> tuple[float, float]:
    """Integrate exp(logf(t)) over (lo_bound, inf) as (scale, integral).

    The integrand is unimodal in t; its peak t_peak is found first, the
    value is taken relative to logf(t_peak) so nothing underflows, and
    QUADPACK gets breakpoints on both sides of the peak.  Returns
    (logf(t_peak), integral of exp(logf - logf(t_peak))).
    """
    res = optimize.minimize_scalar(
        lambda t: -logf(t), bounds=(lo_bound + 1e-12, 200.0), method="bounded",
        options={"xatol": 1e-10},
    )
    t_peak = float(res.x)
    top = logf(t_peak)

    def g(t):
        return math.exp(logf(t) - top) if t > 0.0 else 0.0

    total = 0.0
    edges = [lo_bound]
    for step in (-8.0, -2.0, -0.5):
        if t_peak + step > edges[-1]:
            edges.append(t_peak + step)
    edges += [t_peak, t_peak + 0.5, t_peak + 2.0, t_peak + 8.0, t_peak + 40.0]
    for a, b in zip(edges[:-1], edges[1:]):
        total += integrate.quad(g, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    total += integrate.quad(g, edges[-1], math.inf, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return top, total


def gb_phi(a: float, b: float, w: float, p: int, n: int) -> float:
    """phi_{a,b}(w) = w N(w)/D(w) by quadrature in t = log(1/lambda).

    With lambda = exp(-t) the defining integrals become
    N = int_0^inf e^{-(q+2)t} t^b (1 + w e^{-t})^{-m} dt and
    D = int_0^inf e^{-(q+1)t} t^b (1 + w e^{-t})^{-m} dt,
    q = p/2 + a, m = (p+n)/2 + 1.
    """
    q = p / 2 + a
    m = (p + n) / 2 + 1

    def log_den(t: float) -> float:
        out = -(q + 1.0) * t - m * math.log1p(w * math.exp(-t))
        return out + (b * math.log(t) if b != 0.0 else 0.0)

    top_d, den = _log_quad(log_den)
    top_n, num = _log_quad(lambda t: log_den(t) - t)
    return w * math.exp(top_n - top_d) * num / den


def marginal_logpow(z: float, a: float, b: float, p: int) -> float:
    """m(z) = int_0^1 exp(-z^2 lambda/2) lambda^{p/2+a} (log 1/lambda)^b dlambda.

    In t = log(1/lambda): int_0^inf exp(-c e^{-t} - (q+1) t) t^b dt.
    """
    c = z * z / 2.0
    q = p / 2 + a

    def logf(t: float) -> float:
        out = -c * math.exp(-t) - (q + 1.0) * t
        return out + (b * math.log(t) if b != 0.0 else 0.0)

    top, val = _log_quad(logf)
    return math.exp(top) * val


def marginal_one(z: float, a: float, p: int) -> float:
    """m(z) for L = 1: gamma_lower(s, c) / c^s with s = p/2+a+1, c = z^2/2."""
    s = mpmath.mpf(p) / 2 + a + 1
    c = mpmath.mpf(z) ** 2 / 2
    if c == 0:
        return float(1 / s)
    return float(mpmath.gammainc(s, 0, c) / c**s)


def sure_d(phi: float, dphi: float, w: float, p: int, n: int) -> float:
    """D_phi(w) = (phi - 2 c_pn) phi / w - d_n phi' (1 + phi); -d_n phi' at w = 0."""
    c_pn = (p - 2) / (n + 2)
    d_n = 4.0 / (n + 2)
    quad = (phi - 2.0 * c_pn) * phi / w if w > 0.0 else 0.0
    return quad - d_n * dphi * (1.0 + phi)


def dominator(w: float, nu: float, w_sharp: float, width: float) -> tuple[float, float]:
    """g(w) = k(w) log(w+e)^{-(1+nu)} with the clamped ramp k and its slope.

    k = clip((w - w_sharp)/width, 0, 1); its derivative is taken as 1/width
    strictly inside the ramp and 0 elsewhere (the one-sided convention at
    the two kinks).
    """
    k = min(max((w - w_sharp) / width, 0.0), 1.0)
    dk = 1.0 / width if w_sharp < w < w_sharp + width else 0.0
    le = math.log(w + math.e)
    g = k * le ** (-(1.0 + nu))
    dg = dk * le ** (-(1.0 + nu)) - k * (1.0 + nu) * le ** (-(2.0 + nu)) / (w + math.e)
    return g, dg


def zero_delta(w: float, nu: float, w_sharp: float, width: float, p: int, n: int) -> float:
    """Delta(w) = D_0(w) - D_g(w) for phi = 0 against the dominator g."""
    g, dg = dominator(w, nu, w_sharp, width)
    return sure_d(0.0, 0.0, w, p, n) - sure_d(g, dg, w, p, n)


def brown_admissible(a: float, log_power: float) -> bool:
    """Known-variance dichotomy: the Brown integral diverges (admissible)
    iff a > -2, or a = -2 and the log power b <= 1."""
    if a != -2.0:
        return a > -2.0
    return log_power <= 1.0


def linear_risk(alpha: float, p: int, theta_norm: float, sigma: float, mix_mean: float) -> float:
    """Risk of alpha X under scaled loss: alpha^2 p E[v] + (1-alpha)^2 |theta|^2/sigma^2."""
    return alpha**2 * p * mix_mean + (1.0 - alpha) ** 2 * theta_norm**2 / sigma**2
