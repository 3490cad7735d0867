"""The algebra behind core's SURE formulas, reduced to exactly 0 by sympy.

phi and g are undefined functions of w, and p and n are symbols, so each
identity holds for every shrinkage function and every (p, n), not only at
sample points.  ``D`` transcribes core's D_phi; one test pins it, and the
closed forms of c_pn, d_n and beta_star, to what ``core`` evaluates.  Four
more checks, as ROADMAP item 3 states them, derive the SURE statistic from
its two lemmas, expand the rate of the critical tail, and reduce the two
identities behind the dominators (item 7) and the integral test of the
verdicts (item 6), each with u an undefined function and its defining
differential equation substituted.
"""

import collections

import pytest
import sympy

from sure_boundary.core import ProblemDims, ShrinkageFunction, constants, d_phi, elementwise

w, p, n = sympy.symbols("w p n", positive=True)
phi, g = sympy.Function("phi")(w), sympy.Function("g")(w)
C_PN = (p - 2) / (n + 2)
D_N = 4 / (n + 2)


def D(f):
    """D_f(w) = {f - 2 c_pn} f / w - d_n f' {1 + f}."""
    return (f - 2 * C_PN) * f / w - D_N * sympy.diff(f, w) * (1 + f)


def Delta(f, h):
    """Delta(w; f, h) = D_f(w) - D_{f+h}(w), the risk gain of f + h over f."""
    return D(f) - D(f + h)


DELTA = Delta(phi, g)
DELTA1 = 2 * (C_PN - phi) / w + D_N * sympy.diff(phi, w)


def test_delta_is_g_times_delta1_plus_delta2():
    gp = sympy.diff(g, w)
    delta2 = -g / w + D_N * gp + D_N * (gp / g) * (1 + phi)
    assert sympy.simplify(DELTA - g * (DELTA1 + delta2)) == 0


def test_delta_without_dividing_by_g():
    gp = sympy.diff(g, w)
    assert sympy.simplify(DELTA - (g * DELTA1 - g**2 / w + D_N * gp * (1 + phi + g))) == 0


def test_beta_star_closed_forms():
    beta_star = D_N * (1 + C_PN) / 2
    assert sympy.simplify(beta_star - 2 * (p + n) / (n + 2) ** 2) == 0
    # core.constants reads only dims.p and dims.n, so it runs on symbols too
    k = constants(collections.namedtuple("SymbolicDims", "p n")(p, n))
    for value, closed in ((k.c_pn, C_PN), (k.d_n, D_N), (k.beta_star, beta_star)):
        assert sympy.simplify(sympy.nsimplify(value) - closed) == 0


def test_transcribed_d_is_core_d_phi():
    # phi = w / (1 + w) at (p, n) = (5, 6), w = 3
    f = w / (1 + w)
    want = float(D(f).subs({p: 5, n: 6, w: 3}))
    fn = ShrinkageFunction(eval=elementwise(lambda x: x / (1.0 + x)),
                           deriv=elementwise(lambda x: 1.0 / (1.0 + x) ** 2), label="w/(1+w)")
    assert d_phi(fn, 3.0, ProblemDims(5, 6)) == pytest.approx(want, rel=1e-15)


def test_sure_from_stein_and_chi_square_lemmas():
    # ROADMAP item 3: "Then `p - 2 div g + n k + 2 S dk/dS - (p + (n+2) D_phi(W)) = 0`."
    # R = ||X||^2 and S are symbols and W = R/S.  Stein's identity turns the
    # cross term into div h = p phi/W + 2 R d/dR (phi(W)/W), for the shift
    # h = phi(W) X / W (the quote's g; g names the perturbation above); the
    # chi-square identity E[S k(S)]/sigma^2 = E[n k + 2 S k'(S)], with
    # k = phi(W)^2/W, replaces ||h||^2/sigma^2.
    R, S = sympy.symbols("R S", positive=True)
    W = R / S
    phi_W = sympy.Function("phi")(W)
    div_h = p * phi_W / W + 2 * R * sympy.diff(phi_W / W, R)
    k = phi_W**2 / W
    sure = p - 2 * div_h + n * k + 2 * S * sympy.diff(k, S)
    target = p + (n + 2) * D(phi)
    assert sympy.simplify((sure.subs(R, w * S) - target).doit()) == 0


def test_critical_tail_rate():
    # ROADMAP item 3: "the series is
    # `s log s G'(s) = b + b^2 d_n/(2 log s) + O(log^-2 s)`", for
    # phi = c_pn - b beta_star/log s and G' = 2 (c_pn - phi)/(d_n w (1+phi)).
    x, b = sympy.symbols("x b", positive=True)  # x = 1/log s
    tail = C_PN - b * (D_N * (1 + C_PN) / 2) * x
    rate = 2 * (C_PN - tail) / (D_N * x * (1 + tail))
    series = sympy.series(rate, x, 0, 2)
    assert series.getO() == sympy.O(x**2)
    assert sympy.simplify(series.removeO() - (b + b**2 * D_N * x / 2)) == 0


u = sympy.Function("u")(w)


def test_dominator_identity():
    # ROADMAP item 3: "Take u with `w u' = alpha u - beta`, where
    # `alpha = w Delta1/(d_n (1+phi))` and `beta = 1/(d_n (1+phi))`. Then
    # `Delta(phi, eps/u) - [eps (1-eps) g*^2/w + eps^2 d_n g* g*'] = 0`,
    # with `g* = 1/u`."
    eps = sympy.Symbol("epsilon", positive=True)
    alpha = w * DELTA1 / (D_N * (1 + phi))
    beta = 1 / (D_N * (1 + phi))
    g_star = 1 / u
    gap = Delta(phi, eps / u) - (eps * (1 - eps) * g_star**2 / w
                                 + eps**2 * D_N * g_star * sympy.diff(g_star, w))
    assert sympy.simplify(gap.subs(sympy.Derivative(u, w), (alpha * u - beta) / w)) == 0


def test_integral_test_identity():
    # ROADMAP item 3: "Take `F = exp(-G)/(1+phi)` with
    # `G' = 2 (c_pn - phi)/(d_n w (1+phi))`. Then `u^2 Delta(phi, 1/u) =
    # -(d_n (1+phi)/F) [(uF)' + F/(d_n w (1+phi))] - d_n u'/u`."
    G = sympy.Function("G")(w)
    F = sympy.exp(-G) / (1 + phi)
    rhs = (-(D_N * (1 + phi) / F) * (sympy.diff(u * F, w) + F / (D_N * w * (1 + phi)))
           - D_N * sympy.diff(u, w) / u)
    gap = u**2 * Delta(phi, 1 / u) - rhs
    G_prime = 2 * (C_PN - phi) / (D_N * w * (1 + phi))
    assert sympy.simplify(gap.subs(sympy.Derivative(G, w), G_prime)) == 0
