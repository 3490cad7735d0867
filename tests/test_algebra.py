"""The algebra behind core's SURE formulas, reduced to exactly 0 by sympy.

phi and g are undefined functions of w, and p and n are symbols, so each
identity holds for every shrinkage function and every (p, n), not only at
sample points.  ``D`` transcribes core's D_phi; one test pins it, and the
closed forms of c_pn, d_n and beta_star, to what ``core`` evaluates.
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


DELTA = D(phi) - D(phi + g)
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
