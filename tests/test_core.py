"""Exact SURE formula values, hand-derived, plus structural properties."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ZeroPerturbationError, delta1, delta2
from sure_boundary.core import (
    EvaluationError,
    InputError,
    ProblemDims,
    ShrinkageFunction,
    constants,
    d_phi,
    delta,
    elementwise,
)
from sure_boundary.families import Linear, PositivePartJS, Zero, make_shrinkage

DIMS = ProblemDims(5, 6)


def const_fn(value: float, label: str = "const") -> ShrinkageFunction:
    return ShrinkageFunction(
        eval=elementwise(lambda w: np.full_like(w, value)),
        deriv=elementwise(np.zeros_like),
        label=label,
    )


class TestConstants:
    def test_example_5_6(self):
        k = constants(DIMS)
        assert k.c_pn == 0.375
        assert k.d_n == 0.5
        assert k.beta_star == 0.34375

    def test_example_3_3(self):
        k = constants(ProblemDims(3, 3))
        assert abs(k.c_pn - 0.2) < 1e-15
        assert abs(k.d_n - 0.8) < 1e-15
        assert abs(k.beta_star - 0.48) < 1e-15
        assert abs(k.beta_star - 2 * 6 / 25) < 1e-15

    def test_beta_star_closed_forms_agree(self):
        for p in range(3, 30):
            for n in range(3, 30):
                k = constants(ProblemDims(p, n))
                alt = 2.0 * (p + n) / (n + 2) ** 2
                assert abs(k.beta_star - alt) <= 1e-15 * abs(alt)
                assert k.c_pn > 0 and k.d_n > 0 and k.beta_star > 0

    def test_c_pn_monotone_in_n(self):
        values = [constants(ProblemDims(3, n)).c_pn for n in range(3, 101)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            ProblemDims(2, 6)
        with pytest.raises(ValueError):
            ProblemDims(5, 2)

    @pytest.mark.parametrize("p, n, message", [
        (math.inf, 6, "ProblemDims: non-finite parameter 'p' = inf"),
        (5, math.nan, "ProblemDims: non-finite parameter 'n' = nan"),
        (5.5, 6, "p and n must be integers"),
    ], ids=["inf", "nan", "fraction"])
    def test_dims_that_are_not_integers_rejected(self, p, n, message):
        # a typed error, not int()'s OverflowError or its bare ValueError
        with pytest.raises(InputError) as err:
            ProblemDims(p, n)
        assert str(err.value) == message


class TestDPhi:
    def test_jsplus_flat_region(self):
        js = make_shrinkage(PositivePartJS(a=0.375), DIMS)
        assert d_phi(js, 2.0, DIMS) == pytest.approx(-0.0703125, abs=1e-15)

    def test_jsplus_ramp_region(self):
        js = make_shrinkage(PositivePartJS(a=0.375), DIMS)
        assert d_phi(js, 0.2, DIMS) == pytest.approx(-1.15, abs=1e-14)

    def test_zero_phi_everywhere(self):
        zero = make_shrinkage(Zero(), DIMS)
        for w in (0.0, 0.5, 3.0, 1e6):
            assert d_phi(zero, w, DIMS) == 0.0

    def test_w_zero_continuous_extension(self):
        lin = make_shrinkage(Linear(alpha=0.25), DIMS)
        # phi(0) = 0, phi'(0+) = 0.75 -> D(0) = -d_n * 0.75
        assert d_phi(lin, 0.0, DIMS) == pytest.approx(-0.5 * 0.75, abs=1e-15)

    def test_w_zero_rejected_when_phi_nonzero_at_zero(self):
        with pytest.raises(EvaluationError):
            d_phi(const_fn(0.3), 0.0, DIMS)

    def test_negative_w_rejected(self):
        with pytest.raises(InputError, match="^w must be >= 0$"):
            d_phi(make_shrinkage(Zero(), DIMS), -1.0, DIMS)

    def test_pointwise_formula_no_hidden_state(self):
        # two functions agreeing at w give identical D_phi there
        js = make_shrinkage(PositivePartJS(a=0.375), DIMS)
        agree = const_fn(0.375)
        assert d_phi(js, 2.0, DIMS) == d_phi(agree, 2.0, DIMS)

    def test_vectorized_matches_scalar(self):
        js = make_shrinkage(PositivePartJS(a=0.375), DIMS)
        grid = np.array([0.1, 0.375, 2.0, 77.0])
        vec = d_phi(js, grid, DIMS)
        assert vec == pytest.approx([d_phi(js, w, DIMS) for w in grid], abs=0)

    def test_non_finite_phi_raises(self):
        bad = ShrinkageFunction(
            eval=lambda w: np.where(np.asarray(w) > 1.0, np.inf, 0.0),
            deriv=lambda w: np.zeros_like(np.asarray(w, dtype=float)),
            label="bad",
        )
        with pytest.raises(EvaluationError) as err:
            d_phi(bad, 2.0, DIMS)
        assert err.value.w == 2.0


class TestElementwise:
    def test_scalar_gives_float_array_gives_array(self):
        square = elementwise(lambda w: w * w)
        for w in (3, 3.0, np.float64(3.0), np.array(3.0)):
            assert type(square(w)) is float and square(w) == 9.0
        out = square([1.0, 2.0])
        assert isinstance(out, np.ndarray) and out.tolist() == [1.0, 4.0]


class TestSure:
    """The pointwise SURE value p + (n+2) D_phi(w)."""

    @staticmethod
    def sure(phi, w):
        return DIMS.p + (DIMS.n + 2) * d_phi(phi, w, DIMS)

    def test_zero_phi_gives_p_exactly(self):
        zero = make_shrinkage(Zero(), DIMS)
        for w in (0.0, 0.3, 5.0, 2e7):
            assert self.sure(zero, w) == 5.0

    def test_jsplus_values(self):
        js = make_shrinkage(PositivePartJS(a=0.375), DIMS)
        assert self.sure(js, 2.0) == pytest.approx(4.4375, abs=1e-13)
        # pointwise SURE may be negative
        assert self.sure(js, 0.2) == pytest.approx(-4.2, abs=1e-13)

    def test_decomposition_identity(self):
        # above a, phi = a and phi' = 0, so D_phi(w) = (a - 2 c_pn) a / w
        js = make_shrinkage(PositivePartJS(a=0.2), DIMS)
        c = constants(DIMS).c_pn
        assert self.sure(js, 1.7) == pytest.approx(
            DIMS.p + (DIMS.n + 2) * (0.2 - 2.0 * c) * 0.2 / 1.7, rel=1e-15
        )


class TestDelta1:
    def test_constant_c_pn_annihilates(self):
        phi = const_fn(constants(DIMS).c_pn)
        for w in (0.2, 1.0, 42.0):
            assert delta1(phi, w, DIMS) == 0.0

    def test_zero_phi(self):
        zero = make_shrinkage(Zero(), DIMS)
        assert delta1(zero, 4.0, DIMS) == pytest.approx(0.1875, abs=1e-15)

    def test_linear_half(self):
        lin = make_shrinkage(Linear(alpha=0.5), DIMS)
        assert delta1(lin, 1.0, DIMS) == pytest.approx(0.0, abs=1e-15)

    def test_requires_positive_w(self):
        with pytest.raises(ValueError):
            delta1(make_shrinkage(Zero(), DIMS), 0.0, DIMS)


class TestDelta2:
    def test_linear_g(self):
        zero = make_shrinkage(Zero(), DIMS)
        g = make_shrinkage(Linear(alpha=0.0), DIMS)  # g(w) = w
        assert delta2(zero, g, 2.0, DIMS) == pytest.approx(-0.25, abs=1e-15)

    def test_constant_g_reduces_to_ratio(self):
        zero = make_shrinkage(Zero(), DIMS)
        g = const_fn(0.7)
        for w in (0.5, 3.0, 100.0):
            assert delta2(zero, g, w, DIMS) == pytest.approx(-0.7 / w, abs=1e-15)

    def test_symbolic_derivative_oracle(self):
        # g(w) = 1/log(w+e) at w = e^2 - e, against sympy differentiation
        w_sym = sympy.symbols("w", positive=True)
        g_sym = 1 / sympy.log(w_sym + sympy.E)
        gp_sym = sympy.diff(g_sym, w_sym)
        w0 = math.e**2 - math.e
        g0 = float(g_sym.subs(w_sym, w0))
        gp0 = float(gp_sym.subs(w_sym, w0))
        expected = -g0 / w0 + 0.5 * gp0 + 0.5 * (gp0 / g0) * 1.0

        g = ShrinkageFunction(
            eval=lambda w: 1.0 / np.log(np.asarray(w, dtype=float) + math.e),
            deriv=lambda w: -1.0
            / (np.log(np.asarray(w, dtype=float) + math.e) ** 2
               * (np.asarray(w, dtype=float) + math.e)),
            label="1/log(w+e)",
        )
        zero = make_shrinkage(Zero(), DIMS)
        assert delta2(zero, g, w0, DIMS) == pytest.approx(expected, abs=1e-12)

    def test_zero_of_g_is_domain_error(self):
        zero = make_shrinkage(Zero(), DIMS)
        g = make_shrinkage(PositivePartJS(a=1.0), DIMS)
        with pytest.raises(ZeroPerturbationError):
            delta2(zero, ShrinkageFunction(
                eval=lambda w: np.asarray(w, dtype=float) * 0.0,
                deriv=lambda w: np.asarray(w, dtype=float) * 0.0,
                label="zero-g",
            ), 2.0, DIMS)
        assert delta2(zero, g, 2.0, DIMS)  # nonzero g fine


class TestDelta:
    def test_zero_perturbation_is_exact_zero(self):
        js = make_shrinkage(PositivePartJS(a=0.375), DIMS)
        gz = make_shrinkage(Zero(), DIMS)
        for w in (0.0, 0.4, 7.0, 1e5):
            assert delta(js, gz, w, DIMS) == 0.0

    def test_factorization_consistency_linear_g(self):
        zero = make_shrinkage(Zero(), DIMS)
        g = make_shrinkage(Linear(alpha=0.0), DIMS)
        w = 2.0
        lhs = delta(zero, g, w, DIMS)
        rhs = g.eval(w) * (delta1(zero, w, DIMS) + delta2(zero, g, w, DIMS))
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))

    @settings(max_examples=60, deadline=None)
    @given(
        w=st.floats(min_value=1e-3, max_value=1e6),
        a=st.floats(min_value=0.05, max_value=3.0),
        alpha=st.floats(min_value=0.0, max_value=0.9),
    )
    def test_factorization_property(self, w, a, alpha):
        phi = make_shrinkage(PositivePartJS(a=a), DIMS)
        g = make_shrinkage(Linear(alpha=alpha), DIMS)  # g > 0 on w > 0
        lhs = delta(phi, g, w, DIMS)
        rhs = g.eval(w) * (delta1(phi, w, DIMS) + delta2(phi, g, w, DIMS))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))

    @settings(max_examples=40, deadline=None)
    @given(w=st.floats(min_value=1e-3, max_value=1e5))
    def test_antisymmetry(self, w):
        phi = make_shrinkage(Zero(), DIMS)
        g = make_shrinkage(Linear(alpha=0.5), DIMS)
        neg_g = ShrinkageFunction(
            eval=lambda x: -np.asarray(g.eval(x)),
            deriv=lambda x: -np.asarray(g.deriv(x)),
            label="-g",
        )
        lhs = delta(phi, g, w, DIMS)
        rhs = -delta(phi.plus(g), neg_g, w, DIMS)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))

    def test_hand_value(self):
        # phi = 0, g(w) = w at w = 2: Delta = (2c + d) - w(1 - d) = 0.25
        zero = make_shrinkage(Zero(), DIMS)
        g = make_shrinkage(Linear(alpha=0.0), DIMS)
        assert delta(zero, g, 2.0, DIMS) == pytest.approx(0.25, abs=1e-15)
