"""Known-variance companion: marginals, limits, admissibility verdicts."""

import math

import numpy as np
import pytest

from oracles import marginal_m_closed_one
from sure_boundary.core import EvaluationError, InputError
from sure_boundary.known_variance import (
    AdmissClass,
    LogPow,
    One,
    PriorSpec,
    _lgam,
    brown_classify,
    brown_integral_numeric,
    encode_l_family,
    gradient_bound_check,
    marginal_m,
    parse_l_family,
    psi_known,
    psi_known_via_identity,
    psi_tail_fit,
    tauberian_check,
)

P = 5
Z_GRID = np.geomspace(10.0, 1e8, 15)


class TestMarginal:
    def test_closed_form_at_origin_one(self):
        assert marginal_m(0.0, PriorSpec(a=-2.0), P) == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_closed_form_at_origin_logpow(self):
        # Gamma(2) / (3/2)^2 = 4/9
        val = marginal_m(0.0, PriorSpec(a=-2.0, L=LogPow(1.0)), P)
        assert val == pytest.approx(4.0 / 9.0, abs=1e-10)

    def test_matches_incomplete_gamma_form(self):
        for z in (0.3, 1.0, 5.0, 40.0, 500.0):
            quad_val = marginal_m(z, PriorSpec(a=-2.0), P)
            closed = marginal_m_closed_one(z, -2.0, P)
            assert abs(quad_val - closed) <= 1e-9 * closed

    def test_strictly_decreasing_in_z(self):
        prior = PriorSpec(a=-2.0, L=LogPow(1.0))
        vals = [marginal_m(z, prior, P) for z in np.geomspace(0.1, 100.0, 20)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            marginal_m(1.0, PriorSpec(a=-4.0), P)
        with pytest.raises(ValueError):
            LogPow(0.0)
        with pytest.raises(ValueError):
            marginal_m(-1.0, PriorSpec(a=-2.0), P)

    def test_underflow_is_typed_error(self):
        # m(1e4) for p = 400 is far below the smallest double
        with pytest.raises(EvaluationError, match=r"m\(z\) underflowed to 0") as err:
            marginal_m(1e4, PriorSpec(a=-2.0, L=LogPow(1.0)), 400)
        assert err.value.w == 1e4
        assert "(p, a, L) = (400, -2.0, logpow:b=1.0)" in str(err.value)


class TestTauberian:
    def test_one_family_converges_fast(self):
        grid = np.geomspace(10.0, 1e4, 13)  # passes through z = 1e3 exactly
        rep = tauberian_check(PriorSpec(a=-2.0), P, grid)
        at_1e3 = rep.ratios[int(np.argmin(np.abs(np.asarray(rep.z_grid) - 1e3)))]
        assert abs(at_1e3 - 1.0) <= 0.02
        assert abs(rep.final_ratio - 1.0) <= 0.02

    def test_logpow_converges_within_five_percent(self):
        rep = tauberian_check(PriorSpec(a=-2.0, L=LogPow(1.0)), P, np.geomspace(10.0, 1e4, 10))
        assert abs(rep.final_ratio - 1.0) <= 0.05

    def test_trend_is_monotone_toward_one(self):
        rep = tauberian_check(PriorSpec(a=-2.0, L=LogPow(1.0)), P, Z_GRID)
        assert rep.monotone_trend

    def test_grid_precondition(self):
        with pytest.raises(ValueError):
            tauberian_check(PriorSpec(a=-2.0), P, np.geomspace(10.0, 100.0, 5))

    def test_log_gamma_is_scipys_bit_for_bit(self):
        from scipy.special import gammaln

        rng = np.random.default_rng(20)
        x = np.concatenate([
            np.arange(1, 4001) * 0.5,  # every p/2 + a + 1 of a half-integer a
            rng.uniform(0.0, 13.0, 20000),  # the recurrence branch
            rng.uniform(13.0, 2000.0, 10000),  # Stirling with the A series
            np.exp(rng.uniform(math.log(1e-300), math.log(1e300), 10000)),
        ])
        ours = np.array([_lgam(float(xi)) for xi in x])
        assert np.array_equal(ours, gammaln(x))


class TestGradientBound:
    def test_target_p5_a_minus2(self):
        rep = gradient_bound_check(PriorSpec(a=-2.0), P, Z_GRID)
        assert rep.target == 3.0
        assert abs(rep.final_value - 3.0) <= 0.02 * 3.0

    def test_target_p7(self):
        rep = gradient_bound_check(PriorSpec(a=-2.0), 7, Z_GRID)
        assert rep.target == 5.0
        assert abs(rep.final_value - 5.0) <= 0.02 * 5.0

    def test_bounded_along_grid(self):
        rep = gradient_bound_check(PriorSpec(a=-2.0, L=LogPow(1.0)), P, Z_GRID)
        cap = 1.1 * max(rep.target, rep.values[0])
        assert max(rep.values) <= cap

    @pytest.mark.parametrize("L,b", [(One(), 0.0), (LogPow(1.5), 1.5)])
    def test_grid_equals_psi_known_at_each_point(self, L, b):
        # at a = -2 the check's ratio is psi_b(||z||^2), integrated one point at a time
        rep = gradient_bound_check(PriorSpec(a=-2.0, L=L), P, Z_GRID)
        assert rep.values == tuple(psi_known(b, z**2, P) for z in rep.z_grid)


class TestBrownClassify:
    @pytest.mark.parametrize(
        "prior,verdict,boundary",
        [
            (PriorSpec(a=-1.0), "admissible", False),
            (PriorSpec(a=-2.0, L=LogPow(1.0)), "admissible", True),
            (PriorSpec(a=-2.0, L=LogPow(1.5)), "inadmissible", False),
            (PriorSpec(a=-3.0), "inadmissible", False),
            (PriorSpec(a=-3.0, L=LogPow(0.5)), "inadmissible", False),
            (PriorSpec(a=-2.0), "admissible", False),
            (PriorSpec(a=-2.0, L=LogPow(0.5)), "admissible", False),
        ],
    )
    def test_verdicts(self, prior, verdict, boundary):
        got = brown_classify(prior)
        assert got == AdmissClass(verdict, boundary)

    def test_l_family_encoding_round_trip(self):
        for L in (One(), LogPow(0.5), LogPow(1.0)):
            assert parse_l_family(encode_l_family(L)) == L
        with pytest.raises(ValueError):
            parse_l_family("powlog:b=1")


class TestPsi:
    def test_zero_at_v_zero(self):
        for b in (0.0, 1.0):
            assert psi_known(b, 0.0, P) == 0.0

    def test_two_routes_agree(self):
        for p in (5, 7):
            for b in (0.5, 1.0, 2.0):
                for v in (1.0, 10.0, 100.0):
                    lhs = psi_known(b, v, p)
                    rhs = psi_known_via_identity(b, v, p)
                    assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))

    def test_identity_boundary_term_at_b_zero(self):
        for v in (1.0, 30.0):
            lhs = psi_known(0.0, v, P)
            rhs = psi_known_via_identity(0.0, v, P)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))

    def test_shrinks_below_james_stein_level(self):
        for b in (0.5, 1.0, 2.0):
            for v in np.geomspace(0.1, 1e8, 15):
                assert psi_known(b, v, P) < P - 2.0

    def test_scaled_gap_hits_twice_b(self):
        v = 1e8
        for b in (0.5, 1.0, 2.0):
            y = math.log(v) * (P - 2.0 - psi_known(b, v, P))
            assert abs(y - 2.0 * b) <= 0.15 * 2.0 * b

    def test_tail_fit_report(self):
        rep = psi_tail_fit(1.0, P)
        assert rep.target == 2.0
        assert abs(rep.limit_estimate - 2.0) <= 0.15 * 2.0

    @pytest.mark.parametrize("route", [psi_known, psi_known_via_identity])
    def test_underflow_is_typed_error(self, route):
        with pytest.raises(EvaluationError) as err:
            route(1.0, 1e4, 400)
        assert str(err.value) == (
            f"{route.__name__}: J_b(v) underflowed to 0 at v=10000.0 for (p, b) = (400, 1.0)"
        )
        assert err.value.w == 1e4

    def test_tail_fit_underflow_is_typed_error(self):
        message = r"psi_tail_fit: J_b\(v\) underflowed"
        with pytest.raises(EvaluationError, match=message) as err:
            psi_tail_fit(1.0, 300)
        assert "for (p, b) = (300, 1.0)" in str(err.value)
        assert type(err.value.w) is float and 1e4 < err.value.w < 1e5


class TestBrownNumeric:
    def test_divergent_prior_grows(self):
        rep = brown_integral_numeric(PriorSpec(a=-1.0), P)
        assert rep.slope_last == pytest.approx(2.0, abs=0.05)
        assert rep.diverges

    def test_convergent_prior_decays(self):
        rep = brown_integral_numeric(PriorSpec(a=-3.0), P)
        assert rep.slope_last == pytest.approx(-2.0, abs=0.1)
        assert not rep.diverges

    def test_boundary_prior_slow_divergence(self):
        # truth: the integral diverges like log log r; the finite-r growth
        # between 1e3 and 1e6 measured by the oracle run is 9.79%
        rep = brown_integral_numeric(PriorSpec(a=-2.0, L=LogPow(1.0)), P)
        partial = dict(rep.checkpoints)
        assert partial[1e6] / partial[1e3] - 1.0 > 0.08

    def test_precondition(self):
        with pytest.raises(ValueError):
            brown_integral_numeric(PriorSpec(a=-1.0), P, r_max=100.0)

    @pytest.mark.parametrize("r_max,last", [
        (1e4, 1e4), (5000.0, 1e3), (math.nextafter(1e4, 0.0), 1e3), (2.5e5, 1e5),
    ])
    def test_checkpoints_stay_within_r_max(self, r_max, last):
        rep = brown_integral_numeric(PriorSpec(a=-1.0), P, r_max=r_max)
        decades = round(math.log10(last))
        assert [r for r, _ in rep.checkpoints] == [10.0**k for k in range(1, decades + 1)]

    # r^(2-p)/m(r) is 0 from r = 5.9e4 and r = 12.3: the last decade's
    # increment is 0 at p = 70, both last two are at p = 300
    @pytest.mark.parametrize("p,a,decade", [(70, -34.0, 1e5), (300, -149.0, 1e4)])
    def test_integrand_underflow_is_typed_error(self, p, a, decade):
        with pytest.raises(EvaluationError) as err:
            brown_integral_numeric(PriorSpec(a=a), p)
        assert str(err.value) == (
            "known-variance: the Brown integrand r^(2-p)/m(r) underflowed to 0 over the "
            f"decade starting at z={decade!r} for (p, a, L) = ({p}, {a!r}, one)"
        )
        assert err.value.w == decade

    @pytest.mark.parametrize("r_max", [math.inf, math.nan])
    def test_non_finite_r_max_named(self, r_max):
        with pytest.raises(ValueError, match="r_max must be finite"):
            brown_integral_numeric(PriorSpec(a=-1.0), P, r_max=r_max)


@pytest.mark.parametrize("check", [tauberian_check, gradient_bound_check])
@pytest.mark.parametrize("z", [np.append(-3.0, np.geomspace(10.0, 1e8, 14)),
                               np.geomspace(10.0, 1e8, 16).reshape(4, 4)],
                         ids=["negative-point", "2-d"])
def test_malformed_z_grid_is_input_error(check, z):
    with pytest.raises(InputError, match="z_grid must"):
        check(PriorSpec(a=-2.0), P, z)


@pytest.mark.parametrize("check", [tauberian_check, gradient_bound_check])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_z_grid_named(check, bad):
    z = np.geomspace(10.0, 1e8, 15)
    z[-1] = bad
    with pytest.raises(ValueError, match="z_grid must be finite"):
        check(PriorSpec(a=-2.0), P, z)
