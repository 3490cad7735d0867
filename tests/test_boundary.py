"""Classification verdicts, dominator construction, and diagnostics."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sure_boundary import boundary
from sure_boundary.boundary import (
    ConstructionError,
    DominatorSpec,
    QuasiClass,
    check_assumptions,
    classify,
    construct_dominator,
    default_w_grid,
    dominator_g,
    nu_from_witness,
    verify_domination,
)
from sure_boundary.core import InputError, ProblemDims, ShrinkageFunction, constants, delta
from sure_boundary.core import elementwise
from sure_boundary.families import (
    BoundaryPhi,
    GBUnknown,
    Linear,
    PositivePartJS,
    TailProfile,
    Zero,
    make_shrinkage,
    parse_phi_spec,
    tail_profile,
)

DIMS = ProblemDims(5, 6)
K = constants(DIMS)


def fn(ev, dv, label):
    return ShrinkageFunction(eval=elementwise(ev), deriv=elementwise(dv), label=label)


class TestAssumptions:
    def test_linear_ratio_is_one(self):
        rep = check_assumptions(make_shrinkage(Linear(alpha=0.5), DIMS))
        assert rep.all_ok
        assert rep.a4_ratio_range == (1.0, 1.0)

    def test_jsplus_all_pass(self):
        rep = check_assumptions(make_shrinkage(PositivePartJS(a=0.375), DIMS))
        assert rep.all_ok
        assert rep.a4_ratio_range == (0.0, 0.0)  # tail sits past the kink

    def test_zero_phi_ratio_convention(self):
        rep = check_assumptions(make_shrinkage(Zero(), DIMS))
        assert rep.all_ok
        assert rep.a4_ratio_range == (0.0, 0.0)

    def test_nonzero_origin_fails_a1(self):
        shifted = fn(lambda w: w + 0.3, lambda w: np.ones_like(w), "w+0.3")
        rep = check_assumptions(shifted)
        assert not rep.a1_ok

    def test_generalized_bayes_members_pass(self):
        # tabulated members carry spline noise ~1e-21 in the flat tail; the
        # oscillation count must not mistake it for extrema
        for spec in (GBUnknown(a=-2.0, b=1.0), GBUnknown(a=-1.0)):
            rep = check_assumptions(make_shrinkage(spec, DIMS))
            assert rep.all_ok, rep

    def test_genuine_oscillation_still_counted(self):
        wiggly = fn(
            lambda w: w * (2.0 + np.sin(w)),
            lambda w: 2.0 + np.sin(w) + w * np.cos(w),
            "oscillating",
        )
        rep = check_assumptions(wiggly)
        assert not rep.a2_ok


EXPECTED_MATRIX = [
    (Zero(), DIMS, "QuasiInadmissible"),
    (PositivePartJS(a=K.c_pn), DIMS, "QuasiAdmissible"),
    (Linear(alpha=0.3), DIMS, "QuasiAdmissible"),
    (Linear(alpha=0.7), DIMS, "QuasiAdmissible"),
    (BoundaryPhi(b=0.5), DIMS, "QuasiAdmissible"),
    (BoundaryPhi(b=2.0), DIMS, "QuasiInadmissible"),
    (BoundaryPhi(b=1.0), DIMS, "Indeterminate"),
    (GBUnknown(a=-1.0), DIMS, "QuasiAdmissible"),
    (GBUnknown(a=-3.0), ProblemDims(9, 6), "QuasiInadmissible"),
]


class TestClassify:
    @pytest.mark.parametrize("spec,dims,expected", EXPECTED_MATRIX,
                             ids=[str(e[0]) for e in EXPECTED_MATRIX])
    def test_verdict_matrix(self, spec, dims, expected):
        phi = make_shrinkage(spec, dims)
        assert classify(phi, dims).variant == expected

    def test_denser_grid_never_flips_verdicts(self):
        for spec, dims, expected in EXPECTED_MATRIX:
            phi = make_shrinkage(spec, dims)
            coarse = classify(phi, dims, w_grid=np.geomspace(2.0, 1e8, 300))
            dense = classify(phi, dims, w_grid=np.geomspace(2.0, 1e8, 2500))
            flips = {coarse.variant, dense.variant}
            assert flips != {"QuasiAdmissible", "QuasiInadmissible"}

    @pytest.mark.parametrize("spec,dims", [
        ("zero", ProblemDims(5, 6)),
        ("boundary:b=2.0", ProblemDims(6, 17)),
        ("gb:a=-2,b=3.0", ProblemDims(19, 16)),
    ], ids=["zero", "boundary", "gb"])
    def test_verdict_threshold_is_where_construction_starts(self, spec, dims):
        # one scan on one grid: witness 1.5 gives the dominator's own w_star
        phi = make_shrinkage(parse_phi_spec(spec), dims)
        verdict = classify(phi, dims, margin=0.5)
        assert verdict.b_witness == 1.5
        assert verdict.w_star == construct_dominator(phi, dims, 1.5).w_star

    def test_witnesses_sit_at_margin_edges(self):
        v = classify(make_shrinkage(Zero(), DIMS), DIMS)
        assert v.b_witness == pytest.approx(1.05)
        assert v.w_star > 1.0
        v = classify(make_shrinkage(Linear(alpha=0.5), DIMS), DIMS)
        assert v.b_witness == pytest.approx(0.95)

    def test_unbounded_phi_that_rises_late_is_indeterminate(self):
        # the admissible-side inequality holds only over the last decade
        late = dataclasses.replace(
            fn(lambda w: np.where(w > 1e7, w, 0.0),
               lambda w: np.where(w > 1e7, 1.0, 0.0), "late-riser"),
            tail=TailProfile(phi_limit=math.inf),
        )
        v = classify(late, DIMS)
        assert v.variant == "Indeterminate"
        assert v.reason == (
            "phi unbounded but the admissible-side inequality did not "
            "stabilize on the grid"
        )

    ASCENDING = np.geomspace(2.0, 1e8, 700)

    @pytest.mark.parametrize("grid, message", [
        (ASCENDING[::-1], "w_grid must be 1-d, finite and strictly ascending"),
        (np.append(ASCENDING, np.nan), "w_grid must be finite, got nan"),
        (ASCENDING.reshape(7, 100), "w_grid must be 1-d, finite and strictly ascending"),
    ], ids=["descending", "nan", "2-d"])
    def test_malformed_grid_rejected(self, grid, message):
        with pytest.raises(InputError, match=message):
            classify(make_shrinkage(Zero(), DIMS), DIMS, w_grid=grid)

    def test_grid_without_a_point_above_one_rejected(self):
        with pytest.raises(ValueError, match="w_grid must have a point above 1"):
            classify(make_shrinkage(Zero(), DIMS), DIMS, w_grid=np.linspace(0.0, 1.0, 700))

    def test_margin_below_float_resolution_rejected(self):
        # 1 + 1e-17 == 1.0, so neither witness would lie off b = 1
        with pytest.raises(ValueError, match="leaves 1 \\+ margin equal to 1"):
            classify(make_shrinkage(Zero(), DIMS), DIMS, margin=1e-17)

    def test_constructor_invariants(self):
        with pytest.raises(ValueError):
            QuasiClass.admissible(1.2, 10.0)
        with pytest.raises(ValueError):
            QuasiClass.inadmissible(0.8, 10.0)
        with pytest.raises(ValueError):
            QuasiClass.inadmissible(1.2, 0.5)


class TestConstruct:
    def test_nu_hand_value(self):
        # b = 1.5, phi_star = 0: (2*1.5*0.34375 - 0.5) / 3 = 0.17708333...
        assert nu_from_witness(1.5, 0.0, DIMS) == pytest.approx(
            0.5312499999999999 / 3.0, abs=1e-15
        )

    def test_nu_clamps_at_one(self):
        assert nu_from_witness(10.0, 0.0, DIMS) == 1.0

    @settings(max_examples=50, deadline=None)
    @given(
        b1=st.floats(min_value=1.01, max_value=8.0),
        b2=st.floats(min_value=1.01, max_value=8.0),
        phi_star=st.floats(min_value=0.0, max_value=0.375),
    )
    def test_nu_monotone_in_witness(self, b1, b2, phi_star):
        lo, hi = sorted((b1, b2))
        assert nu_from_witness(lo, phi_star, DIMS) <= nu_from_witness(hi, phi_star, DIMS)

    def test_constructed_spec_for_mle(self):
        phi = make_shrinkage(Zero(), DIMS)
        spec = construct_dominator(phi, DIMS, 1.5)
        assert spec.nu == pytest.approx(0.17708333333333334)
        assert spec.b == 1.5
        assert spec.w_sharp >= spec.w_star > 1.0

    def test_constructed_g_shape(self):
        phi = make_shrinkage(Zero(), DIMS)
        spec = construct_dominator(phi, DIMS, 1.5)
        g = dominator_g(spec)
        assert g.eval(0.0) == 0.0
        assert g.eval(spec.w_sharp) == 0.0
        for w in (spec.w_sharp * 1.5, spec.w_sharp * 10, 1e7):
            assert 0.0 < g.eval(w) < 1.0

    def test_construction_postcondition(self):
        phi = make_shrinkage(Zero(), DIMS)
        spec = construct_dominator(phi, DIMS, 1.5)
        cert = verify_domination(phi, spec, DIMS)
        assert cert.verdict and not cert.trivial

    def test_requires_witness_above_one(self):
        with pytest.raises(ValueError):
            construct_dominator(make_shrinkage(Zero(), DIMS), DIMS, 0.9)

    def test_search_stops_at_the_grid_top(self, monkeypatch):
        # from the grid top on, g vanishes at every grid point, so no later
        # doubling could give a certificate that is not vacuous
        signs = boundary._delta_signs
        tried = []

        def failing(spec, grid, deltas):
            tried.append(spec.w_sharp)
            min_above, zero_below, _ = signs(spec, grid, deltas)
            return min_above, zero_below, False

        monkeypatch.setattr(boundary, "_delta_signs", failing)
        top = default_w_grid()[-1]
        with pytest.raises(ConstructionError) as err:
            construct_dominator(make_shrinkage(Zero(), DIMS), DIMS, 1.5)
        assert str(err.value) == "no verifying w_sharp below the grid top 1e+08"
        last = err.value.diagnostics["last_w_sharp"]
        assert last == tried[-1] and last < top <= 2.0 * last
        assert all(w == tried[0] * 2.0**i for i, w in enumerate(tried))

    def test_phi_is_evaluated_once_per_construction(self):
        phi = make_shrinkage(GBUnknown(a=-2.0, b=2.0), DIMS)
        calls = {"eval": 0, "deriv": 0}

        def counted(name):
            def run(w):
                calls[name] += 1
                return getattr(phi, name)(w)

            return run

        spy = dataclasses.replace(phi, eval=counted("eval"), deriv=counted("deriv"))
        spec = construct_dominator(spy, DIMS, 1.5)
        # once on the whole grid, for w_star and every doubling
        assert calls == {"eval": 1, "deriv": 1}
        # the doubling search run through verify_domination's default grid
        # finds the same spec
        ref = dataclasses.replace(spec, w_sharp=spec.w_star, ramp_width=spec.w_star)
        while not (cert := verify_domination(phi, ref, DIMS)).verdict or cert.trivial:
            ref = dataclasses.replace(ref, w_sharp=2.0 * ref.w_sharp, ramp_width=2.0 * ref.w_sharp)
        assert ref == spec
        assert spec.w_sharp >= 8.0 * spec.w_star

    @pytest.mark.parametrize("run", [lambda phi: classify(phi, DIMS),
                                     lambda phi: construct_dominator(phi, DIMS, 1.5)],
                             ids=["classify", "construct_dominator"])
    def test_phi_without_tail_profile_is_a_typed_error(self, run):
        # phi_limit comes only from the tail profile a family attaches
        bare = fn(lambda w: 0.0 * w, lambda w: 0.0 * w, "bare-zero")
        with pytest.raises(ValueError, match="bare-zero has no tail profile"):
            run(bare)

    def test_unbounded_phi_rejected(self):
        with pytest.raises(ConstructionError):
            construct_dominator(make_shrinkage(Linear(alpha=0.5), DIMS), DIMS, 1.5)

    def test_admissible_side_phi_rejected(self):
        # jsplus at c_pn never satisfies the quasi-inadmissible inequality
        phi = make_shrinkage(PositivePartJS(a=K.c_pn), DIMS)
        with pytest.raises(ConstructionError):
            construct_dominator(phi, DIMS, 1.5)


class TestVerify:
    def test_bit_exact_zero_below_sharp(self):
        phi = make_shrinkage(Zero(), DIMS)
        spec = construct_dominator(phi, DIMS, 1.5)
        cert = verify_domination(phi, spec, DIMS)
        for w, d in cert.grid:
            if w <= spec.w_sharp:
                assert d == 0.0

    def test_shrunken_ramp_fails_with_negative_delta(self):
        phi = make_shrinkage(Zero(), DIMS)
        spec = construct_dominator(phi, DIMS, 1.5)
        shrunk = dataclasses.replace(
            spec, w_sharp=0.01 * spec.w_sharp, ramp_width=0.01 * spec.ramp_width
        )
        cert = verify_domination(phi, shrunk, DIMS, default_w_grid(points=2000))
        assert not cert.verdict
        assert cert.min_delta_above_sharp < 0.0

    def test_degenerate_ramp_beyond_grid_is_trivially_true(self):
        phi = make_shrinkage(Zero(), DIMS)
        spec = DominatorSpec(nu=0.5, w_sharp=1e9, ramp_width=1e9, b=1.5, w_star=4.0)
        cert = verify_domination(phi, spec, DIMS)
        assert cert.verdict
        assert cert.trivial

    def test_grid_preconditions(self):
        phi = make_shrinkage(Zero(), DIMS)
        spec = DominatorSpec(nu=0.5, w_sharp=4.0, ramp_width=4.0, b=1.5, w_star=4.0)
        with pytest.raises(ValueError):
            verify_domination(phi, spec, DIMS, np.geomspace(1.0, 1e8, 100))

    @pytest.mark.parametrize("grid, message", [
        (np.array([0.0] + 600 * [1e8]), "w_grid must be 1-d, finite and strictly ascending"),
        (np.append(default_w_grid(), np.inf), "w_grid must be finite, got inf"),
    ], ids=["one-point-repeated", "inf"])
    def test_malformed_grid_rejected(self, grid, message):
        phi = make_shrinkage(Zero(), DIMS)
        spec = DominatorSpec(nu=0.5, w_sharp=4.0, ramp_width=4.0, b=1.5, w_star=4.0)
        with pytest.raises(InputError, match=message):
            verify_domination(phi, spec, DIMS, grid)

    def test_default_grid_is_one_read_only_array(self):
        grid = default_w_grid()
        fresh = np.concatenate([[0.0], np.geomspace(1e-6, 1e8, boundary.GRID_POINTS_DEFAULT)])
        assert np.array_equal(grid, fresh)
        assert default_w_grid(points=boundary.GRID_POINTS_DEFAULT) is grid
        assert not grid.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            grid[1] = 1.0
        assert not default_w_grid(points=900).flags.writeable
        # a float count equal to a cached int count still raises
        assert default_w_grid(np.int64(boundary.GRID_POINTS_DEFAULT)).shape == grid.shape
        with pytest.raises(TypeError):
            default_w_grid(np.float64(boundary.GRID_POINTS_DEFAULT))


class TestLemmaWitness:
    """A g breaking g(0) >= 0, g >= 0 or positivity persistence has Delta < 0
    somewhere on the positive part of default_w_grid(points=900)."""

    GRID = default_w_grid(points=900)[1:]

    def test_negative_constant_g_yields_witness(self):
        phi = make_shrinkage(Zero(), DIMS)
        g = fn(lambda w: np.full_like(w, -0.1), lambda w: np.zeros_like(w), "-0.1")
        assert np.min(delta(phi, g, self.GRID, DIMS)) < 0.0

    def test_vanishing_after_positive_yields_witness(self):
        phi = make_shrinkage(Zero(), DIMS)
        g = fn(
            lambda w: np.maximum(0.0, 1.0 - w),
            lambda w: np.where(w < 1.0, -1.0, 0.0),
            "max(0,1-w)",
        )
        assert np.min(delta(phi, g, self.GRID, DIMS)) < 0.0
        # the persistence failure also forces a violation near the vanishing point
        assert delta(phi, g, 0.9, DIMS) < 0.0
