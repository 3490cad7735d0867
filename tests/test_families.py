"""Shrinkage catalog: encodings, generalized Bayes routes, tail fits."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sure_boundary import families
from sure_boundary.core import EvaluationError, InputError, ProblemDims, constants
from sure_boundary.families import (
    BoundaryPhi,
    GBUnknown,
    Linear,
    PositivePartJS,
    TailProfile,
    Zero,
    encode_phi_spec,
    make_shrinkage,
    parse_phi_spec,
    phi_gb_identity_saigo4,
    phi_gb_limit,
    phi_gb_unknown,
    phi_gb_unknown_deriv,
    boundary_floor,
    tail_profile,
)
from sure_boundary.known_variance import LogPow, PriorSpec, encode_l_family, parse_l_family
from sure_boundary.montecarlo import StudentT, encode_model, parse_model
from sure_boundary.quadrature import QuadratureConfig

DIMS = ProblemDims(5, 6)
K = constants(DIMS)


class TestSpecEncoding:
    @pytest.mark.parametrize(
        "text,spec",
        [
            ("zero", Zero()),
            ("linear:alpha=0.5", Linear(alpha=0.5)),
            ("jsplus:a=0.375", PositivePartJS(a=0.375)),
            ("boundary:b=1.0", BoundaryPhi(b=1.0)),
            ("gb:a=-2,b=1.0", GBUnknown(a=-2.0, b=1.0)),
        ],
    )
    def test_parse_examples(self, text, spec):
        assert parse_phi_spec(text) == spec

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            st.just(Zero()),
            st.builds(Linear, alpha=st.floats(min_value=0.0, max_value=1.0)),
            st.builds(PositivePartJS, a=st.floats(min_value=1e-3, max_value=50.0)),
            st.builds(BoundaryPhi, b=st.floats(min_value=0.1, max_value=4.0)),
            st.builds(
                GBUnknown,
                a=st.floats(min_value=-1.9, max_value=2.0),
                b=st.floats(min_value=0.0, max_value=3.0),
            ),
        )
    )
    def test_round_trip(self, spec):
        text = encode_phi_spec(spec)
        assert parse_phi_spec(text) == spec
        assert encode_phi_spec(parse_phi_spec(text)) == text

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=2.01, max_value=1e6))
    def test_model_round_trip(self, df):
        assert parse_model(encode_model(StudentT(df=df))) == StudentT(df=df)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=10.0))
    def test_l_family_round_trip(self, b):
        assert parse_l_family(encode_l_family(LogPow(b=b))) == LogPow(b=b)

    def test_malformed_specs_rejected(self):
        for bad in ("nope", "linear", "linear:alpha", "jsplus:b=1", "gb:b=1"):
            with pytest.raises(ValueError):
                parse_phi_spec(bad)

    @pytest.mark.parametrize(
        "text,key",
        [("gb:a=-2,B=2.5", "'B'"), ("jsplus:a=0.3,bogus=1", "'bogus'"),
         ("linear:alpha=0.5,alpha=0.7", "'alpha'"),
         ("student-t:df=5,df=6", "repeats parameter 'df'"),
         ("logpow:b=1,b=2", "repeats parameter 'b'"),
         ("one:b=1", "unknown parameter 'b'"),
         ("student-t:df=inf", "non-finite parameter 'df'"),
         ("gb:a=-2,b=inf", "non-finite parameter 'b'")],
    )
    def test_unknown_or_repeated_parameter_named(self, text, key):
        parse = {"student-t": parse_model, "one": parse_l_family,
                 "logpow": parse_l_family}.get(text.partition(":")[0], parse_phi_spec)
        with pytest.raises(ValueError, match=key):
            parse(text)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Linear(alpha=1.5)
        with pytest.raises(ValueError):
            PositivePartJS(a=0.0)
        with pytest.raises(ValueError):
            BoundaryPhi(b=-1.0)
        with pytest.raises(ValueError):
            GBUnknown(a=-5.0, b=1.0).validate_for(DIMS)

    @pytest.mark.parametrize(
        "kind,params,key",
        [(StudentT, {"df": math.inf}, "df"),
         (GBUnknown, {"a": math.inf}, "a"),
         (GBUnknown, {"a": -2.0, "b": math.nan}, "b"),
         (BoundaryPhi, {"b": math.inf}, "b"),
         (PriorSpec, {"a": math.inf}, "a"),
         (Linear, {"alpha": math.nan}, "alpha"),
         (PositivePartJS, {"a": math.inf}, "a"),
         (LogPow, {"b": math.inf}, "b")],
        ids=lambda v: v.__name__ if isinstance(v, type) else None,
    )
    def test_non_finite_parameter_built_in_code_named(self, kind, params, key):
        with pytest.raises(ValueError, match=f"non-finite parameter '{key}'"):
            kind(**params)


ALL_SPECS = [
    Zero(),
    Linear(alpha=0.5),
    PositivePartJS(a=0.375),
    BoundaryPhi(b=0.5),
    BoundaryPhi(b=1.0),
    BoundaryPhi(b=2.0),
    GBUnknown(a=-2.0, b=1.0),
]


class TestNonnegativity:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=encode_phi_spec)
    def test_zero_at_origin_and_nonnegative(self, spec):
        phi = make_shrinkage(spec, DIMS)
        grid = np.concatenate([[0.0], np.geomspace(1e-8, 1e10, 300)])
        vals = np.asarray(phi.eval(grid))
        assert vals[0] == 0.0
        assert np.all(vals >= 0.0)

    def test_boundary_floor_default_keeps_origin_at_zero(self):
        for b in (0.25, 0.5, 1.0, 2.0, 5.0):
            phi = make_shrinkage(BoundaryPhi(b=b), DIMS)
            assert phi.eval(0.0) == 0.0
        # exactly 0.0 up to the floor in every cell, not ~1e-17 from the
        # exp/log round trip of the zero crossing
        for p in range(3, 41):
            for n in range(3, 41):
                dims = ProblemDims(p, n)
                for b in (0.5, 1.0, 1.5, 2.0):
                    phi = make_shrinkage(BoundaryPhi(b=b), dims)
                    floor = boundary_floor(BoundaryPhi(b=b), dims)
                    assert phi.eval(0.0) == phi.eval(floor) == 0.0
        # the crossing cap: floor never exceeds e^2, also where the crossing
        # itself would overflow
        for b in (10.0, 1e3, 1e308):
            assert boundary_floor(BoundaryPhi(b=b), DIMS) == math.exp(2.0)


class TestGBUnknown:
    def test_zero_at_w_zero(self):
        assert phi_gb_unknown(-2.0, 1.0, 0.0, DIMS) == 0.0

    def test_a_minus_two_limit_bracket(self):
        for b in (0.5, 1.0, 2.0):
            val = phi_gb_unknown(-2.0, b, 1e8, DIMS)
            assert 0.3 <= val <= 0.375

    def test_a_zero_limit_bracket(self):
        assert phi_gb_limit(0.0, DIMS) == pytest.approx(1.75)
        val = phi_gb_unknown(0.0, 0.0, 1e8, DIMS)
        assert 1.6 <= val <= 1.75

    def test_deriv_against_finite_difference(self):
        for w in (1.0, 10.0, 100.0):
            anal = phi_gb_unknown_deriv(-2.0, 1.0, w, DIMS)
            h = 1e-4 * w
            fd = (
                phi_gb_unknown(-2.0, 1.0, w + h, DIMS)
                - phi_gb_unknown(-2.0, 1.0, w - h, DIMS)
            ) / (2.0 * h)
            assert abs(anal - fd) <= 1e-5 * abs(fd)

    def test_deriv_matches_slope_near_origin(self):
        gaps = []
        for w in (1e-3, 1e-4):
            ratio = phi_gb_unknown(-2.0, 1.0, w, DIMS) / w
            deriv = phi_gb_unknown_deriv(-2.0, 1.0, w, DIMS)
            gaps.append(abs(deriv - ratio))
        assert gaps[1] < gaps[0]
        assert gaps[1] < 1e-4

    def test_deriv_positive_spot(self):
        assert phi_gb_unknown_deriv(-2.0, 1.0, 1.0, DIMS) > 0.0

    def test_monotone_and_bounded_toward_limit(self):
        for a in (-2.0, -1.0, 0.0):
            limit = phi_gb_limit(a, DIMS)
            vals = [phi_gb_unknown(a, 0.0, w, DIMS) for w in np.geomspace(0.1, 1e8, 25)]
            assert all(x < y + 1e-12 for x, y in zip(vals, vals[1:]))
            assert all(v <= limit + 1e-9 for v in vals)

    def test_quadrature_self_consistency(self):
        for a, b, w in [(-2.0, 1.0, 7.0), (-2.0, 0.5, 1e5), (0.0, 2.0, 30.0)]:
            loose = phi_gb_unknown(a, b, w, DIMS, QuadratureConfig(rel_tol=1e-8))
            tight = phi_gb_unknown(a, b, w, DIMS, QuadratureConfig(rel_tol=5e-9))
            assert abs(loose - tight) <= 1e-8 * (1.0 + abs(tight))

    def test_compiled_spline_tracks_exact_route(self):
        phi = make_shrinkage(GBUnknown(a=-2.0, b=1.0), DIMS)
        for w in (1e-4, 0.01, 1.0, 7.3, 100.0, 1e6, 1e8):
            exact = phi_gb_unknown(-2.0, 1.0, w, DIMS)
            assert abs(phi.eval(w) - exact) <= 5e-7 * (1.0 + exact)

    def test_compiled_deriv_consistent_with_compiled_eval(self):
        phi = make_shrinkage(GBUnknown(a=-2.0, b=1.0), DIMS)
        for w in (0.5, 5.0, 500.0):
            h = 1e-6 * w
            fd = (phi.eval(w + h) - phi.eval(w - h)) / (2.0 * h)
            assert abs(phi.deriv(w) - fd) <= 1e-4 * abs(fd)


class TestGBTable:
    @pytest.mark.parametrize(
        "a,b,p,n",
        [
            (-2.0, 0.0, 3, 3),
            (-2.0, 2.5, 5, 6),
            (-1.0, 1.3, 12, 19),
            (0.0, 0.0, 5, 6),
            (-2.0, 1.0, 20, 20),
        ],
    )
    def test_batched_table_equals_exact_route(self, a, b, p, n):
        dims = ProblemDims(p, n)
        edges, x, vals = families._gb_samples(a, b, dims, QuadratureConfig())
        exact = [phi_gb_unknown(a, b, math.exp(xi), dims) for xi in x]
        assert len(x) == families._CHEB_N * (len(edges) - 1)
        assert np.array_equal(vals, exact)

    def test_table_keyed_and_built_on_rel_tol(self, monkeypatch):
        seen = []
        build = families._gb_samples

        def spy(a, b, dims, cfg):
            seen.append(cfg)
            return build(a, b, dims, cfg)

        monkeypatch.setattr(families, "_gb_samples", spy)
        spec, dims = GBUnknown(a=-2.0, b=0.8125), ProblemDims(4, 7)
        loose = QuadratureConfig(rel_tol=1e-8)
        tight = QuadratureConfig(rel_tol=1e-10)
        make_shrinkage(spec, dims, loose)
        make_shrinkage(spec, dims, tight)
        make_shrinkage(spec, dims, loose)
        assert seen == [loose, tight]

    def test_table_cache_is_bounded(self, monkeypatch):
        # tables of one stand-in piece, so that more than the cache holds build fast
        edges = families._GB_NODES[[0, -1]]
        x = edges.mean() + 0.5 * (edges[1] - edges[0]) * families._CHEB_T
        monkeypatch.setattr(families, "_gb_samples", lambda a, b, dims, cfg: (edges, x, b * np.exp(x)))
        bound = families._gb_table.cache_info().maxsize
        assert bound == families._GB_TABLES_KEPT
        families._gb_table.cache_clear()
        try:
            for i in range(bound + 5):
                families._gb_table(-2.0, 1.0 + i, 5, 6, QuadratureConfig())
                assert families._gb_table.cache_info().currsize <= bound
        finally:
            families._gb_table.cache_clear()

    def test_too_singular_endpoint_rejected_like_exact_route(self):
        # q = p/2 + a = -0.999 passes validate_for but not the fixed horizon
        spec, dims = GBUnknown(a=-2.499, b=0.0), ProblemDims(3, 6)
        spec.validate_for(dims)
        with pytest.raises(ValueError, match="too singular"):
            phi_gb_unknown(spec.a, spec.b, 1.0, dims)
        with pytest.raises(ValueError, match="too singular"):
            make_shrinkage(spec, dims)

    def test_d_underflow_is_typed(self):
        dims = ProblemDims(52, 52)
        with pytest.raises(EvaluationError, match=r"D\(w\) underflowed") as err:
            make_shrinkage(GBUnknown(a=-2.0, b=2.0), dims)
        assert "(52, 52, -2.0, 2.0)" in str(err.value)
        with pytest.raises(EvaluationError, match=r"D\(w\) underflowed") as scalar:
            phi_gb_unknown(-2.0, 2.0, err.value.w, dims)
        assert scalar.value.w == err.value.w
        for route in (
            lambda: phi_gb_unknown_deriv(-2.0, 2.0, err.value.w, dims),
            lambda: phi_gb_identity_saigo4(2.0, err.value.w, dims),
        ):
            with pytest.raises(EvaluationError, match=r"D\(w\) underflowed"):
                route()

    def test_derivative_den_squared_underflow_is_typed(self):
        # D(w) is tiny but not 0, so phi itself is fine while D(w)**2 is 0
        dims = ProblemDims(41, 10)
        assert phi_gb_unknown(-2.0, 0.0, 1e8, dims) == 3.2499999999999996
        message = r"derivative route: D\(w\)\*\*2 underflowed"
        with pytest.raises(EvaluationError, match=message) as err:
            phi_gb_unknown_deriv(-2.0, 0.0, 1e8, dims)
        assert "at w=100000000.0 for (p, n, a, b) = (41, 10, -2.0, 0.0)" in str(err.value)
        assert err.value.w == 1e8

    def test_largest_square_dims_still_build(self):
        # (46, 46) is the largest square that builds; at (48, 48) N(w)
        # underflows at the top of the table, where phi would read 0, and the
        # error names the first sample there
        dims = ProblemDims(46, 46)
        phi = make_shrinkage(GBUnknown(a=-2.0, b=2.0), dims)
        assert np.all(np.isfinite(phi.eval(np.geomspace(1e-9, 1e13, 50))))
        _, x, vals = families._gb_samples(-2.0, 2.0, dims, QuadratureConfig())
        top = vals[x > math.log(1e11)]
        assert np.all(np.diff(top) > 0.0) and top[-1] < phi_gb_limit(-2.0, dims)
        with pytest.raises(EvaluationError, match=r"N\(w\) underflowed") as err:
            make_shrinkage(GBUnknown(a=-2.0, b=2.0), ProblemDims(48, 48))
        assert "(48, 48, -2.0, 2.0)" in str(err.value)
        assert 1.30e12 < err.value.w < 1.31e12

    @pytest.mark.parametrize("a,b,w,p", [(-2.0, 2.0, 400.0, 200), (-1.0, 1.3, 1e30, 20)])
    def test_n_underflow_is_typed(self, a, b, w, p):
        with pytest.raises(EvaluationError, match=r"N\(w\) underflowed") as err:
            phi_gb_unknown(a, b, w, ProblemDims(p, p))
        assert err.value.w == w
        assert str(err.value) == (
            f"gb: N(w) underflowed to 0 at w={w!r} for (p, n, a, b) = ({p}, {p}, {a!r}, {b!r})"
        )


def _reference_gb(a, b, dims):
    """eval and deriv of a gb member built on scipy's CubicHermiteSpline.

    The reference the compiled member must equal bit for bit: linear below
    the table, the Hermite cubic in log w on it, through the values and
    slopes of the series at the table nodes, constant above.
    """
    from scipy.interpolate import CubicHermiteSpline

    x = families._GB_NODES
    vals, slopes = families._gb_series(a, b, dims, QuadratureConfig())
    spline = CubicHermiteSpline(x, vals, slopes)
    dspline = spline.derivative()
    x_lo, x_hi = x[0], x[-1]
    w_lo = math.exp(x_lo)
    slope0 = vals[0] / w_lo

    def ev(w):
        x = np.log(np.maximum(w, w_lo))
        out = spline(np.clip(x, x_lo, x_hi))
        out = np.where(x > x_hi, vals[-1], out)
        return np.where(w < w_lo, slope0 * w, out)

    def dv(w):
        x = np.log(np.maximum(w, w_lo))
        with np.errstate(divide="ignore"):
            out = dspline(np.clip(x, x_lo, x_hi)) / w
        out = np.where(x > x_hi, 0.0, out)
        return np.where(w < w_lo, slope0, out)

    return x, ev, dv


class TestGBSpline:
    """The compiled gb member equals the CubicHermiteSpline reference bit for bit."""

    @pytest.mark.parametrize(
        "a,b,p,n",
        [
            (-2.0, 0.0, 5, 6),
            (-2.0, 1.0, 5, 6),
            (-2.0, 2.5, 5, 6),
            (-1.0, 1.3, 12, 19),
            (0.0, 0.0, 3, 3),
            (-2.0, 2.0, 46, 46),
        ],
    )
    def test_equals_cubic_spline_reference(self, a, b, p, n):
        dims = ProblemDims(p, n)
        nodes, ref_eval, ref_deriv = _reference_gb(a, b, dims)
        w_nodes = np.exp(nodes)
        neighbours = [w_nodes]
        for _ in range(2):
            neighbours = [np.nextafter(neighbours[0], 0.0), *neighbours,
                          np.nextafter(neighbours[-1], np.inf)]
        rng = np.random.default_rng(20161109)
        w = np.concatenate([
            *neighbours,
            np.exp(0.5 * (nodes[:-1] + nodes[1:])),
            np.exp(rng.uniform(nodes[0] - 2.0, nodes[-1] + 2.0, 4000)),
            rng.permutation(w_nodes),
            [0.0, 5e-324, 1e-300, w_nodes[0], w_nodes[-1], 1e300, np.inf],
        ])
        # one of its neighbours hits a node exactly in log w, except near
        # log w = 0, where doubles in log w are finer than those in w
        assert np.isin(nodes, np.log(w[w > 0.0])).sum() >= 495
        phi = make_shrinkage(GBUnknown(a=a, b=b), dims)
        # the reference deriv overflows at subnormal w before its linear
        # branch replaces the value; the compiled one must not warn anywhere
        assert _with_warnings(ref_deriv, np.array([5e-324]))[1] != []
        for got, want in ((phi.eval, ref_eval), (phi.deriv, ref_deriv)):
            assert _with_warnings(got, w) == (_with_warnings(want, w)[0], [])
            for wi in w[::97]:
                want_i = _with_warnings(want, np.float64(wi))[0]
                assert _with_warnings(got, float(wi)) == (want_i, [])
            nan = np.array([np.nan, 1.0, np.nan])
            out, caught = _with_warnings(got, nan)
            assert caught == [] and np.isnan(out[0]) and np.isnan(out[2])
            assert out[1] == want(nan)[1]
            out, caught = _with_warnings(got, math.nan)
            assert caught == [] and isinstance(out, float) and math.isnan(out)

    def test_one_piece_reproduces_polynomials(self):
        # _CHEB_N samples fix a series of degree < _CHEB_N, so one piece gives
        # back the values and slopes of such a polynomial in x at the nodes
        nodes = families._GB_NODES
        edges = nodes[[0, -1]]
        half = 0.5 * (edges[1] - edges[0])
        x = edges.mean() + half * families._CHEB_T
        rng = np.random.default_rng(6)
        for degree in (0, 1, 6, 20, families._CHEB_N - 1):
            poly = np.polynomial.Polynomial(rng.normal(size=degree + 1), domain=edges)
            c = families._cheb_coefs(poly(x)[None])
            y, dy = families._cheb_eval(edges, c, nodes)
            assert np.max(np.abs(y - poly(nodes))) < 1e-12, degree
            assert np.max(np.abs(dy - poly.deriv()(nodes))) < 1e-12, degree

    def test_piece_with_slowly_decaying_tail_is_split(self, monkeypatch):
        # log phi = |log w - 1|**3 / 100 is a cubic on three of the first four
        # pieces, but on the one holding log w = 1 its coefficients decay as
        # k**-4: that piece is halved, down to the bound, and no other is
        passes = []

        def stand_in(a, b, w, dims, cfg):
            passes.append(len(w))
            return 0.0, 0.0, np.exp(np.abs(np.log(w) - 1.0) ** 3 / 100) / w, np.ones_like(w)

        monkeypatch.setattr(families, "_gb_num_den", stand_in)
        edges, x, _ = families._gb_samples(-2.0, 1.0, DIMS, QuadratureConfig())
        first = np.linspace(edges[0], edges[-1], families._GB_PIECES + 1)
        assert len(passes) == families._GB_MAX_SPLITS + 1
        assert np.all(np.diff(x) > 0.0) and np.isin(first, edges).all()
        inner = edges[(edges > first[1]) & (edges < first[2])]
        assert first[1] < 1.0 < first[2] and len(inner) == families._GB_MAX_SPLITS
        assert len(edges) == len(first) + families._GB_MAX_SPLITS
        width = np.diff(edges).min()
        assert width == pytest.approx((first[1] - first[0]) / 2**families._GB_MAX_SPLITS)

    def test_noisy_top_builds_within_split_bound(self, monkeypatch):
        # N(w) is subnormal near the top of the window here, so the samples
        # there are noise that no split resolves; the build stops at the
        # bound, and the chopped series keeps that noise out of the slopes
        # (unchopped, the error at w = 1e13 was 1.1e-5)
        passes = []
        num_den = families._gb_num_den

        def spy(a, b, w, dims, cfg):
            passes.append(len(w))
            return num_den(a, b, w, dims, cfg)

        monkeypatch.setattr(families, "_gb_num_den", spy)
        families._gb_table.cache_clear()
        dims = ProblemDims(46, 46)
        phi = make_shrinkage(GBUnknown(a=-1.5, b=2.0), dims)
        assert len(passes) == families._GB_MAX_SPLITS + 1
        w = np.geomspace(1e11, 1e13, 200)
        _, _, num, den = num_den(-1.5, 2.0, w, dims, QuadratureConfig())
        assert np.max(np.abs(phi.eval(w) / (w * num / den) - 1.0)) < 1e-6


class TestGBTableAccuracy:
    def test_relative_error_against_exact_route(self):
        # the compiled member against the batched exact route on 2000
        # log-uniform points of the table window: below 1e-7 for every
        # member, and over the whole window at small p + n.  Near w = 1 the
        # 0.1 step alone leaves up to 3.6e-6 at large p + n with b <= 0.5.
        w = np.geomspace(1e-9, 1e13, 2000)
        small = ((3, 3), (5, 6), (10, 3), (3, 40))
        checked = 0
        for p, n in (*small, (20, 20), (40, 40), (46, 46)):
            dims = ProblemDims(p, n)
            pts = w if (p, n) in small else w[w <= 1e-7]
            for a in (-3.0, -2.0, -1.5, -1.0):
                for b in (0.0, 0.5, 2.0):
                    spec = GBUnknown(a=a, b=b)
                    try:
                        spec.validate_for(dims)
                        phi = make_shrinkage(spec, dims)
                    except (InputError, EvaluationError):  # p/2 + a + 1 <= 0, or N underflows
                        continue
                    _, _, num, den = families._gb_num_den(a, b, pts, dims, QuadratureConfig())
                    rel = np.abs(phi.eval(pts) / (pts * num / den) - 1.0)
                    assert rel[pts <= 1e-7].max() < 5e-7, (p, n, a, b)
                    assert rel.max() < 1e-6, (p, n, a, b)
                    checked += 1
        assert checked == 73


def _with_warnings(f, w):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = f(w)
    messages = [f"{c.category.__name__}: {c.message}" for c in caught]
    return (out.tolist() if isinstance(out, np.ndarray) else out), messages


class TestSaigo4Identity:
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("w", [1.0, 10.0, 1000.0])
    def test_two_routes_agree(self, b, w):
        lhs = phi_gb_unknown(-2.0, b, w, DIMS)
        rhs = phi_gb_identity_saigo4(b, w, DIMS)
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))

    def test_b_zero_includes_boundary_term(self):
        for w in (1.0, 100.0):
            lhs = phi_gb_unknown(-2.0, 0.0, w, DIMS)
            rhs = phi_gb_identity_saigo4(0.0, w, DIMS)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))

    def test_scaled_tail_gap_near_beta_star(self):
        # (log w)(c_pn - phi) at w = 1e6 within 15% of beta_star for b = 1
        y = math.log(1e6) * (K.c_pn - phi_gb_unknown(-2.0, 1.0, 1e6, DIMS))
        assert abs(y - K.beta_star) <= 0.15 * K.beta_star


class TestTailProfile:
    GRID = np.geomspace(1e3, 1e8, 48)

    def test_boundary_phi_exact_fit(self):
        phi = make_shrinkage(BoundaryPhi(b=1.0), DIMS)
        prof = tail_profile(phi, DIMS, self.GRID)
        assert prof.b_hat == pytest.approx(1.0, abs=1e-6)
        assert prof.fit_quality < 1e-6

    def test_gb_tail_coefficient(self):
        phi = make_shrinkage(GBUnknown(a=-2.0, b=1.0), DIMS)
        prof = tail_profile(phi, DIMS, self.GRID)
        assert 0.85 <= prof.b_hat <= 1.15

    def test_linear_is_unbounded(self):
        phi = make_shrinkage(Linear(alpha=0.5), DIMS)
        prof = tail_profile(phi, DIMS, self.GRID)
        assert math.isinf(prof.phi_limit)
        assert prof.b_hat is None

    def test_jsplus_at_c_pn_fits_zero_coefficient(self):
        phi = make_shrinkage(PositivePartJS(a=K.c_pn), DIMS)
        prof = tail_profile(phi, DIMS, self.GRID)
        assert prof.phi_limit == pytest.approx(K.c_pn)
        assert abs(prof.b_hat) < 1e-9

    def test_far_from_critical_level_has_no_fit(self):
        phi = make_shrinkage(PositivePartJS(a=5.0), DIMS)
        prof = tail_profile(phi, DIMS, self.GRID)
        assert prof.phi_limit == pytest.approx(5.0)
        assert prof.b_hat is None

    def test_grid_preconditions(self):
        phi = make_shrinkage(Zero(), DIMS)
        with pytest.raises(ValueError):
            tail_profile(phi, DIMS, np.geomspace(1e3, 1e8, 10))
        with pytest.raises(ValueError):
            tail_profile(phi, DIMS, np.geomspace(1e4, 1e8, 30))
        with pytest.raises(ValueError):
            tail_profile(phi, DIMS, np.geomspace(1e3, 1e6, 30))
        # 48 points over 305 decades leave one in the top decade: no slope to fit
        with pytest.raises(ValueError, match="at least 2 points in its top decade"):
            tail_profile(phi, DIMS, np.geomspace(1e3, 1e308, 48))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_grid_point_named(self, bad):
        # NaN compares False both ways, so the ascending check alone lets it through
        w = np.geomspace(1e3, 1e8, 30)
        w[-1] = bad
        with pytest.raises(ValueError, match=f"w_grid must be finite, got {bad!r}"):
            tail_profile(make_shrinkage(Zero(), DIMS), DIMS, w)


class TestCrossInequality:
    """phi_{-2,b}(w) falls as b grows: reweighting by (log 1/lambda)^(b - b_ref)
    shifts posterior mass toward smaller lambda.  Orderings must clear 1e-10
    relative, far above the quadrature tolerance."""

    def test_equal_at_same_coefficient(self):
        assert phi_gb_unknown(-2.0, 1.0, 100.0, DIMS) == phi_gb_unknown(-2.0, 1.0, 100.0, DIMS)

    def test_larger_b_shrinks_less(self):
        # (log y)^2 / (log y)^1 is non-decreasing -> phi_{-2,2} <= phi_{-2,1}
        ref = phi_gb_unknown(-2.0, 1.0, 100.0, DIMS)
        assert ref - phi_gb_unknown(-2.0, 2.0, 100.0, DIMS) > 1e-10 * (1.0 + ref)

    def test_ordering_invariant_across_w(self):
        for w in (10.0, 1e3, 1e5):
            ref = phi_gb_unknown(-2.0, 1.0, w, DIMS)
            assert ref - phi_gb_unknown(-2.0, 2.0, w, DIMS) > 1e-10 * (1.0 + ref)
            assert phi_gb_unknown(-2.0, 0.5, w, DIMS) - ref > 1e-10 * (1.0 + ref)
