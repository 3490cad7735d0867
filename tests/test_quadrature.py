"""Tanh-sinh quadrature against closed forms and an independent integrator."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from oracles import tanh_sinh_per_level
from scipy.special import gammaln

from sure_boundary import families, quadrature
from sure_boundary import known_variance as kv
from sure_boundary.core import ProblemDims
from sure_boundary.quadrature import (
    _BATCH_ELEMENTS,
    _BLOCK_LEVEL,
    _KEPT_LEVEL,
    _MAX_LEVEL,
    _POINTS_KEPT,
    DEFAULT_CONFIG,
    QuadratureConfig,
    QuadratureConvergenceError,
    QuadratureError,
    _block,
    _check_endpoint,
    _kept_power,
    _level_abscissae,
    _nodes,
    _points,
    _sigmoid,
    _tanh_sinh_batch,
    log_recip,
    power_log_integrals,
    tanh_sinh_unit,
)


def step(lam):
    """A jump at lambda = 1/3, which no pass resolves within its levels."""
    return (lam > 1.0 / 3.0) * 1.0


def point(f, q=0.0, b=0.0, cfg=DEFAULT_CONFIG):
    """int_0^1 lambda**q (log 1/lambda)**b f(lambda) from a tanh_sinh_unit pass."""
    (value,) = tanh_sinh_unit(0.0, (q,), b, lambda x, lam: f(lam), cfg)
    return value


def gamma_moment(s: float, b: float) -> float:
    """int_0^1 lambda^s (log 1/lambda)^b dlambda = Gamma(b+1) / (s+1)^(b+1)."""
    return math.exp(gammaln(b + 1.0)) / (s + 1.0) ** (b + 1.0)


def test_power_closed_form():
    val = point(np.ones_like, q=0.5)
    assert abs(val - 2.0 / 3.0) < 1e-12


def test_log_singularity_closed_form():
    val = point(np.ones_like, q=-0.5, b=1.0)
    assert abs(val - 4.0) < 1e-10


def test_log_squared_closed_form():
    val = point(np.ones_like, b=2.0)
    assert abs(val - 2.0) < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    s=st.floats(min_value=-0.85, max_value=3.0),
    b=st.floats(min_value=0.0, max_value=3.0),
)
def test_gamma_moment_property(s, b):
    val = point(np.ones_like, q=s, b=b)
    expected = gamma_moment(s, b)
    assert abs(val - expected) <= 1e-9 * (1.0 + abs(expected))


@pytest.mark.parametrize(
    "f,s",
    [
        (lambda lam: np.exp(-3.0 * lam), -0.3),
        (lambda lam: 1.0 / (1.0 + lam**2), 0.0),
        (lambda lam: np.exp(-50.0 * lam), 0.5),
    ],
)
def test_against_scipy_quad(f, s):
    ours = point(f, q=s)
    ref, _ = quad(lambda x: x**s * float(f(np.asarray(x))), 0.0, 1.0, limit=200)
    assert abs(ours - ref) <= 1e-9 * (1.0 + abs(ref))


def _peak(w, lam):
    """(1 + w lambda)**-6.5, the unknown-scale kernel; exactly 1 at w = 0."""
    return (1.0 + w * lam) ** -6.5


def test_sharply_peaked_integrand_resolved():
    # mass concentrated near lambda ~ 1e-8; total ~ 1e-13, which is where a
    # raw absolute stopping floor used to bail out early.  Extending the
    # upper limit to infinity changes the value by ~1e-52, so the closed
    # Beta-function form B(3/2, 5) w^(-3/2) = (768/10395) w^(-3/2) is exact
    # at double precision.
    w = 1e8
    (ours,) = tanh_sinh_unit(w, (0.5,), 0.0, _peak, DEFAULT_CONFIG)
    ref = (768.0 / 10395.0) * w**-1.5
    assert abs(ours - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize(
    "kernel, xs",
    [
        *((families._gb_kernel(m), (0.0, 5e-324, 1.0, 1e13, 1e300))
          for m in (4.0, 6.5, 7.5, 151.0)),
        (kv._exp_kernel, (0.0, 5e-324, 1e300, math.inf)),
    ],
    ids=["gb-m4", "gb-m6.5", "gb-m7.5", "gb-m151", "exp"],
)
def test_library_integrands_set_no_sign_bit(kernel, xs):
    # the stopping rule takes |value| as the integrand's L1 mass, which it is
    # while no node, weight, log(1/lambda) or kernel value is negative or -0
    for level in range(_MAX_LEVEL + 1):
        nodes = _nodes(level)
        assert not any(np.signbit(a).any() for a in nodes)
        for x in xs:
            assert not np.signbit(kernel(x, nodes[0])).any()


def test_halving_rel_tol_self_consistency():
    loose = point(np.ones_like, q=-0.4, b=1.5, cfg=QuadratureConfig(rel_tol=1e-6))
    tight = point(np.ones_like, q=-0.4, b=1.5, cfg=QuadratureConfig(rel_tol=5e-7))
    assert abs(loose - tight) <= 1e-6 * abs(tight)


def test_complement_form_stable_at_right_endpoint():
    # (1 - lambda)^(-1/2)-type singularity at lambda -> 1: only the
    # complement-aware log(1/lambda) can evaluate it without catastrophic
    # rounding
    val = point(np.ones_like, q=1.0, b=-0.5)
    ref, _ = quad(lambda x: math.log(1.0 / x) ** -0.5 * x, 0.0, 1.0, limit=200)
    assert abs(val - ref) <= 1e-9 * abs(ref)


def test_budget_exhaustion_carries_best_estimate():
    with pytest.raises(QuadratureConvergenceError, match=f"after {_MAX_LEVEL} levels") as err:
        point(step)
    assert abs(err.value.best_estimate - 2.0 / 3.0) < 1e-4
    assert 0.0 < err.value.error_estimate < 1e-4


def test_non_finite_integrand_rejected():
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(QuadratureError):
            point(lambda lam: 1.0 / (lam - lam))


def test_precondition_validation():
    with pytest.raises(ValueError):
        point(np.ones_like, q=-0.99)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    for value in (math.inf, math.nan):
        message = f"^rel_tol must be positive and finite, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            QuadratureConfig(rel_tol=value)


def test_log_power_limit_is_where_the_power_overflows():
    # at the floats around the limit, the check lets b through exactly when
    # numpy's power is finite at the node where log(1/lambda) is largest
    log_l, bs = _nodes(0)[2], [110.01694022785668]
    for _ in range(2):
        bs = [np.nextafter(bs[0], 0.0), *bs, np.nextafter(bs[-1], 200.0)]
    fits = []
    for b in map(float, bs):
        with np.errstate(over="ignore"):
            fits.append(bool(np.isfinite(log_l**b).all()))
        try:
            _check_endpoint(0.0, b)
            passed = True
        except ValueError as exc:
            assert "too large for the fixed tanh-sinh horizon" in str(exc)
            passed = False
        assert passed == fits[-1]
    assert True in fits and False in fits
    assert point(np.ones_like, b=110.0) > 0.0


@pytest.mark.parametrize("q", [-0.9, -0.5, -0.1])
def test_endpoint_product_limit_is_where_the_product_overflows(q):
    # a little below the limit the check lets b through and numpy's product
    # is finite at the smallest node; a little above, neither holds
    lam, _, log_l = (float(v[0]) for v in _nodes(0))
    limit = (math.log(sys.float_info.max) + q * log_l) / math.log(log_l)
    for b, fits in ((limit * (1.0 - 1e-9), True), (limit * (1.0 + 1e-9), False)):
        with np.errstate(over="ignore"):
            assert bool(np.isfinite(np.float64(lam) ** q * np.float64(log_l) ** b)) == fits
        if fits:
            _check_endpoint(q, b)
        else:
            with pytest.raises(ValueError, match=f"^log power {b!r} too large .* exponent {q!r} "):
                _check_endpoint(q, b)


def _never_called(x, lam):
    raise AssertionError("a level ran")


# (x, qs, b, kernel) rows that both passes run
PASS_ROWS = {
    **{f"peak-w{w:g}": (w, (0.5,), 0.0, _peak) for w in [1e-3, 1.0, 37.0, 1e5, 1e8]},
    # lambda (log 1/lambda)**-0.5: the integrable singularity at lambda -> 1
    "log-power-b-0.5": (0.0, (1.0,), -0.5, _peak),
    "two-exponents": (37.0, (1.5, 0.5), 0.7, _peak),
    "budget": (1.0 / 3.0, (0.0,), 0.0, lambda x, lam: (lam > x) * 1.0),
    "non-finite": (1.0, (1.0,), 0.0, lambda x, lam: 1.0 / (lam - x * lam)),
    # the most singular of several exponents decides
    "singular-endpoint": (1.0, (0.5, -0.99), 0.0, _never_called),
    "huge-log-power": (1.0, (0.5,), 110.02, _never_called),
    # lambda**-0.9 (log 1/lambda)**100 overflows at the smallest node
    "negative-exponent-log-power": (1.0, (0.5, -0.9), 100.0, _never_called),
}


class TestBatch:
    @pytest.mark.parametrize(
        "cfg", [DEFAULT_CONFIG, QuadratureConfig(rel_tol=1e-6)], ids=["tol1e-10", "tol1e-6"]
    )
    @pytest.mark.parametrize("row", PASS_ROWS)
    def test_same_as_point_pass(self, row, cfg):
        # the same bits, or the same error, before any level runs if rejected
        x, qs, b, kernel = PASS_ROWS[row]
        with np.errstate(divide="ignore", invalid="ignore"):
            single = _outcome(lambda: [v.hex() for v in tanh_sinh_unit(x, qs, b, kernel, cfg)])
            batch = _outcome(lambda: [v.hex() for v in _tanh_sinh_batch(
                np.array([x]), qs, b, kernel, cfg)[:, 0].tolist()])
        assert single == batch
        rejected = ("singular-endpoint", "huge-log-power", "negative-exponent-log-power")
        assert (row in rejected) == (single[0] == "rejected")

    def test_rows_freeze_at_their_own_level(self):
        # an easy row next to a hard one keeps the value it converged to
        x = np.array([0.0, 1e8, 0.0])
        batch = _tanh_sinh_batch(x, (0.5,), 0.0, _peak, DEFAULT_CONFIG)
        easy, hard = (tanh_sinh_unit(w, (0.5,), 0.0, _peak, DEFAULT_CONFIG)[0] for w in (0.0, 1e8))
        assert batch[0, 0] == batch[0, 2] == easy
        assert batch[0, 1] == hard

    # more rows than two level-0 slices hold, so level 0 runs in three
    SLICES_X = np.geomspace(1e-3, 1e9, 2 * (_BATCH_ELEMENTS // _nodes(0)[0].size) + 5)

    @staticmethod
    def _hex(rows):
        return [[float(v).hex() for v in row] for row in rows]

    def test_slices_of_three_exponents(self):
        qs, b = (1.5, 0.0, -0.5), 0.0
        per_level = {}  # rows of each kernel call, by the level's node count

        def kernel(x, lam):
            return (1.0 + np.cos(2.0 * np.pi * lam)) * np.log1p(x)

        def counted(x, lam):
            per_level.setdefault(lam.size, []).append(len(x))
            return kernel(x, lam)

        grid = _tanh_sinh_batch(self.SLICES_X, qs, b, counted, DEFAULT_CONFIG)
        points = [tanh_sinh_unit(x, qs, b, kernel, DEFAULT_CONFIG) for x in self.SLICES_X]
        assert self._hex(grid.T) == self._hex(points)
        # the kernel runs once per slice of a level for all exponents
        step = _BATCH_ELEMENTS // _nodes(0)[0].size
        assert per_level[_nodes(0)[0].size] == [step, step, self.SLICES_X.size - 2 * step]
        for size, rows in per_level.items():
            assert len(rows) == -(-sum(rows) // (_BATCH_ELEMENTS // size))
        assert len(per_level) > 3

    def test_non_finite_values_after_an_exponent_stops(self):
        # q = -0.5 stops inside the first levels and q = 100 runs on; at one
        # row a kernel value of 1.7e308 at a later level's node overflows
        # lambda**-0.5 K there but not lambda**100 K, so that row's q = -0.5
        # values turn non-finite only after it stopped
        qs, xs = (-0.5, 100.0), np.array([0.0, 1.0, 2.0])
        levels = []
        for q in qs:
            calls = []
            tanh_sinh_per_level(1.0, (q,), 0.0, lambda x, lam: calls.append(lam) or lam,
                                DEFAULT_CONFIG)
            levels.append(len(calls))
        assert levels[0] < levels[1]  # q = 100 runs the level after q = -0.5 stops
        lam = _nodes(levels[0])[0]
        target = lam[lam.size // 4]

        def kernel(x, lam):
            return np.where((x == 1.0) & (lam == target), 1.7e308, lam)

        with np.errstate(over="ignore", invalid="ignore"):
            grid = _tanh_sinh_batch(xs, qs, 0.0, kernel, DEFAULT_CONFIG)
            points = [tanh_sinh_unit(x, qs, 0.0, kernel, DEFAULT_CONFIG) for x in xs]
            alone = [tanh_sinh_unit(x, qs, 0.0, lambda x, lam: lam, DEFAULT_CONFIG) for x in xs]
        assert self._hex(grid.T) == self._hex(points)
        assert grid[0, 1] == alone[1][0]

    def test_first_failing_row_raises(self):
        # two rows fail at level 0, in different slices and at different
        # nodes: the grid raises the error of the first
        xs, lam = self.SLICES_X, _nodes(0)[0]
        step = _BATCH_ELEMENTS // lam.size
        first, second = xs[step // 2], xs[step + step // 2]
        qs = (0.5, 1.5)

        def kernel(x, lam0):
            bad = ((x == first) & (lam0 == lam[3])) | ((x == second) & (lam0 == lam[7]))
            return np.where(bad, np.nan, np.exp(-x * lam0))

        grid = _outcome(lambda: _tanh_sinh_batch(xs, qs, 0.0, kernel, DEFAULT_CONFIG))
        point = _outcome(lambda: tanh_sinh_unit(first, qs, 0.0, kernel, DEFAULT_CONFIG))
        later = _outcome(lambda: tanh_sinh_unit(second, qs, 0.0, kernel, DEFAULT_CONFIG))
        message = f"integrand non-finite near lambda={float(lam[3])!r}"
        assert grid == point == ("non-finite", message)
        assert later != point


KERNELS = {
    "unknown scale": lambda w, lam: np.power(1.0 + w * lam, -5.5),
    "known variance": lambda c, lam: np.exp(-c * lam),
}


class TestPowerLogIntegrals:
    # more points than a level-0 slice holds, so every level runs in several slices
    X = np.geomspace(1e-3, 1e9, 2 * (_BATCH_ELEMENTS // _nodes(0)[0].size) + 5)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("b", [0.0, 0.7, -0.5])  # -0.5: the b - 1 power of identity routes
    def test_grid_equals_points_bit_for_bit(self, kernel, b):
        qs = (1.5, 0.5)
        grid = power_log_integrals(self.X, qs, b, KERNELS[kernel])
        points = [power_log_integrals(x, qs, b, KERNELS[kernel]) for x in self.X]
        assert all(type(v) is float for v in points[0])
        assert grid.shape == (2, len(self.X))
        assert np.array_equal(grid, np.array(points).T)

    def test_points_match_an_independent_integrator(self):
        c, q, b = 3.0, 0.5, 0.7
        (val,) = power_log_integrals(c, (q,), b, KERNELS["known variance"])
        ref, _ = quad(lambda x: x**q * math.log(1.0 / x) ** b * math.exp(-c * x), 0.0, 1.0)
        assert abs(val - ref) <= 1e-9 * ref


class TestSharedPass:
    """A single point runs all its exponents in one tanh_sinh_unit pass."""

    @staticmethod
    def alone(x, q, b, kernel, cfg=DEFAULT_CONFIG):
        """(integral, levels run) of one exponent in a pass of its own."""
        levels = []

        def counted(x, lam):
            levels.append(lam.size)
            return kernel(x, lam)

        (value,) = tanh_sinh_unit(x, (q,), b, counted, cfg)
        return value, len(levels)

    def test_each_exponent_gets_its_own_bits(self):
        qs = (1.5, 0.5)
        stop_levels = set()
        for kernel in KERNELS.values():
            for b in (-0.6, 0.0, 0.4, 1.7):
                for x in (1e-3, 0.7, 30.0, 1e4, 1e8):
                    shared = power_log_integrals(x, qs, b, kernel)
                    runs = [self.alone(x, q, b, kernel) for q in qs]
                    assert shared == [value for value, _ in runs]
                    stop_levels.add(tuple(levels for _, levels in runs))
        # the exponents of some point stop at different levels
        assert any(len(set(levels)) > 1 for levels in stop_levels)

    def test_stopped_integrand_is_not_evaluated(self, monkeypatch):
        # at w = 1e8, q = 10 stops inside the first block (levels 0 to 4) and
        # q = 0.5 goes on, one level per block; the kernel sees each block up
        # to the later stop once, in order
        qs = (10.0, 0.5)
        alone = [tanh_sinh_unit(1e8, (q,), 0.0, _peak, DEFAULT_CONFIG)[0] for q in qs]
        blocks, power = {q: [] for q in qs}, quadrature._power
        monkeypatch.setattr(quadrature, "_power",
                            lambda block, log, q: blocks[q].append(block) or power(block, log, q))
        _kept_power.cache_clear()  # so that each lambda**q is computed, once per block
        calls = []

        def kernel(w, lam):
            calls.append(lam)
            return _peak(w, lam)

        assert tanh_sinh_unit(1e8, qs, 0.0, kernel, DEFAULT_CONFIG) == alone
        assert blocks[10.0] == [_BLOCK_LEVEL]
        assert blocks[0.5] == list(range(_BLOCK_LEVEL, _BLOCK_LEVEL + len(blocks[0.5])))
        assert len(blocks[0.5]) > 1
        assert all(lam is _block(block)[0] for block, lam in zip(blocks[0.5], calls, strict=True))

    def test_earlier_exponent_error_wins(self):
        # the step runs q = 0.5 out of levels; a kernel value of 1e300 at the
        # smallest nodes overflows lambda**-0.5 K there, but not lambda**0.5 K
        def kernel(x, lam):
            return np.where(lam < 1e-270, 1e300, step(lam))

        with pytest.raises(QuadratureConvergenceError) as alone:
            tanh_sinh_unit(0.0, (0.5,), 0.0, kernel, DEFAULT_CONFIG)
        with np.errstate(over="ignore"):
            with pytest.raises(QuadratureConvergenceError) as shared:
                tanh_sinh_unit(0.0, (0.5, -0.5), 0.0, kernel, DEFAULT_CONFIG)
            with pytest.raises(QuadratureError) as first_bad:
                tanh_sinh_unit(0.0, (-0.5, 0.5), 0.0, kernel, DEFAULT_CONFIG)
            # a grid raises by level: the overflow at level 0 wins
            with pytest.raises(QuadratureError) as grid:
                _tanh_sinh_batch(np.array([0.0]), (0.5, -0.5), 0.0, kernel, DEFAULT_CONFIG)
        assert shared.value.best_estimate == alone.value.best_estimate
        assert shared.value.error_estimate == alone.value.error_estimate
        assert type(first_bad.value) is QuadratureError
        assert type(grid.value) is QuadratureError
        assert str(grid.value) == str(first_bad.value)

    def test_cached_log_is_log_recip(self):
        for level in range(_MAX_LEVEL + 1):
            lam, _, log_l = _nodes(level)
            y = math.pi * np.sinh(_level_abscissae(level))
            assert np.array_equal(lam, _sigmoid(y))
            assert np.array_equal(log_l, log_recip(lam, _sigmoid(-y)))


class TestKeptPowers:
    """lambda**q and (log 1/lambda)**b are kept per level and exponent."""

    def test_cold_and_warm_passes_agree(self):
        points = [(x, qs, b) for x in (0.3, 1e4) for qs in ((1.5, 0.5), (0.5, 2.25))
                  for b in (0.0, 0.4, 1.7)]

        def run(order):
            return {i: power_log_integrals(*points[i], KERNELS["unknown scale"]) for i in order}

        _kept_power.cache_clear()
        _points.clear()
        cold = run(range(len(points)))
        _kept_power.cache_clear()
        _points.clear()
        reverse = run(reversed(range(len(points))))
        warm = run(range(len(points)))
        assert cold == reverse == warm

    def test_kept_arrays_are_read_only(self):
        lam_q = _kept_power(_BLOCK_LEVEL, False, 1.5)
        assert _kept_power(_BLOCK_LEVEL, False, 1.5) is lam_q
        assert not lam_q.flags.writeable
        with pytest.raises(ValueError):
            lam_q[0] = 0.0
        assert not _kept_power(_KEPT_LEVEL, True, 0.4).flags.writeable
        assert np.array_equal(lam_q, _block(_BLOCK_LEVEL)[0] ** 1.5)

    def test_cache_stays_within_its_bound(self):
        info = _kept_power.cache_info()
        # the documented worst case: every kept array at the largest kept block
        largest = max(_block(block)[0].nbytes for block in range(_BLOCK_LEVEL, _KEPT_LEVEL + 1))
        assert info.maxsize * largest <= 4 * 2**20
        for q in np.linspace(0.0, 3.0, info.maxsize + 50):
            power_log_integrals(1e4, (float(q),), 0.0, KERNELS["unknown scale"])
        assert _kept_power.cache_info().currsize <= info.maxsize

    def test_levels_above_the_cut_off_are_not_kept(self):
        qs, b, sizes = (1.5, 0.5), 0.4, []
        kernel = KERNELS["unknown scale"]

        def counted(w, lam):
            sizes.append(lam.size)
            return kernel(w, lam)

        _kept_power.cache_clear()
        power_log_integrals(1e8, qs, b, counted)
        # one kernel call for levels 0 to _BLOCK_LEVEL, then one per level
        last = _BLOCK_LEVEL + len(sizes) - 1
        assert sizes[0] == sum(_nodes(level)[0].size for level in range(_BLOCK_LEVEL + 1)) == 385
        assert sizes[1:] == [_nodes(level)[0].size for level in range(_BLOCK_LEVEL + 1, last + 1)]
        assert last > _KEPT_LEVEL
        # one array per exponent and kept block, and one per kept block for b
        kept_blocks = _KEPT_LEVEL - _BLOCK_LEVEL + 1
        assert _kept_power.cache_info().currsize == kept_blocks * (len(qs) + 1)


def _counted(monkeypatch, name):
    """The list that gets one entry per call of quadrature's function name."""
    calls, inner = [], getattr(quadrature, name)

    def spy(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(quadrature, name, spy)
    return calls


class TestPointMemo:
    """power_log_integrals runs each integral of a single point once."""

    @pytest.fixture(autouse=True)
    def cold(self):
        _points.clear()

    def test_phi_routes_share_their_integrals(self, monkeypatch):
        calls = _counted(monkeypatch, "tanh_sinh_unit")
        dims, b, w = ProblemDims(5, 6), 1.2345, 37.0
        families.phi_gb_unknown(-2.0, b, w, dims)
        families.phi_gb_unknown_deriv(-2.0, b, w, dims)
        families.phi_gb_identity_saigo4(b, w, dims)
        # (N, D); the derivative's two new integrals; the identity's J_{b-1}
        assert len(calls) == 3

    def test_psi_routes_share_their_denominator(self, monkeypatch):
        calls = _counted(monkeypatch, "tanh_sinh_unit")
        b, v, p = 0.8765, 10.0, 5
        kv.psi_known(b, v, p)
        kv.psi_known_via_identity(b, v, p)
        assert len(calls) == 2

    def test_brown_integral_is_one_batched_pass(self, monkeypatch):
        calls = _counted(monkeypatch, "_tanh_sinh_batch")
        report = kv.brown_integral_numeric(kv.PriorSpec(a=-2.0, L=kv.LogPow(0.5)), 5)
        assert len(report.decade_increments) == 6
        assert len(calls) == 1

    @settings(max_examples=60, deadline=None)
    @given(
        kernel=st.sampled_from(sorted(KERNELS)),
        x=st.floats(min_value=1e-3, max_value=1e8),
        qs=st.lists(st.sampled_from([-0.5, 0.0, 0.5, 1.5, 2.25]), min_size=1, max_size=4),
        warm=st.lists(st.sampled_from([-0.5, 0.0, 0.5, 1.5, 2.25]), max_size=4),
        b=st.sampled_from([-0.5, 0.0, 0.7]),
    )
    def test_warm_and_cold_calls_agree(self, kernel, x, qs, warm, b):
        kernel = KERNELS[kernel]
        _points.clear()
        cold = power_log_integrals(x, qs, b, kernel)
        _points.clear()
        if warm:
            power_log_integrals(x, warm, b, kernel)
        assert power_log_integrals(x, qs, b, kernel) == cold
        assert power_log_integrals(x, qs, b, kernel) == cold
        assert cold == [power_log_integrals(x, (q,), b, kernel)[0] for q in qs]

    @pytest.mark.parametrize("kernel, kind", [
        (lambda x, lam: np.where(lam > 0.5, np.nan, 1.0), "non-finite"),
        (lambda x, lam: (x * lam > 1.0) * 1.0, "budget"),
    ])
    def test_errors_are_not_kept(self, kernel, kind):
        def run():
            return power_log_integrals(3.0, (0.5, 0.0), 0.0, kernel)

        first = _outcome(run)
        assert first[0] == kind
        assert _outcome(run) == first
        assert not [key for key in _points if key[0] is kernel]

    def test_memo_stays_within_its_bound(self):
        kernel = KERNELS["known variance"]
        xs = [1.0 + i for i in range(_POINTS_KEPT + 40)]
        for x in xs:
            power_log_integrals(x, (0.5,), 0.0, kernel)
            assert len(_points) <= _POINTS_KEPT
        # the oldest integrals went first
        assert (kernel, xs[0], 0.5, 0.0, DEFAULT_CONFIG) not in _points
        assert (kernel, xs[-1], 0.5, 0.0, DEFAULT_CONFIG) in _points

    @staticmethod
    def _in_threads(run, n):
        """run(i) in n threads started together, with frequent switches."""
        start = threading.Barrier(n)
        threads = [threading.Thread(target=lambda i=i: (start.wait(), run(i))) for i in range(n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

    def test_concurrent_callers_get_the_same_floats(self):
        points = [(x, (1.5, 0.5), b) for x in (0.3, 30.0, 1e4, 1e7) for b in (0.0, 0.4)]
        kernel = KERNELS["unknown scale"]
        serial = [power_log_integrals(x, qs, b, kernel) for x, qs, b in points]
        _points.clear()
        results = [None] * 2

        def run(i):
            results[i] = [power_log_integrals(x, qs, b, kernel) for x, qs, b in points]

        self._in_threads(run, 2)
        assert results[0] == results[1] == serial

    def test_concurrent_eviction(self, monkeypatch):
        # more threads than cores, with passes so cheap that the threads
        # spend their time in the memo, and a bound that every call exceeds:
        # a lookup or eviction racing another would raise or mix up values
        monkeypatch.setattr(quadrature, "_POINTS_KEPT", 2)
        monkeypatch.setattr(quadrature, "tanh_sinh_unit",
                            lambda x, qs, b, kernel, cfg: [x + q for q in qs])
        failures = []

        def run(i):
            try:
                for k in range(3000):
                    x = float(k % 7)
                    assert power_log_integrals(x, (0.5, i), 0.0, None) == [x + 0.5, x + i]
            except Exception as exc:  # noqa: BLE001 - reported by the main thread
                failures.append(exc)

        self._in_threads(run, 8)
        assert failures == []
        assert len(_points) <= 2


def _outcome(run):
    """run()'s value, or the kind and message of its error (with a budget
    error's estimates)."""
    try:
        return run()
    except QuadratureConvergenceError as exc:
        return "budget", str(exc), exc.best_estimate, exc.error_estimate
    except QuadratureError as exc:
        return "non-finite", str(exc)
    except ValueError as exc:
        return "rejected", str(exc)


def _marked(g, target, mark=np.nan):
    """g with the value mark at the node lambda == target."""
    return lambda lam: np.where(lam == target, mark, g(lam))


class TestBlocks:
    """The first call of the kernel gets levels 0 to 4 at once; the bits are
    the per-level loop's (tests/oracles.py)."""

    @pytest.mark.parametrize("levels", [1, 2, 3, 4, 5, 6])
    def test_first_call_holds_the_first_levels(self, levels):
        # the step runs on until a NaN at one of level `levels`'s own nodes
        # ends the pass there
        nodes = _nodes(levels)[0]
        target = nodes[nodes.size // 4]
        marked = _marked(step, target)
        calls = []

        def kernel(x, lam):
            calls.append(lam)
            return marked(lam)

        with pytest.raises(QuadratureError) as err:
            tanh_sinh_unit(0.0, (0.0,), 0.0, kernel, DEFAULT_CONFIG)
        assert str(err.value) == f"integrand non-finite near lambda={float(target)!r}"
        assert len(calls) == 1 + max(0, levels - _BLOCK_LEVEL)
        first = np.concatenate([_nodes(lv)[0] for lv in range(_BLOCK_LEVEL + 1)])
        assert np.array_equal(calls[0], first)
        assert all(lam is _nodes(lv)[0] for lv, lam in enumerate(calls[1:], _BLOCK_LEVEL + 1))

    # the power-log kernels, one that changes sign, and a step that no pass
    # resolves, which runs through every level
    ALL_KERNELS = {
        **KERNELS,
        "signed": lambda x, lam: np.cos(4.0 * np.log1p(x * lam)) - 0.25,
        "step": lambda x, lam: (x * lam > 1.0) * 1.0,
    }

    @settings(max_examples=200, deadline=None)
    @given(
        kernel=st.sampled_from(sorted(ALL_KERNELS)),
        x=st.floats(min_value=1e-3, max_value=1e8),
        qs=st.lists(st.floats(min_value=-0.9, max_value=3.0), min_size=1, max_size=2),
        b=st.floats(min_value=-1.0, max_value=3.0, exclude_min=True, exclude_max=True),
        rel_tol=st.sampled_from([1e-10, 1e-6]),
    )
    @example(kernel="step", x=3.0, qs=[0.5, 0.0], b=0.0, rel_tol=1e-10)
    def test_bits_of_the_per_level_loop(self, kernel, x, qs, b, rel_tol):
        cfg = QuadratureConfig(rel_tol=rel_tol)
        kernel = self.ALL_KERNELS[kernel]
        blocked = _outcome(lambda: tanh_sinh_unit(x, tuple(qs), b, kernel, cfg))
        assert blocked == _outcome(lambda: tanh_sinh_per_level(x, tuple(qs), b, kernel, cfg))
        assert blocked == _outcome(lambda: power_log_integrals(x, qs, b, kernel, cfg))

    @pytest.mark.parametrize("g", [lambda lam: np.cos(2.0 * np.pi * lam), lambda lam: lam - 0.5])
    def test_signed_integrand_with_zero_integral(self, g):
        # the tolerance is relative to the running integral, which tends to 0,
        # so both passes run out of levels, with the same estimates
        def run(pass_):
            return _outcome(lambda: pass_(0.0, (0.0,), 0.0, lambda x, lam: g(lam), DEFAULT_CONFIG))

        def grid(x, qs, b, kernel, cfg):
            return _tanh_sinh_batch(np.array([x]), qs, b, kernel, cfg)[:, 0].tolist()

        point = run(tanh_sinh_unit)
        assert point[0] == "budget"
        assert point == run(grid) == run(tanh_sinh_per_level)

    @settings(max_examples=60, deadline=None)
    @given(
        level=st.integers(min_value=0, max_value=6),
        node=st.integers(min_value=0, max_value=10**6),
        bad=st.sampled_from([0, 1]),
    )
    def test_non_finite_value_in_a_folded_level(self, level, node, bad):
        # the left half of each level's nodes holds lambda values no other
        # level has; at w = 1e8 both exponents fold levels 0 to 6 (they stop
        # at 7 and 6), and either one alone fails as the pair does
        lam = _nodes(level)[0]
        target = lam[node % (lam.size // 2)]
        qs = (0.5, 1.0)

        def kernel(w, lam):
            return _marked(lambda lam: _peak(w, lam), target)(lam)

        blocked = _outcome(lambda: tanh_sinh_unit(1e8, qs, 0.0, kernel, DEFAULT_CONFIG))
        per_level = _outcome(lambda: tanh_sinh_per_level(1e8, qs, 0.0, kernel, DEFAULT_CONFIG))
        assert blocked == per_level
        alone = _outcome(lambda: tanh_sinh_unit(1e8, qs[bad:bad + 1], 0.0, kernel, DEFAULT_CONFIG))
        message = f"integrand non-finite near lambda={float(target)!r}"
        assert blocked == alone == ("non-finite", message)

    @pytest.mark.parametrize("easy", [lambda lam: lam, lambda lam: np.exp(-lam)])
    def test_non_finite_value_after_the_stop(self, easy):
        # q = -0.5 stops inside the first block and q = 100 runs on past it; a
        # kernel value of 1.7e308 overflows lambda**-0.5 K but not lambda**100 K
        qs, stops = (-0.5, 100.0), []
        tanh_sinh_per_level(0.0, qs[:1], 0.0, lambda x, lam: stops.append(lam) or easy(lam),
                            DEFAULT_CONFIG)
        stop = len(stops) - 1
        assert stop < _BLOCK_LEVEL  # the levels after the stop are in the block
        for level in range(stop + 1, _BLOCK_LEVEL + 1):
            lam = _nodes(level)[0]
            marked = _marked(easy, lam[lam.size // 4], 1.7e308)

            def run(pass_, qs, g):
                return pass_(0.0, qs, 0.0, lambda x, lam: g(lam), DEFAULT_CONFIG)

            with np.errstate(over="ignore"):
                assert run(tanh_sinh_unit, qs[:1], marked) == run(tanh_sinh_unit, qs[:1], easy)
                assert run(tanh_sinh_unit, qs, marked) == run(tanh_sinh_per_level, qs, marked)
