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
    _kept_power,
    _nodes,
    _points,
    _tanh_sinh_batch,
    log_recip,
    power_log_integrals,
    tanh_sinh_unit,
)


def step(lam, lam_c):
    """A jump at lambda = 1/3, which no pass resolves within its levels."""
    return (lam > 1.0 / 3.0) * 1.0


def gamma_moment(s: float, b: float) -> float:
    """int_0^1 lambda^s (log 1/lambda)^b dlambda = Gamma(b+1) / (s+1)^(b+1)."""
    return math.exp(gammaln(b + 1.0)) / (s + 1.0) ** (b + 1.0)


def test_power_closed_form():
    val = tanh_sinh_unit(lambda lam, lam_c: np.sqrt(lam), singular_exponent=0.5)
    assert abs(val - 2.0 / 3.0) < 1e-12


def test_log_singularity_closed_form():
    val = tanh_sinh_unit(
        lambda lam, lam_c: lam**-0.5 * np.log(1.0 / lam),
        singular_exponent=-0.5,
        log_power=1.0,
    )
    assert abs(val - 4.0) < 1e-10


def test_log_squared_closed_form():
    val = tanh_sinh_unit(lambda lam, lam_c: np.log(1.0 / lam) ** 2, log_power=2.0)
    assert abs(val - 2.0) < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    s=st.floats(min_value=-0.85, max_value=3.0),
    b=st.floats(min_value=0.0, max_value=3.0),
)
def test_gamma_moment_property(s, b):
    val = tanh_sinh_unit(
        lambda lam, lam_c: lam**s * np.log(1.0 / lam) ** b if b else lam**s,
        singular_exponent=s,
        log_power=b,
    )
    expected = gamma_moment(s, b)
    assert abs(val - expected) <= 1e-9 * (1.0 + abs(expected))


@pytest.mark.parametrize(
    "f,s",
    [
        (lambda lam: np.exp(-3.0 * lam) * lam**-0.3, -0.3),
        (lambda lam: 1.0 / (1.0 + lam**2), 0.0),
        (lambda lam: np.exp(-50.0 * lam) * np.sqrt(lam), 0.5),
    ],
)
def test_against_scipy_quad(f, s):
    ours = tanh_sinh_unit(lambda lam, lam_c: f(lam), singular_exponent=s)
    ref, _ = quad(lambda x: float(f(np.asarray(x))), 0.0, 1.0, limit=200)
    assert abs(ours - ref) <= 1e-9 * (1.0 + abs(ref))


def test_sharply_peaked_integrand_resolved():
    # mass concentrated near lambda ~ 1e-8; total ~ 1e-13, which is where a
    # raw absolute stopping floor used to bail out early.  Extending the
    # upper limit to infinity changes the value by ~1e-52, so the closed
    # Beta-function form B(3/2, 5) w^(-3/2) = (768/10395) w^(-3/2) is exact
    # at double precision.
    w = 1e8
    ours = tanh_sinh_unit(
        lambda lam, lam_c: lam**0.5 * (1.0 + w * lam) ** -6.5, singular_exponent=0.5
    )
    ref = (768.0 / 10395.0) * w**-1.5
    assert abs(ours - ref) <= 1e-12 * abs(ref)


def test_halving_rel_tol_self_consistency():
    f = lambda lam, lam_c: lam**-0.4 * np.log(1.0 / lam) ** 1.5  # noqa: E731
    endpoint = {"singular_exponent": -0.4, "log_power": 1.5}
    loose = tanh_sinh_unit(f, QuadratureConfig(rel_tol=1e-6), **endpoint)
    tight = tanh_sinh_unit(f, QuadratureConfig(rel_tol=5e-7), **endpoint)
    assert abs(loose - tight) <= 1e-6 * abs(tight)


def test_complement_form_stable_at_right_endpoint():
    # (1 - lambda)^(-1/2)-type singularity at lambda -> 1: only the
    # complement-aware form can evaluate it without catastrophic rounding
    val = tanh_sinh_unit(
        lambda lam, lam_c: log_recip(lam, lam_c) ** -0.5 * lam,
        singular_exponent=0.0,
        log_power=0.0,
    )
    ref, _ = quad(lambda x: math.log(1.0 / x) ** -0.5 * x, 0.0, 1.0, limit=200)
    assert abs(val - ref) <= 1e-9 * abs(ref)


def test_budget_exhaustion_carries_best_estimate():
    with pytest.raises(QuadratureConvergenceError, match=f"after {_MAX_LEVEL} levels") as err:
        tanh_sinh_unit(step)
    assert abs(err.value.best_estimate - 2.0 / 3.0) < 1e-4
    assert 0.0 < err.value.error_estimate < 1e-4


def test_non_finite_integrand_rejected():
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(QuadratureError):
            tanh_sinh_unit(lambda lam, lam_c: 1.0 / (lam - lam))


def test_precondition_validation():
    with pytest.raises(ValueError):
        tanh_sinh_unit(lambda lam, lam_c: lam, singular_exponent=-0.99)
    with pytest.raises(ValueError):
        tanh_sinh_unit(lambda lam, lam_c: lam, log_power=-1.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    for value in (math.inf, math.nan):
        message = f"^rel_tol must be positive and finite, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            QuadratureConfig(rel_tol=value)


def _peak(w, lam):
    """The kernel of the TestBatch rows; exactly 1 at w = 0."""
    return (1.0 + w * lam) ** -6.5


class TestBatch:
    PEAKS = [1e-3, 1.0, 37.0, 1e5, 1e8]

    def test_bit_identical_to_scalar_rule(self):
        funcs = [
            lambda lam, lam_c, w=w: lam**0.5 * (1.0 + w * lam) ** -6.5
            for w in self.PEAKS
        ] + [lambda lam, lam_c: log_recip(lam, lam_c) ** -0.5 * lam]
        for cfg in (DEFAULT_CONFIG, QuadratureConfig(rel_tol=1e-6)):
            # q = 0.5 at each peak; lam L**-0.5 is q = 1, b = -0.5 at w = 0
            peaks = _tanh_sinh_batch(np.array(self.PEAKS), (0.5,), 0.0, _peak, cfg)
            log_row = _tanh_sinh_batch(np.zeros(1), (1.0,), -0.5, _peak, cfg)
            batch = np.concatenate([peaks, log_row], axis=1)
            scalar = np.array([tanh_sinh_unit(f, cfg) for f in funcs])
            assert batch.shape == (1, len(funcs))
            assert np.array_equal(batch[0], scalar)

    def test_rows_freeze_at_their_own_level(self):
        # an easy row next to a hard one keeps the value it converged to
        easy = lambda lam, lam_c: lam**0.5  # noqa: E731
        hard = lambda lam, lam_c: lam**0.5 * (1.0 + 1e8 * lam) ** -6.5  # noqa: E731
        x = np.array([0.0, 1e8, 0.0])
        batch = _tanh_sinh_batch(x, (0.5,), 0.0, _peak, DEFAULT_CONFIG)
        assert batch[0, 0] == batch[0, 2] == tanh_sinh_unit(easy)
        assert batch[0, 1] == tanh_sinh_unit(hard)

    def test_budget_exhaustion_matches_scalar(self):
        with pytest.raises(QuadratureConvergenceError) as scalar:
            tanh_sinh_unit(step)
        with pytest.raises(QuadratureConvergenceError) as batch:
            jump = lambda x, lam: (lam > x) * 1.0  # noqa: E731
            _tanh_sinh_batch(np.array([1.0 / 3.0]), (0.0,), 0.0, jump, DEFAULT_CONFIG)
        assert batch.value.best_estimate == scalar.value.best_estimate
        assert batch.value.error_estimate == scalar.value.error_estimate

    def test_endpoint_checked_before_any_level(self):
        def never_called(x, lam):
            raise AssertionError("a level ran")

        # the most singular of several exponents decides
        with pytest.raises(ValueError):
            tanh_sinh_unit(lambda lam, lam_c: lam, singular_exponent=(0.5, -0.99))
        with pytest.raises(ValueError):
            _tanh_sinh_batch(np.ones(1), (0.5, -0.99), 0.0, never_called, DEFAULT_CONFIG)

    def test_non_finite_integrand_rejected(self):
        bad = lambda lam, lam_c: 1.0 / (lam - lam)  # noqa: E731
        # q = 1: lam / lam at x = 0, and bad at x = 1
        kernel = lambda x, lam: 1.0 / (lam - x * lam)  # noqa: E731
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(QuadratureError):
                tanh_sinh_unit(bad)
            with pytest.raises(QuadratureError):
                _tanh_sinh_batch(np.array([0.0, 1.0]), (1.0,), 0.0, kernel, DEFAULT_CONFIG)


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
        """(integral, levels run) of one exponent's explicit integrand."""
        levels = []

        def f(lam, lam_c):
            levels.append(lam.size)
            return lam**q * kernel(x, lam) * log_recip(lam, lam_c) ** b

        return tanh_sinh_unit(f, cfg, singular_exponent=q, log_power=max(b, 0.0)), len(levels)

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

    def test_stopped_integrand_is_not_evaluated(self):
        blocks = [[], []]
        easy = lambda lam: lam  # noqa: E731
        hard = lambda lam: lam**0.5 * (1.0 + 1e8 * lam) ** -6.5  # noqa: E731

        def f(lam, lam_c):
            def term(k, block):
                assert lam is _block(block)[0]
                blocks[k].append(block)
                return (easy, hard)[k](lam)

            return term

        assert tanh_sinh_unit(f, singular_exponent=(0.0, 0.0)) == [
            tanh_sinh_unit(lambda lam, lam_c: easy(lam)),
            tanh_sinh_unit(lambda lam, lam_c: hard(lam)),
        ]
        # easy stops inside the first block (levels 0 to 4), hard goes on
        # one level per block
        assert blocks[0] == [_BLOCK_LEVEL]
        assert blocks[1] == list(range(_BLOCK_LEVEL, _BLOCK_LEVEL + len(blocks[1])))
        assert len(blocks[1]) > 1

    def test_earlier_exponent_error_wins(self):
        slow = lambda lam: step(lam, None)  # noqa: E731
        bad = lambda lam: 1.0 / (lam - lam)  # noqa: E731

        def pair(first, second):
            return lambda lam, lam_c: lambda k, level: (first, second)[k](lam)

        with pytest.raises(QuadratureConvergenceError) as alone:
            tanh_sinh_unit(step)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(QuadratureConvergenceError) as shared:
                tanh_sinh_unit(pair(slow, bad), singular_exponent=(0.0, 0.0))
            with pytest.raises(QuadratureError) as first_bad:
                tanh_sinh_unit(pair(bad, slow), singular_exponent=(0.0, 0.0))
        assert shared.value.best_estimate == alone.value.best_estimate
        assert shared.value.error_estimate == alone.value.error_estimate
        assert type(first_bad.value) is QuadratureError

    def test_cached_log_is_log_recip(self):
        for level in range(_MAX_LEVEL + 1):
            lam, lam_c, _, log_l = _nodes(level)
            assert np.array_equal(log_l, log_recip(lam, lam_c))


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
        monkeypatch.setattr(quadrature, "_point_pass",
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
    """run()'s value, or the type, message and estimates of its error."""
    try:
        return run()
    except QuadratureConvergenceError as exc:
        return "budget", str(exc), exc.best_estimate, exc.error_estimate
    except QuadratureError as exc:
        return "non-finite", str(exc)


def _marked(g, target):
    """g with a NaN at the node lambda == target."""
    return lambda lam: np.where(lam == target, np.nan, g(lam))


class TestBlocks:
    """The first call of f gets levels 0 to 4 at once; the bits are the
    per-level loop's (tests/oracles.py)."""

    @pytest.mark.parametrize("levels", [1, 2, 3, 4, 5, 6])
    def test_first_call_holds_the_first_levels(self, levels):
        # the step runs on until a NaN at one of level `levels`'s own nodes
        # ends the pass there
        nodes = _nodes(levels)[0]
        target = nodes[nodes.size // 4]
        marked = _marked(lambda lam: step(lam, None), target)
        calls = []

        def f(lam, lam_c):
            calls.append(lam)
            return marked(lam)

        with pytest.raises(QuadratureError) as err:
            tanh_sinh_unit(f)
        assert str(err.value) == f"integrand non-finite near lambda={target!r}"
        assert len(calls) == 1 + max(0, levels - _BLOCK_LEVEL)
        first = np.concatenate([_nodes(lv)[0] for lv in range(_BLOCK_LEVEL + 1)])
        assert np.array_equal(calls[0], first)
        assert all(lam is _nodes(lv)[0] for lv, lam in enumerate(calls[1:], _BLOCK_LEVEL + 1))

    # the power-log kernels, one that changes sign, whose L1 sums are not its
    # sums, and a step that no pass resolves, which runs through every level
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
        endpoint = {"singular_exponent": tuple(qs), "log_power": max(b, 0.0)}

        def f(lam, lam_c):
            k = self.ALL_KERNELS[kernel](x, lam)
            log_b = log_recip(lam, lam_c) ** b
            return lambda i, _: lam ** qs[i] * k * log_b

        blocked = _outcome(lambda: tanh_sinh_unit(f, cfg, **endpoint))
        assert blocked == _outcome(lambda: tanh_sinh_per_level(f, cfg, **endpoint))
        kernel = self.ALL_KERNELS[kernel]
        assert blocked == _outcome(lambda: power_log_integrals(x, qs, b, kernel, cfg))

    @pytest.mark.parametrize("g", [lambda lam: np.cos(2.0 * np.pi * lam), lambda lam: lam - 0.5])
    def test_signed_integrand_with_zero_integral(self, g):
        # the stopping rule then rests on the L1 sums, which are not the sums
        def f(lam, lam_c):
            return g(lam)

        assert _outcome(lambda: tanh_sinh_unit(f)) == _outcome(lambda: tanh_sinh_per_level(f))

    @settings(max_examples=60, deadline=None)
    @given(
        level=st.integers(min_value=0, max_value=6),
        node=st.integers(min_value=0, max_value=10**6),
        bad=st.sampled_from([0, 1]),
    )
    def test_non_finite_value_in_a_folded_level(self, level, node, bad):
        # the left half of each level's nodes holds lambda values no other
        # level has; both integrands fold levels 0 to 6 (they stop at 7 and 6)
        lam = _nodes(level)[0]
        target = lam[node % (lam.size // 2)]
        pair = [
            lambda lam: lam**0.5 * (1.0 + 1e8 * lam) ** -6.5,
            lambda lam: lam * (1.0 + 1e9 * lam) ** -4.0,
        ]
        pair[bad] = _marked(pair[bad], target)

        def f(lam, lam_c):
            return lambda k, _: pair[k](lam)

        endpoint = {"singular_exponent": (0.0, 0.0)}
        blocked = _outcome(lambda: tanh_sinh_unit(f, **endpoint))
        assert blocked == _outcome(lambda: tanh_sinh_per_level(f, **endpoint))
        alone = _outcome(lambda: tanh_sinh_unit(lambda lam, lam_c: pair[bad](lam)))
        assert blocked == alone == ("non-finite", f"integrand non-finite near lambda={target!r}")

    @pytest.mark.parametrize("easy", [lambda lam: lam, lambda lam: np.exp(-lam)])
    def test_non_finite_value_after_the_stop(self, easy):
        stops = []
        tanh_sinh_per_level(lambda lam, lam_c: stops.append(lam) or easy(lam))
        stop = len(stops) - 1
        assert stop < _BLOCK_LEVEL  # the levels after the stop are in the block
        hard = lambda lam: lam**0.5 * (1.0 + 1e8 * lam) ** -6.5  # noqa: E731
        for level in range(stop + 1, _BLOCK_LEVEL + 1):
            lam = _nodes(level)[0]
            marked = _marked(easy, lam[lam.size // 4])
            pair = (marked, hard)
            assert tanh_sinh_unit(lambda lam, lam_c: marked(lam)) == tanh_sinh_unit(
                lambda lam, lam_c: easy(lam)
            )
            assert tanh_sinh_unit(
                lambda lam, lam_c: lambda k, _: pair[k](lam), singular_exponent=(0.0, 0.0)
            ) == tanh_sinh_per_level(
                lambda lam, lam_c: lambda k, _: pair[k](lam), singular_exponent=(0.0, 0.0)
            )
