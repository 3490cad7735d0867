"""Sampling determinism, distributional checks, SURE and domination runs."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from sure_boundary.boundary import DominatorSpec, construct_dominator
from sure_boundary.core import InputError, ProblemDims, constants
from sure_boundary.families import GBUnknown, PositivePartJS, Zero, make_shrinkage
from sure_boundary import montecarlo
from sure_boundary.montecarlo import (
    _CHUNK,
    THREADS_ENV_VAR,
    Normal,
    SimConfig,
    StudentT,
    _block,
    domination_mc,
    encode_model,
    estimate_risk,
    parse_model,
    sample_all,
    sure_unbiasedness_test,
    thread_cap_from_env,
)

DIMS = ProblemDims(5, 6)
K = constants(DIMS)
BASE = SimConfig(dims=DIMS, theta_norm=0.0, sigma=1.0, reps=10**5, seed=20240817)


class TestSampling:
    def test_bit_identical_across_calls(self):
        x1, s1 = sample_all(BASE)
        x2, s2 = sample_all(BASE)
        assert np.array_equal(x1, x2) and np.array_equal(s1, s2)

    @pytest.mark.parametrize(
        "config",
        [
            BASE,
            replace(BASE, model=StudentT(df=5.0)),
            # p + 2 = 8 words per replication: every chunk starts on a Philox block
            replace(BASE, dims=ProblemDims(6, 6)),
        ],
        ids=["normal-p5", "student-t-p5", "normal-p6"],
    )
    def test_chunking_does_not_change_values(self, config):
        x_all, s_all = sample_all(config)
        starts = range(0, config.reps, 10_001)
        xs, ss = zip(*(_block(config, i, min(i + 10_001, config.reps)) for i in starts))
        assert np.array_equal(np.concatenate(xs), x_all)
        assert np.array_equal(np.concatenate(ss), s_all)

    def test_replication_block_is_pure_function_of_seed_and_index(self):
        short = SimConfig(dims=DIMS, theta_norm=0.0, sigma=1.0, reps=1000, seed=BASE.seed)
        x_long, s_long = sample_all(BASE)
        x_short, s_short = sample_all(short)
        assert np.array_equal(x_short, x_long[:1000])
        assert np.array_equal(s_short, s_long[:1000])

    def test_chi2_mean(self):
        _, s = sample_all(BASE)
        se = s.std(ddof=1) / math.sqrt(len(s))
        assert abs(s.mean() - DIMS.n) <= 3.0 * se

    def test_w_has_scaled_f_distribution(self):
        x, s = sample_all(BASE)
        w = np.einsum("ij,ij->i", x, x) / s
        d_stat, _ = stats.kstest(
            w, lambda t: stats.f.cdf(t * DIMS.n / DIMS.p, DIMS.p, DIMS.n)
        )
        assert d_stat < 1.627624 / math.sqrt(BASE.reps)  # 1% critical value

    def test_sigma_invariance_of_w(self):
        # W = ||X||^2/S is scale-free under theta = 0
        a = SimConfig(dims=DIMS, theta_norm=0.0, sigma=0.5, reps=1000, seed=3)
        b = SimConfig(dims=DIMS, theta_norm=0.0, sigma=2.0, reps=1000, seed=3)
        xa, sa = sample_all(a)
        xb, sb = sample_all(b)
        wa = np.einsum("ij,ij->i", xa, xa) / sa
        wb = np.einsum("ij,ij->i", xb, xb) / sb
        assert wa == pytest.approx(wb, rel=1e-12)

    def test_orbit_invariance_of_loss(self):
        # rotating theta to another axis together with the noise leaves the
        # loss invariant; permutation of coordinates is such a rotation
        cfg = SimConfig(dims=DIMS, theta_norm=2.0, sigma=1.0, reps=2000, seed=5)
        phi = make_shrinkage(PositivePartJS(a=K.c_pn), DIMS)
        x, s = sample_all(cfg)
        w = np.einsum("ij,ij->i", x, x) / s
        shrink = 1.0 - np.asarray(phi.eval(w)) / w
        theta = np.zeros(DIMS.p)
        theta[0] = cfg.theta_norm
        loss = np.sum((shrink[:, None] * x - theta) ** 2, axis=1)
        perm = [4, 0, 3, 1, 2]
        loss_rot = np.sum((shrink[:, None] * x[:, perm] - theta[perm]) ** 2, axis=1)
        assert loss_rot == pytest.approx(loss, rel=1e-12)

    def test_model_encoding(self):
        assert parse_model("normal") == Normal()
        assert parse_model("student-t:df=5") == StudentT(df=5.0)
        assert encode_model(StudentT(df=5.0)) == "student-t:df=5.0"
        with pytest.raises(ValueError):
            parse_model("cauchy")
        with pytest.raises(ValueError):
            StudentT(df=2.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(dims=DIMS, sigma=0.0)
        with pytest.raises(ValueError):
            SimConfig(dims=DIMS, reps=0)
        with pytest.raises(ValueError):
            SimConfig(dims=DIMS, theta_norm=-1.0)
        with pytest.raises(ValueError, match="seed must fit in 64 bits"):
            SimConfig(dims=DIMS, seed=10**400)
        for field in ("theta_norm", "sigma"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"non-finite parameter '{field}' = {value}"):
                    SimConfig(dims=DIMS, **{field: value})
        # finite squares, but the extreme draws would overflow S or ||X||^2,
        # or leave S subnormal (a wider range of v narrows the sigma range)
        for sigma, model in [(1e154, Normal()), (1e-160, Normal()), (1e-151, StudentT(df=3.0)),
                             (1e150, StudentT(df=3.0))]:
            with pytest.raises(InputError, match=r"^sigma must lie in \["):
                SimConfig(dims=DIMS, sigma=sigma, model=model)
        for sigma in (1e-150, 0.5, 2.0, 1e152):
            SimConfig(dims=DIMS, sigma=sigma)

    def test_theta_norm_that_rounds_the_noise_away(self):
        # above 2^26 sigma sqrt(v_min), rounding theta + sigma sqrt(v) z could
        # drop the noise of the first coordinate: the MLE's risk is p at every
        # theta, but a theta of 1e150 read a mean loss of about p - 1
        top = 2.0**25  # sigma = 0.5 under the Normal model, where v = 1
        SimConfig(dims=DIMS, theta_norm=top, sigma=0.5)
        message = (r"^theta_norm must be at most 3\.355e\+07 .* at \(p, n\) = \(5, 6\) "
                   r"under normal, got 33554432\.00000001$")
        with pytest.raises(InputError, match=message):
            SimConfig(dims=DIMS, theta_norm=math.nextafter(top, math.inf), sigma=0.5)
        with pytest.raises(InputError, match=r"^theta_norm must be at most .* got 1e\+150$"):
            SimConfig(dims=DIMS, theta_norm=1e150)
        # a Student-t mixing draw below 1 lowers the bound
        with pytest.raises(InputError, match=r"under student-t:df=3\.0, got 33554432\.0$"):
            SimConfig(dims=DIMS, theta_norm=top, model=StudentT(df=3.0))
        cfg = SimConfig(dims=DIMS, theta_norm=1e7, reps=10**4, seed=3)
        r = estimate_risk(make_shrinkage(Zero(), DIMS), cfg)
        assert abs(r.mean_loss - DIMS.p) <= 4.0 * r.se_loss


class TestRisk:
    def test_mle_risk_is_p(self):
        r = estimate_risk(make_shrinkage(Zero(), DIMS), BASE)
        assert abs(r.mean_loss - DIMS.p) <= 3.0 * r.se_loss
        assert r.sure_mean == DIMS.p
        assert r.se_sure == 0.0

    def test_jsplus_strictly_improves_at_origin(self):
        r = estimate_risk(make_shrinkage(PositivePartJS(a=K.c_pn), DIMS), BASE)
        assert r.mean_loss < DIMS.p - 10.0 * r.se_loss

    def test_thread_cap_does_not_change_report(self):
        phi = make_shrinkage(PositivePartJS(a=K.c_pn), DIMS)
        assert estimate_risk(phi, BASE, threads=1) == estimate_risk(phi, BASE, threads=4)

    @pytest.mark.parametrize("model", [Normal(), StudentT(df=5.0)], ids=encode_model)
    def test_thread_cap_does_not_change_multichunk_reports(self, model):
        # three chunks, the last one partial, so the thread pool does run
        phi = make_shrinkage(PositivePartJS(a=K.c_pn), DIMS)
        zero = make_shrinkage(Zero(), DIMS)
        spec = construct_dominator(zero, DIMS, 1.5)
        cfg = SimConfig(dims=DIMS, theta_norm=1.0, sigma=1.0, reps=300_001, seed=11,
                        model=model)
        risks = [estimate_risk(phi, cfg, threads=t) for t in (1, 2, 4)]
        pairs = [domination_mc(zero, spec, [cfg], threads=t) for t in (1, 2, 4)]
        assert risks[0] == risks[1] == risks[2]
        assert pairs[0] == pairs[1] == pairs[2]

    @pytest.mark.parametrize("raw", ["two", "0"])
    def test_malformed_thread_cap_names_variable_and_value(self, monkeypatch, raw):
        monkeypatch.setenv(THREADS_ENV_VAR, raw)
        with pytest.raises(ValueError, match=f"{THREADS_ENV_VAR}.*'{raw}'"):
            thread_cap_from_env()

    @pytest.mark.parametrize("model", [Normal(), StudentT(df=10.0)], ids=encode_model)
    def test_leaf_size_does_not_change_reports(self, monkeypatch, model):
        # leaves from numpy's 128-row pairwise block up to a whole chunk; each
        # chunking has two or more chunks, the last one partial
        dims = ProblemDims(20, 6)
        phi = make_shrinkage(PositivePartJS(a=constants(dims).c_pn), dims)
        zero = make_shrinkage(Zero(), dims)
        spec = construct_dominator(zero, dims, 1.5)

        def reports(chunk, reps, leaf_rows):
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
            cfg = SimConfig(dims=dims, theta_norm=1.0, sigma=1.0, reps=reps, seed=11,
                            model=model)
            out = []
            for rows in leaf_rows:
                monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", (dims.p + 2) * rows)
                for threads in (1, 2, 3):
                    out.append((estimate_risk(phi, cfg, threads=threads),
                                domination_mc(zero, spec, [cfg], threads=threads)))
            return out

        # the default constants, whose 2978-row leaf bound cuts a chunk into
        # 64 leaves of 2048 rows and the 12 345-row partial chunk into 8
        default_rows = montecarlo._BLOCK_VALUES // (dims.p + 2)
        runs = reports(_CHUNK, _CHUNK + 12_345, (default_rows, _CHUNK))
        assert all(r == runs[0] for r in runs[1:])
        # 1025-row chunks: 128-row leaves are numpy's own blocks, 300-row ones
        # an uneven cut, and the partial chunk (700 rows) splits at 344
        small = 1025
        runs = reports(small, 2 * small + 700, (128, 300, small))
        assert all(r == runs[0] for r in runs[1:])

    def test_memory_does_not_grow_with_reps(self, monkeypatch):
        # nor with p or the chunk size: a thread holds one leaf at a time
        def peak(chunks: int, p: int) -> int:
            dims = ProblemDims(p, 6)
            phi = make_shrinkage(Zero(), dims)
            cfg = SimConfig(dims=dims, reps=chunks * montecarlo._CHUNK, seed=4)
            tracemalloc.start()
            try:
                estimate_risk(phi, cfg, threads=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        at_p5 = peak(2, 5)
        assert peak(8, 5) <= 1.25 * at_p5
        assert peak(2, 60) <= 1.25 * at_p5
        monkeypatch.setattr(montecarlo, "_CHUNK", 4 * _CHUNK)
        assert peak(2, 5) <= 1.25 * at_p5


@pytest.mark.parametrize("n", [1, 7, 8, 127, 128, 129, 8191, 8192, 8193, 82_496,
                               131_071, 131_072])
def test_leaf_fold_is_numpys_pairwise_sum(n):
    # if numpy's pairwise split ever changes, this fails before reports drift
    rng = np.random.default_rng(n)
    a = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    whole = float(np.add.reduce(a))
    plain = []
    for leaf in sorted({128, 129, 1000, 1024, 4096, 16_384, 20_000, max(n, 128)}):
        leaves = montecarlo._leaves(0, n, leaf)
        assert leaves[0][0] == 0 and leaves[-1][1] == n
        assert all(hi == lo for (_, hi), (lo, _) in zip(leaves, leaves[1:]))
        assert all(hi - lo <= leaf for lo, hi in leaves)
        sums = [float(np.add.reduce(a[lo:hi])) for lo, hi in leaves]
        assert montecarlo._fold(iter([s] for s in sums), n, leaf) == [whole]
        plain.append(float(np.cumsum(sums)[-1]))
    if n > 8192:
        # the data tell trees apart: summing the leaves left to right misses
        assert any(value != whole for value in plain)


class TestSureCheck:
    def test_zero_phi_unbiased(self):
        chk = sure_unbiasedness_test(make_shrinkage(Zero(), DIMS), BASE)
        assert not chk.flagged

    def test_gb_cells_unbiased(self):
        phi = make_shrinkage(GBUnknown(a=-2.0, b=1.0), DIMS)
        for theta in (0.0, 2.0, 10.0):
            for sigma in (0.5, 1.0, 2.0):
                cfg = SimConfig(dims=DIMS, theta_norm=theta, sigma=sigma,
                                reps=10**5, seed=99)
                chk = sure_unbiasedness_test(phi, cfg)
                assert abs(chk.z) < 4.0

    def test_gap_shrinks_with_replications(self):
        phi = make_shrinkage(PositivePartJS(a=K.c_pn), DIMS)
        gaps = []
        for reps in (2000, 16000, 128000):
            cfg = SimConfig(dims=DIMS, theta_norm=1.0, sigma=1.0, reps=reps, seed=301)
            chk = sure_unbiasedness_test(phi, cfg)
            gaps.append(abs(chk.mean_loss - chk.sure_mean))
        assert gaps[-1] < gaps[0]

    def test_single_replication_refused(self):
        # one replication has no standard error (a z-test would divide 0 by 0)
        with pytest.raises(InputError, match="reps must be >= 2, got 1"):
            replace(BASE, reps=1)

    def test_student_t_refused(self):
        cfg = SimConfig(dims=DIMS, reps=100, model=StudentT(df=5.0))
        with pytest.raises(ValueError):
            sure_unbiasedness_test(make_shrinkage(Zero(), DIMS), cfg)


class TestDomination:
    def test_degenerate_g_gives_identically_zero_diff(self):
        phi = make_shrinkage(Zero(), DIMS)
        spec = DominatorSpec(nu=0.5, w_sharp=1e15, ramp_width=1e15, b=1.5, w_star=4.0)
        rep = domination_mc(phi, spec, [SimConfig(dims=DIMS, reps=5000, seed=2)])[0]
        assert rep.mean_diff == 0.0
        assert rep.se_diff == 0.0

    def test_mle_dominated_and_paired_beats_unpaired(self):
        phi = make_shrinkage(Zero(), DIMS)
        spec = construct_dominator(phi, DIMS, 1.5)
        configs = [
            SimConfig(dims=DIMS, theta_norm=t, sigma=1.0, reps=10**5, seed=7)
            for t in (0.0, 1.0, 5.0, 20.0)
        ]
        for rep in domination_mc(phi, spec, configs):
            assert rep.mean_diff >= -3.0 * rep.se_diff
            assert rep.se_diff < rep.se_unpaired

    def test_student_t_extension(self):
        phi = make_shrinkage(Zero(), DIMS)
        spec = construct_dominator(phi, DIMS, 1.5)
        cfg = SimConfig(dims=DIMS, theta_norm=1.0, sigma=1.0, reps=10**5,
                        seed=8, model=StudentT(df=5.0))
        rep = domination_mc(phi, spec, [cfg])[0]
        assert rep.mean_diff >= -3.0 * rep.se_diff
