"""Reproducible risk simulation, SURE checks, and paired domination runs.

Sampling model: X ~ N_p(theta, sigma^2 v I_p) and S ~ sigma^2 v chi^2_n with
v = 1 (Normal) or v ~ inverse-gamma(df/2, df/2) shared by X and S within a
replication (StudentT).  The shared mixing draw is what makes the Student-t
case a spherically symmetric scale mixture of the Normal model rather than a
vector of independent t components.  Risks are under scaled quadratic loss
||d - theta||^2 / sigma^2, and theta is placed on the first axis: the loss
and the estimators depend on theta only through ||theta|| (orbit invariance),
so a norm fully specifies the experiment.

Determinism contract
--------------------
All variates are produced by inverse-CDF transforms of a counter-based
uniform stream (Philox keyed by the seed; one 64-bit word per uniform, fixed
consumption).  Replication r owns the contiguous uniform block
[r*(p+2), (r+1)*(p+2)): coordinates 0..p-1 drive the normal draws, p drives
S, and p+1 drives the mixing variable (reserved, and burned, under the
Normal model too, so the two models are coupled by common random numbers).
Hence (X_r, S_r) is a pure function of (seed, r): samples are bit-identical
across runs and chunk sizes.  Risk runs split the replications into fixed
_CHUNK blocks, and each chunk is cut where numpy's pairwise sum splits it,
into leaves of about _BLOCK_VALUES uniforms.  The thread pool runs the
leaves of all chunks; each leaf seeks its own block of the stream and is
reduced to sums and sums of squares inside whichever thread runs it, so
per-thread memory is one leaf, whatever reps, p and _CHUNK are.  The leaf
sums are added back up the same tree, which is numpy's sum over the whole
chunk bit for bit, and chunks are combined with math.fsum in fixed chunk
order, so reports are bit-identical across thread counts and leaf sizes.

SURE checking: for the Normal model E[p + (n+2) D_phi(W)] equals the risk,
so the z-score (mean_loss - sure_mean)/sqrt(se_loss^2 + se_sure^2) should be
small; the report flags |z| > 4.  For Student-t the statistic is *not* an
unbiased risk estimate and the check refuses to run.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Sequence, Union

import numpy as np
from scipy.special import gammaincinv, ndtri

from .boundary import DominatorSpec, dominator_g
from .core import InputError, ProblemDims, ShrinkageFunction, d_phi, encode_spec, parse_spec
from .core import require_finite

__all__ = [
    "Normal",
    "StudentT",
    "ModelSpec",
    "SimConfig",
    "RiskReport",
    "SureCheckReport",
    "PairedReport",
    "parse_model",
    "encode_model",
    "sample_all",
    "estimate_risk",
    "sure_unbiasedness_test",
    "domination_mc",
    "thread_cap_from_env",
]

THREADS_ENV_VAR = "SURE_BOUNDARY_THREADS"
_U_MIN = 2.0**-53  # uniforms are k/2^53; clamp the single value 0.0 away
_CHUNK = 1 << 17
# Uniforms per leaf of a chunk at most (512 KB, but never under 128 rows; see
# _mean_se), the memory a thread holds at once.  Reports do not depend on it:
# every per-replication value is row-local and a leaf is a node of numpy's
# pairwise-sum tree.
_BLOCK_VALUES = 1 << 16


@dataclass(frozen=True)
class Normal:
    pass


@dataclass(frozen=True)
class StudentT:
    df: float

    def __post_init__(self) -> None:
        require_finite(self)
        if not self.df > 2.0:
            raise InputError("StudentT requires df > 2")


ModelSpec = Union[Normal, StudentT]
_MODEL_KINDS = {"normal": Normal, "student-t": StudentT}


def parse_model(text: str) -> ModelSpec:
    return parse_spec(text, _MODEL_KINDS)


def encode_model(model: ModelSpec) -> str:
    return encode_spec(model, _MODEL_KINDS)


@dataclass(frozen=True)
class SimConfig:
    """One simulation cell; every report is a pure function of this value.

    sigma must keep every sample in the normal float range.  The inverse
    CDFs of _block take their extremes at the extreme uniforms 2^-53 and
    1 - 2^-53: a normal draw lies within +-z, z = ndtri(1 - 2^-53) = 8.21,
    S / (sigma^2 v) within 2 gammaincinv(n/2, u) at those two u, and v
    within df/2 / gammaincinv(df/2, u) (v = 1 under Normal).  So sigma^2
    times the smallest v and the smallest S / sigma^2 must be a normal
    float, which keeps the variance of X and every S out of the subnormals,
    and sigma^2 times the largest v and the larger of p z^2 (||X||^2 at
    theta = 0) and the largest S / sigma^2 must be finite.  theta_norm must
    not exceed 2^26 sigma sqrt(v_min), v_min the smallest v, so that
    rounding theta + sigma sqrt(v) z moves it by at most 2^-27 of the noise
    scale and the noise is not rounded away.
    """

    dims: ProblemDims
    theta_norm: float = 0.0
    sigma: float = 1.0
    reps: int = 10**5
    seed: int = 0
    model: ModelSpec = Normal()

    def __post_init__(self) -> None:
        require_finite(self)
        if self.theta_norm < 0.0:
            raise InputError("theta_norm must be >= 0")
        u = (_U_MIN, 1.0 - _U_MIN)
        chi2 = [2.0 * float(q) for q in gammaincinv(self.dims.n / 2.0, u)]
        v = [1.0, 1.0]
        if isinstance(self.model, StudentT):
            half_df = self.model.df / 2.0
            v = [half_df / float(q) for q in gammaincinv(half_df, u[::-1])]
        z = float(ndtri(u[1]))
        floats = np.finfo(float)
        sigma_lo = math.sqrt(float(floats.tiny) / (v[0] * min(1.0, chi2[0])))
        sigma_hi = math.sqrt(float(floats.max) / (v[1] * max(self.dims.p * z * z, chi2[1])))
        if not sigma_lo <= self.sigma <= sigma_hi:
            raise InputError(
                f"sigma must lie in [{sigma_lo:.4g}, {sigma_hi:.4g}] to keep the sample "
                f"in the normal float range at (p, n) = ({self.dims.p}, {self.dims.n}) "
                f"under {encode_model(self.model)}, got {self.sigma!r}"
            )
        theta_hi = 2.0**26 * self.sigma * math.sqrt(v[0])
        if self.theta_norm > theta_hi:
            raise InputError(
                f"theta_norm must be at most {theta_hi:.4g} so that theta + sigma sqrt(v) z "
                f"keeps its noise at (p, n) = ({self.dims.p}, {self.dims.n}) "
                f"under {encode_model(self.model)}, got {self.theta_norm!r}"
            )
        if self.reps < 1:
            raise InputError("reps must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise InputError("seed must fit in 64 bits")


@dataclass(frozen=True)
class RiskReport:
    mean_loss: float
    se_loss: float
    sure_mean: float
    se_sure: float
    reps: int


@dataclass(frozen=True)
class SureCheckReport:
    z: float
    mean_loss: float
    se_loss: float
    sure_mean: float
    se_sure: float
    reps: int
    flagged: bool  # |z| > 4


@dataclass(frozen=True)
class PairedReport:
    """Common-random-number comparison of delta_phi against delta_{phi+g}."""

    config: SimConfig
    mean_diff: float  # mean of loss(delta_phi) - loss(delta_{phi+g})
    se_diff: float
    se_unpaired: float  # what independent streams would have given
    reps: int


def thread_cap_from_env() -> int:
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        return 1
    message = f"{THREADS_ENV_VAR} must be an integer >= 1, got {raw!r}"
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(message) from None
    if cap < 1:
        raise ValueError(message)
    return cap


def _block(config: SimConfig, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(X, S) of replications [start, stop) by inverse CDFs of their uniforms.

    Philox yields 4 words per counter step, so seeking replication start's
    first word is one counter jump plus a skip of fewer than 4 words.
    """
    p, n = config.dims.p, config.dims.n
    bits = np.random.Philox(key=config.seed)
    word = start * (p + 2)
    bits.advance(word // 4)
    bits.random_raw(word % 4)
    u = np.random.Generator(bits).random((stop - start, p + 2))
    np.maximum(u, _U_MIN, out=u)
    if isinstance(config.model, StudentT):
        half_df = config.model.df / 2.0
        v = half_df / gammaincinv(half_df, u[:, p + 1])
    else:
        v = np.ones(len(u))
    scale = config.sigma * np.sqrt(v)
    x = scale[:, None] * ndtri(u[:, :p])
    x[:, 0] += config.theta_norm
    s = config.sigma**2 * v * 2.0 * gammaincinv(n / 2.0, u[:, p])
    return x, s


def sample_all(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """All replications at once: X of shape (reps, p) and S of shape (reps,)."""
    return _block(config, 0, config.reps)


def _loss(
    phi: ShrinkageFunction, x: np.ndarray, w: np.ndarray, config: SimConfig
) -> np.ndarray:
    shrink = 1.0 - np.asarray(phi.eval(w), dtype=float) / w
    resid = shrink[:, None] * x
    resid[:, 0] -= config.theta_norm
    return np.einsum("ij,ij->i", resid, resid) / config.sigma**2


def _pairwise_split(rows: int) -> int:
    """Rows in the left half where numpy's pairwise sum splits rows values."""
    half = rows // 2
    return half - half % 8


def _leaves(start: int, stop: int, leaf: int) -> list[tuple[int, int]]:
    """Rows [start, stop) cut along numpy's pairwise tree into nodes of at
    most leaf rows, in row order."""
    if stop - start <= leaf:
        return [(start, stop)]
    mid = start + _pairwise_split(stop - start)
    return _leaves(start, mid, leaf) + _leaves(mid, stop, leaf)


def _fold(sums: Iterator[list[float]], rows: int, leaf: int) -> list[float]:
    """Add the next leaves' sums of a node of rows rows up its pairwise tree."""
    if rows <= leaf:
        return next(sums)
    half = _pairwise_split(rows)
    left = _fold(sums, half, leaf)
    return [a + b for a, b in zip(left, _fold(sums, rows - half, leaf))]


def _mean_se(
    config: SimConfig,
    per_rep: Callable[[np.ndarray, np.ndarray], Sequence[np.ndarray]],
    threads: int | None,
) -> list[tuple[float, float]]:
    """(mean, se) of each per-replication array that per_rep(X, W) returns.

    Each _CHUNK block is cut where numpy's pairwise sum splits it, into
    leaves of about _BLOCK_VALUES uniforms (never under numpy's 128-value
    pairwise block).  A leaf is sampled, evaluated and reduced to the sum
    and sum of squares of each output in whichever thread runs it, so
    per-thread memory is one leaf, independent of reps, p and _CHUNK.  The
    leaf sums are added back up the same tree, which gives np.sum over the
    whole chunk bit for bit; chunks are combined with math.fsum in chunk
    order, which keeps reports independent of the thread count.
    """
    leaf = max(_BLOCK_VALUES // (config.dims.p + 2), 128)
    # Allocate and free 2 * _BLOCK_VALUES floats (1 MB) first.  glibc raises
    # its mmap threshold to the size of a freed mmapped block and its heap
    # trim threshold to twice that (mallopt(3)), so the memory a leaf frees
    # stays mapped for the next leaf; otherwise every leaf faults its pages
    # in afresh (1e6 reps at p = 20: 1e5 minor faults, 20 % more CPU time).
    np.empty(2 * _BLOCK_VALUES)

    def leaf_sums(rows: tuple[int, int]) -> list[float]:
        x, s = _block(config, *rows)
        sums = []
        for a in per_rep(x, np.einsum("ij,ij->i", x, x) / s):
            sums += float(np.add.reduce(a)), float(np.add.reduce(a * a))
        return sums

    starts = range(0, config.reps, _CHUNK)
    tasks = [rows for start in starts
             for rows in _leaves(start, min(start + _CHUNK, config.reps), leaf)]
    workers = thread_cap_from_env() if threads is None else threads
    if workers <= 1 or len(tasks) <= 1:
        sums = map(leaf_sums, tasks)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            sums = pool.map(leaf_sums, tasks)
    parts = [_fold(sums, min(_CHUNK, config.reps - start), leaf) for start in starts]
    totals = [math.fsum(column) for column in zip(*parts)]
    count = config.reps
    stats = []
    for total, total_sq in zip(totals[::2], totals[1::2]):
        mean = total / count
        var = max(total_sq - count * mean * mean, 0.0) / (count - 1) if count > 1 else 0.0
        stats.append((mean, math.sqrt(var / count)))
    return stats


def estimate_risk(
    phi: ShrinkageFunction, config: SimConfig, threads: int | None = None
) -> RiskReport:
    """Monte Carlo risk of delta_phi together with the mean SURE statistic."""
    dims = config.dims

    def per_rep(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sure = dims.p + (dims.n + 2) * np.asarray(d_phi(phi, w, dims), dtype=float)
        return _loss(phi, x, w, config), sure

    (mean_loss, se_loss), (sure_mean, se_sure) = _mean_se(config, per_rep, threads)
    return RiskReport(mean_loss=mean_loss, se_loss=se_loss, sure_mean=sure_mean,
                      se_sure=se_sure, reps=config.reps)


def sure_unbiasedness_test(
    phi: ShrinkageFunction, config: SimConfig, threads: int | None = None
) -> SureCheckReport:
    """z-score of mean_loss against sure_mean; Normal model only."""
    if not isinstance(config.model, Normal):
        raise ValueError(
            "SURE is an unbiased risk estimate only under the Normal model; "
            "refusing to z-test a Student-t run"
        )
    if config.reps < 2:  # one replication has no standard error to divide by
        raise InputError(f"a SURE z-test needs reps >= 2, got {config.reps}")
    r = estimate_risk(phi, config, threads)
    denom = math.hypot(r.se_loss, r.se_sure)
    z = (r.mean_loss - r.sure_mean) / denom if denom > 0.0 else 0.0
    return SureCheckReport(z=z, flagged=abs(z) > 4.0, **asdict(r))


def domination_mc(
    phi: ShrinkageFunction,
    spec: DominatorSpec,
    configs: Sequence[SimConfig],
    threads: int | None = None,
) -> list[PairedReport]:
    """Paired loss differences loss(delta_phi) - loss(delta_{phi+g}) per cell.

    The same (X, S) drive both estimators within a replication (common
    random numbers), which is what makes small risk gaps resolvable.
    """
    g = dominator_g(spec)
    phi_g = phi.plus(g)
    reports = []
    for config in configs:

        def per_rep(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, ...]:
            base = _loss(phi, x, w, config)
            challenger = _loss(phi_g, x, w, config)
            return base - challenger, base, challenger

        (mean_diff, se_diff), (_, se_base), (_, se_chal) = _mean_se(config, per_rep, threads)
        reports.append(PairedReport(config=config, mean_diff=mean_diff, se_diff=se_diff,
                                    se_unpaired=math.hypot(se_base, se_chal),
                                    reps=config.reps))
    return reports
