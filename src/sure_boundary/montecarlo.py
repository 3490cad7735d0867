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
_CHUNK blocks; each chunk seeks its own block of the stream and is reduced
to partial sums inside whichever thread runs it.  A chunk is sampled and
evaluated in row sub-blocks of about _BLOCK_VALUES uniforms, so per-thread
memory is one sub-block plus the chunk's per-replication outputs, whatever
reps and p are.  Partial sums are combined with math.fsum in fixed chunk
order, so the reduction is exact and reports are bit-identical across
thread counts and sub-block sizes.

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
from typing import Callable, Sequence, Union

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
_CHUNK = 1 << 17
# Uniforms per row sub-block of a chunk (1 MB; see _mean_se).  Reports do not
# depend on it: every per-replication value is row-local and the sums still
# run over whole chunks.
_BLOCK_VALUES = 1 << 17


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
    """One simulation cell; every report is a pure function of this value."""

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
        if not (self.sigma > 0.0 and 0.0 < self.sigma * self.sigma < math.inf):
            raise InputError(f"sigma must be > 0 with a finite, nonzero square, got {self.sigma!r}")
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


_U_MIN = 2.0**-53  # uniforms are k/2^53; clamp the single value 0.0 away


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


def _mean_se(
    config: SimConfig,
    per_rep: Callable[[np.ndarray, np.ndarray], Sequence[np.ndarray]],
    threads: int | None,
) -> list[tuple[float, float]]:
    """(mean, se) of each per-replication array that per_rep(X, W) returns.

    Each _CHUNK block is reduced to its sum and sum of squares in the thread
    that runs it.  It is sampled and evaluated in row sub-blocks of about
    _BLOCK_VALUES uniforms whose outputs are joined back to chunk length
    before the sums, so per-thread memory is one sub-block plus the chunk's
    per-replication outputs, independent of reps and p.  Chunks are combined
    with math.fsum in chunk order, which keeps reports independent of the
    thread count.
    """
    step = max(1, _BLOCK_VALUES // (config.dims.p + 2))

    def chunk_sums(start: int) -> list[tuple[float, float]]:
        stop = min(start + _CHUNK, config.reps)
        outputs = []
        for lo in range(start, stop, step):
            x, s = _block(config, lo, min(lo + step, stop))
            outputs.append(per_rep(x, np.einsum("ij,ij->i", x, x) / s))
        return [(float(np.sum(a)), float(np.sum(a * a)))
                for a in map(np.concatenate, zip(*outputs))]

    starts = range(0, config.reps, _CHUNK)
    workers = thread_cap_from_env() if threads is None else threads
    if workers <= 1 or len(starts) <= 1:
        parts = [chunk_sums(start) for start in starts]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(chunk_sums, starts))
    count = config.reps
    stats = []
    for column in zip(*parts):
        total, total_sq = (math.fsum(sums) for sums in zip(*column))
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
