"""Monte Carlo oracle for group-sequential operating characteristics.

Trials are replayed path-wise on simulated sequential z-statistics with the
canonical covariance (independent score increments), entirely independent of
the quadrature recursion, so the two can validate each other. Replicates are
generated in fixed-size blocks with per-block substreams spawned from the
seed. Each block tallies its paths by exit stage, the first k with Z_k > e_k
or Z_k <= f_k (f_K = e_K, so every path stops by stage K), and counts the
rejections among them. A block's normals are drawn in row chunks of
_CHUNK paths into one reused (chunk, K) buffer; drawing a C-order (size, K)
array in consecutive row chunks gives the same stream, so each normal
belongs to the same path whatever the chunk size, and a thread's working
memory is O(chunk * K), not O(block * K). Each chunk is tallied one stage
at a time: the stage's column of the chunk's normals is scaled into a
contiguous row, added to a running score and divided by sqrt(I_k) into one
reused z buffer, and the crossings are counted among the paths a running
mask still holds, then cleared from it. These are the float operations of a
per-path replay, in its order, so the counts are bit-identical to it. A
trial's sample size and duration depend only on its exit stage, so the two
count vectors are sufficient: every estimate and standard error follows
from their sums. The blocks' counts are summed in block order, so estimates
are bit-identical for a given seed regardless of how many worker threads
are used.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .delay import DelayQuery
from .design import GroupSequentialDesign, _check_finite
from .errors import ConfigError
from .recruitment import pipeline_counts

__all__ = ["SimConfig", "SimResult", "simulate"]

_BLOCK_SIZE = 1 << 17
_CHUNK = 1 << 14  # paths drawn and tallied at a time within a block


@dataclass(frozen=True)
class SimConfig:
    """A reproducible simulation request.

    mu overrides the effect (defaults to the design's evaluation effect);
    delay, when given, adds pipeline participants to the consumed sample
    size and reports expected durations.
    """

    design: GroupSequentialDesign
    replicates: int
    seed: int
    delay: DelayQuery | None = None
    mu: float | None = None

    def __post_init__(self):
        if self.replicates < 1:
            raise ConfigError("at least one replicate is required")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if self.mu is not None:
            # a NaN z-path crosses no bound, so it would stop at no stage
            _check_finite("mu", self.mu)


@dataclass(frozen=True)
class SimResult:
    """Estimated operating characteristics with standard errors."""

    replicates: int
    accept_per_stage: tuple[float, ...]
    reject_per_stage: tuple[float, ...]
    se_accept: tuple[float, ...]
    se_reject: tuple[float, ...]
    mean_sample_size: float
    se_sample_size: float
    mean_duration: float | None
    se_duration: float | None

    @property
    def stop_per_stage(self) -> tuple[float, ...]:
        return tuple(a + r for a, r in zip(self.accept_per_stage, self.reject_per_stage))

    @property
    def total_reject(self) -> float:
        return sum(self.reject_per_stage)


def _tally(seed_seq, size: int, info, e, f, mu: float):
    """Paths of one block stopping at each stage, and those of them that reject.

    The normals are drawn chunk by chunk into one reused buffer, in the
    order of one (size, K) array, so the stream and the path each normal
    belongs to do not depend on the chunk size.
    """
    rng = np.random.default_rng(seed_seq)
    K = info.size
    d_info = np.diff(np.concatenate(([0.0], info)))
    sd, drift, sqrt_info = np.sqrt(d_info), mu * d_info, np.sqrt(info)
    rows = min(size, _CHUNK)
    normals = np.empty((rows, K))
    score, step, z = np.empty(rows), np.empty(rows), np.empty(rows)
    running, hit = np.empty(rows, dtype=bool), np.empty(rows, dtype=bool)
    stops, rejects = np.zeros(K, dtype=np.intp), np.zeros(K, dtype=np.intp)
    for start in range(0, size, rows):
        if size - start < rows:  # the last chunk is short: tally views of the buffers
            rows = size - start
            normals, score, step, z, running, hit = (
                a[:rows] for a in (normals, score, step, z, running, hit)
            )
        rng.standard_normal(out=normals)
        score.fill(0.0)
        running.fill(True)
        for k in range(K):
            np.multiply(normals[:, k], sd[k], out=step)
            step += drift[k]
            score += step
            np.divide(score, sqrt_info[k], out=z)
            np.greater(z, e[k], out=hit)
            hit &= running
            crossed = np.count_nonzero(hit)
            rejects[k] += crossed
            running ^= hit
            np.less_equal(z, f[k], out=hit)
            hit &= running
            stops[k] += crossed + np.count_nonzero(hit)
            running ^= hit
    return stops, rejects


def simulate(config: SimConfig, threads: int = 1) -> SimResult:
    """Estimate exit probabilities, expected sample size and duration.

    Deterministic for a fixed seed and independent of ``threads``.
    """
    design = config.design
    mu = design.spec.evaluation_effect if config.mu is None else config.mu
    bounds = design.boundaries
    paths = (np.asarray(design.info_levels), np.asarray(bounds.efficacy),
             np.asarray(bounds.futility), mu)
    # sample size consumed / duration reached when stopping at each stage
    consumed = np.asarray(design.stage_n, dtype=float)
    durations = None
    if config.delay is not None:
        profile = pipeline_counts(design, config.delay.model, config.delay.m)
        consumed = consumed + np.asarray(profile.pipeline)
        durations = np.asarray(profile.recruit_times) + config.delay.m + config.delay.m_interim

    R = config.replicates
    sizes = [_BLOCK_SIZE] * (R // _BLOCK_SIZE)
    if R % _BLOCK_SIZE:
        sizes.append(R % _BLOCK_SIZE)
    children = np.random.SeedSequence(config.seed).spawn(len(sizes))
    if threads > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, os.cpu_count() or 1)) as pool:
            tallies = list(pool.map(lambda c, s: _tally(c, s, *paths), children, sizes))
    else:
        tallies = [_tally(c, s, *paths) for c, s in zip(children, sizes)]
    stops = sum(t[0] for t in tallies)
    rejects = sum(t[1] for t in tallies)

    def rate_and_se(counts):
        p = counts / R
        return p, np.sqrt(p * (1.0 - p) / R)

    p_acc, se_acc = rate_and_se(stops - rejects)
    p_rej, se_rej = rate_and_se(rejects)
    p_stop = stops / R

    def mean_and_se(x):
        # x holds the value at each exit stage; the variance is taken about the mean
        mean = float(np.dot(p_stop, x))
        return mean, float(np.sqrt(np.dot(p_stop, (x - mean) ** 2) / R))

    mean_n, se_n = mean_and_se(consumed)
    mean_t, se_t = (None, None) if durations is None else mean_and_se(durations)
    return SimResult(
        replicates=R,
        accept_per_stage=tuple(p_acc),
        reject_per_stage=tuple(p_rej),
        se_accept=tuple(se_acc),
        se_reject=tuple(se_rej),
        mean_sample_size=mean_n,
        se_sample_size=se_n,
        mean_duration=mean_t,
        se_duration=se_t,
    )
