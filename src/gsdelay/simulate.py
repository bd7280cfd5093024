"""Monte Carlo oracle for group-sequential operating characteristics.

Trials are replayed path-wise on simulated sequential z-statistics with the
canonical covariance (independent score increments), entirely independent of
the quadrature recursion, so the two can validate each other. Replicates are
generated in fixed-size blocks with per-block substreams spawned from the
seed. Each block tallies its paths by exit stage, the first k with
Z_k > e_k or Z_k <= f_k (f_K = e_K, so every path stops by stage K), and
counts the rejections among them. A trial's sample size and duration depend
only on its exit stage, so the two count vectors are sufficient: every
estimate and standard error follows from their sums. The blocks' counts are
summed in block order, so estimates are bit-identical for a given seed
regardless of how many worker threads are used.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .delay import DelayQuery
from .design import GroupSequentialDesign
from .errors import ConfigError
from .recruitment import pipeline_counts

__all__ = ["SimConfig", "SimResult", "simulate"]

_BLOCK_SIZE = 1 << 17


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
    """Paths of one block stopping at each stage, and those of them that reject."""
    rng = np.random.default_rng(seed_seq)
    K = info.size
    d_info = np.diff(np.concatenate(([0.0], info)))
    increments = rng.standard_normal((size, K)) * np.sqrt(d_info) + mu * d_info
    z = np.cumsum(increments, axis=1) / np.sqrt(info)
    rejects = z > e
    exit_stage = (rejects | (z <= f)).argmax(axis=1)
    rejected = rejects[np.arange(size), exit_stage]
    return np.bincount(exit_stage, minlength=K), np.bincount(exit_stage[rejected], minlength=K)


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
