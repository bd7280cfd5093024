"""Monte Carlo oracle for group-sequential operating characteristics.

Trials are replayed path-wise on simulated sequential z-statistics with the
canonical covariance (independent score increments), entirely independent of
the quadrature recursion, so the two can validate each other. Replicates are
generated in fixed-size blocks with per-block substreams spawned from the
seed; block results are merged in block order, so estimates are bit-identical
for a given seed regardless of how many worker threads are used.
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


def _stage_arrays(config: SimConfig):
    design = config.design
    K = design.num_stages
    info = np.asarray(design.info_levels)
    e = np.asarray(design.boundaries.efficacy)
    f = np.asarray(design.boundaries.futility)
    mu = design.spec.evaluation_effect if config.mu is None else config.mu

    # sample size consumed / duration reached when stopping at each stage
    consumed = np.asarray(design.stage_n, dtype=float)
    durations = None
    if config.delay is not None:
        profile = pipeline_counts(design, config.delay.model, config.delay.m)
        consumed = consumed + np.asarray(profile.pipeline)
        durations = (
            np.asarray(profile.recruit_times)
            + config.delay.m
            + config.delay.m_interim
        )
    return K, info, e, f, mu, consumed, durations


def _simulate_z_block(rng, n, K, info, mu):
    """Sequential z-paths from independent score increments, shape (n, K)."""
    d_info = np.diff(np.concatenate(([0.0], info)))
    increments = rng.standard_normal((n, K)) * np.sqrt(d_info) + mu * d_info
    return np.cumsum(increments, axis=1) / np.sqrt(info)


def _run_block(seed_seq, size, stage_data):
    K, info, e, f, mu, consumed, durations = stage_data
    rng = np.random.default_rng(seed_seq)
    z = _simulate_z_block(rng, size, K, info, mu)

    active = np.ones(size, dtype=bool)
    accept_counts = np.zeros(K, dtype=np.int64)
    reject_counts = np.zeros(K, dtype=np.int64)
    n_sum = 0.0
    n_sq_sum = 0.0
    t_sum = 0.0
    t_sq_sum = 0.0
    for k in range(K):
        zk = z[active, k]
        rejected = zk > e[k]
        accepted = zk <= f[k] if k < K - 1 else ~rejected
        stopping = rejected | accepted
        reject_counts[k] = int(rejected.sum())
        accept_counts[k] = int(accepted.sum())
        stopped_here = int(stopping.sum())
        n_sum += consumed[k] * stopped_here
        n_sq_sum += consumed[k] ** 2 * stopped_here
        if durations is not None:
            t_sum += durations[k] * stopped_here
            t_sq_sum += durations[k] ** 2 * stopped_here
        idx = np.flatnonzero(active)
        active[idx[stopping]] = False
    return accept_counts, reject_counts, n_sum, n_sq_sum, t_sum, t_sq_sum


def simulate(config: SimConfig, threads: int = 1) -> SimResult:
    """Estimate exit probabilities, expected sample size and duration.

    Deterministic for a fixed seed and independent of ``threads``.
    """
    stage_data = _stage_arrays(config)
    R = config.replicates
    sizes = [_BLOCK_SIZE] * (R // _BLOCK_SIZE)
    if R % _BLOCK_SIZE:
        sizes.append(R % _BLOCK_SIZE)
    children = np.random.SeedSequence(config.seed).spawn(len(sizes))

    if threads > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, os.cpu_count() or 1)) as pool:
            results = list(pool.map(lambda c, s: _run_block(c, s, stage_data), children, sizes))
    else:
        results = [_run_block(c, s, stage_data) for c, s in zip(children, sizes)]

    K = stage_data[0]
    accept_counts = np.zeros(K, dtype=np.int64)
    reject_counts = np.zeros(K, dtype=np.int64)
    n_sum = n_sq_sum = t_sum = t_sq_sum = 0.0
    for acc, rej, ns, nss, ts, tss in results:
        accept_counts += acc
        reject_counts += rej
        n_sum += ns
        n_sq_sum += nss
        t_sum += ts
        t_sq_sum += tss

    def rate_and_se(counts):
        p = counts / R
        return p, np.sqrt(p * (1.0 - p) / R)

    p_acc, se_acc = rate_and_se(accept_counts)
    p_rej, se_rej = rate_and_se(reject_counts)
    mean_n = n_sum / R
    var_n = max(n_sq_sum / R - mean_n**2, 0.0)
    se_n = float(np.sqrt(var_n / R))

    mean_t = se_t = None
    if config.delay is not None:
        mean_t = t_sum / R
        var_t = max(t_sq_sum / R - mean_t**2, 0.0)
        se_t = float(np.sqrt(var_t / R))

    return SimResult(
        replicates=R,
        accept_per_stage=tuple(p_acc),
        reject_per_stage=tuple(p_rej),
        se_accept=tuple(se_acc),
        se_reject=tuple(se_rej),
        mean_sample_size=float(mean_n),
        se_sample_size=se_n,
        mean_duration=mean_t,
        se_duration=se_t,
    )
