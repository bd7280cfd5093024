"""Delay-adjusted efficiency metrics and expected trial duration.

With an outcome delay of m months, participants recruited during the delay
window of each interim ("pipeline" participants) are enrolled whether or not
the trial stops there. The delay-adjusted expected sample size counts them
at every possible stopping stage; comparing the resulting efficiency gain
with the undelayed one gives the percentage of the gain lost to delay, which
can exceed 100 when the delayed design is worse than a single-stage trial.

Everything here is computed by ``_delay_columns`` for one design under a
tuple of recruitment models and a whole grid of delays in one numpy pass:
the stop probabilities depend only on the design, the accrual curves and
stage recruit times on the (design, model) pair, and each metric is one
array operation over a (model, delay) block. A sweep makes one such pass
per design, and ``verify_all`` reads each reference table off the same
sweep grid; the public functions are its one-model, one-delay views. Each
entry is bit for bit what the same formulas give evaluated one model and
one delay at a time:
the expected sample size is ``np.vecdot``, which sums each row in the same
order as ``np.dot`` does, and the expected time sums its stages in order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import GroupSequentialDesign
from .errors import ConfigError
from .recruitment import PipelineProfile, RecruitmentModel, _check_delay, _pipeline

__all__ = [
    "DelayQuery",
    "DelayAssessment",
    "ess_delay",
    "efficiency_loss",
    "expected_time",
    "assess_delay",
]


@dataclass(frozen=True)
class DelayQuery:
    """An outcome delay of m months under a recruitment model.

    m_interim is a one-off analysis overhead added to the expected
    completion time.
    """

    m: float
    model: RecruitmentModel
    m_interim: float = 0.0

    def __post_init__(self):
        _check_delay("m", self.m)
        _check_delay("m_interim", self.m_interim)


@dataclass(frozen=True)
class DelayAssessment:
    """Delay-adjusted operating characteristics of one design.

    el is None when the design has no efficiency gain to lose (eg <= 0).
    """

    profile: PipelineProfile
    ess_delay: float
    eg: float
    eg_delay: float
    el: float | None
    et: float
    t_single: float
    et_single: float


@dataclass(frozen=True)
class _DelayColumns:
    """Delay-adjusted metrics of one design under P recruitment models and M delays.

    pipeline is (P, M, K) and recruit_times (P, K); t_single has one entry
    per model and the other metrics are (P, M). el is None when the design
    gains nothing (eg <= 0).
    """

    pipeline: np.ndarray
    recruit_times: np.ndarray
    ess_delay: np.ndarray
    eg_delay: np.ndarray
    el: np.ndarray | None
    et: np.ndarray
    t_single: np.ndarray
    et_single: np.ndarray


def _ess_delay(design: GroupSequentialDesign, pipeline: np.ndarray) -> np.ndarray:
    """Expected sample size counting pipeline participants, per row of pipeline.

    The same sum as the design's ess, so a zero pipeline reproduces it bit
    for bit (the final stage has no pipeline).
    """
    return np.vecdot(np.asarray(design.stage_n) + pipeline, design.exit.stop_per_stage)


def _gain_and_loss(design: GroupSequentialDesign, essd):
    """The delayed efficiency gain, and the percentage of the gain lost (None if eg <= 0)."""
    eg_delay = (design.n_single - essd) / design.n_single
    eg = design.eg
    return eg_delay, (100.0 * (eg - eg_delay) / eg if eg > 0 else None)


def _delay_columns(
    design: GroupSequentialDesign, models: tuple[RecruitmentModel, ...], ms, m_interim: float
) -> _DelayColumns:
    """Delay assessment of one design under each recruitment model, for every delay in ms.

    The expected completion time is m + m_interim + sum_k t_k * S_k, and the
    single-stage trial recruits at the same rate and completes at
    t_single + m.
    """
    _check_delay("m_interim", m_interim)
    pipeline, times = _pipeline(design, models, ms)
    essd = _ess_delay(design, pipeline)
    eg_delay, el = _gain_and_loss(design, essd)
    m = np.asarray(ms, dtype=float)
    stop = np.asarray(design.exit.stop_per_stage)
    t_single = design.n_single * np.array([model.t_max for model in models]) / design.max_n
    return _DelayColumns(
        pipeline=pipeline,
        recruit_times=times,
        ess_delay=essd,
        eg_delay=eg_delay,
        el=el,
        # cumsum adds the stages one at a time, in order
        et=m + m_interim + np.cumsum(times * stop, axis=1)[:, -1:],
        t_single=t_single,
        et_single=t_single[:, None] + m,
    )


def ess_delay(design: GroupSequentialDesign, profile: PipelineProfile) -> float:
    """Expected sample size counting pipeline participants at interim stops."""
    if len(profile.pipeline) != design.num_stages:
        raise ConfigError("pipeline profile does not match the design's stage count")
    return float(_ess_delay(design, np.asarray(profile.pipeline)))


def efficiency_loss(design: GroupSequentialDesign, profile: PipelineProfile) -> float | None:
    """Percentage of the expected-sample-size gain lost to the delay.

    Returns None when the design gains nothing over the single-stage test
    (eg <= 0), where the loss percentage is undefined.
    """
    return _gain_and_loss(design, ess_delay(design, profile))[1]


def expected_time(
    design: GroupSequentialDesign, query: DelayQuery
) -> tuple[float, float, float]:
    """Expected completion time of the design and of the single-stage trial.

    Returns (et, t_single, et_single): the design's expected time
    m + m_interim + sum_k t_k * S_k, the single-stage recruitment time at the
    same rate, and the single-stage completion time t_single + m.
    """
    cols = _delay_columns(design, (query.model,), (query.m,), query.m_interim)
    return float(cols.et[0, 0]), float(cols.t_single[0]), float(cols.et_single[0, 0])


def assess_delay(design: GroupSequentialDesign, query: DelayQuery) -> DelayAssessment:
    """Full delay assessment of a built design."""
    cols = _delay_columns(design, (query.model,), (query.m,), query.m_interim)
    return DelayAssessment(
        profile=PipelineProfile(
            tuple(cols.pipeline[0, 0].tolist()), tuple(cols.recruit_times[0].tolist())
        ),
        ess_delay=float(cols.ess_delay[0, 0]),
        eg=design.eg,
        eg_delay=float(cols.eg_delay[0, 0]),
        el=None if cols.el is None else float(cols.el[0, 0]),
        et=float(cols.et[0, 0]),
        t_single=float(cols.t_single[0]),
        et_single=float(cols.et_single[0, 0]),
    )
