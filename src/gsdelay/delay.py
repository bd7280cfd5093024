"""Delay-adjusted efficiency metrics and expected trial duration.

With an outcome delay of m months, participants recruited during the delay
window of each interim ("pipeline" participants) are enrolled whether or not
the trial stops there. The delay-adjusted expected sample size counts them
at every possible stopping stage; comparing the resulting efficiency gain
with the undelayed one gives the percentage of the gain lost to delay, which
can exceed 100 when the delayed design is worse than a single-stage trial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import GroupSequentialDesign
from .errors import ConfigError
from .recruitment import PipelineProfile, RecruitmentModel, _check_delay, pipeline_counts

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


def ess_delay(design: GroupSequentialDesign, profile: PipelineProfile) -> float:
    """Expected sample size counting pipeline participants at interim stops."""
    K = design.num_stages
    if len(profile.pipeline) != K:
        raise ConfigError("pipeline profile does not match the design's stage count")
    # same dot-product evaluation as the design's ess, so a zero profile
    # reproduces it bit for bit (the final stage has no pipeline)
    consumed = np.asarray(design.stage_n) + np.asarray(profile.pipeline)
    return float(np.dot(design.exit.stop_per_stage, consumed))


def _loss(design: GroupSequentialDesign, eg_delay: float) -> float | None:
    eg = design.eg
    if eg <= 0:
        return None
    return 100.0 * (eg - eg_delay) / eg


def efficiency_loss(design: GroupSequentialDesign, profile: PipelineProfile) -> float | None:
    """Percentage of the expected-sample-size gain lost to the delay.

    Returns None when the design gains nothing over the single-stage test
    (eg <= 0), where the loss percentage is undefined.
    """
    essd = ess_delay(design, profile)
    return _loss(design, (design.n_single - essd) / design.n_single)


def _completion_times(
    design: GroupSequentialDesign, query: DelayQuery, recruit_times
) -> tuple[float, float, float]:
    stop = design.exit.stop_per_stage
    et = query.m + query.m_interim + sum(t * s for t, s in zip(recruit_times, stop))
    t_single = design.n_single * query.model.t_max / design.max_n
    return et, t_single, t_single + query.m


def expected_time(
    design: GroupSequentialDesign, query: DelayQuery
) -> tuple[float, float, float]:
    """Expected completion time of the design and of the single-stage trial.

    Returns (et, t_single, et_single): the design's expected time
    m + m_interim + sum_k t_k * S_k, the single-stage recruitment time at the
    same rate, and the single-stage completion time t_single + m.
    """
    profile = pipeline_counts(design, query.model, query.m)
    return _completion_times(design, query, profile.recruit_times)


def assess_delay(design: GroupSequentialDesign, query: DelayQuery) -> DelayAssessment:
    """Full delay assessment of a built design."""
    profile = pipeline_counts(design, query.model, query.m)
    essd = ess_delay(design, profile)
    eg_del = (design.n_single - essd) / design.n_single
    et, t_single, et_single = _completion_times(design, query, profile.recruit_times)
    return DelayAssessment(
        profile=profile,
        ess_delay=essd,
        eg=design.eg,
        eg_delay=eg_del,
        el=_loss(design, eg_del),
        et=et,
        t_single=t_single,
        et_single=et_single,
    )
