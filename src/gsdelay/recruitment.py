"""Recruitment models and expected pipeline-participant counts.

Two accrual patterns are modelled over a recruitment period of t_max months:

* uniform: a constant rate lambda = n_max / t_max;
* mixed: a monthly intake rising linearly (delta * t in month t) until a
  fraction l of the period has elapsed, then flat at delta * l * t_max.
  l = 1 is a fully linear ramp.

Both are one expected-accrual curve N(t): a discrete-month ramp
delta * t(t+1)/2 up to ramp_end = l * t_max, then a flat rate. Uniform
accrual is the same curve with ramp_end = 0. Month sums are evaluated in
closed form at real-valued times, so no quantity is forced to an integer.
The recruitment time of the first n participants is the inverse of N, and
the pipeline participants at an interim are the expected recruits
N(t_k + m) - N(t_k) during the outcome-delay window of length m that follows
it, capped so the trial never exceeds n_max. N is evaluated elementwise, so
``_pipeline`` gives the counts for a whole grid of delays in one array pass;
``pipeline_counts`` is its one-delay view.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .design import GroupSequentialDesign, _check_positive
from .errors import ConfigError

__all__ = [
    "RecruitmentModel",
    "PipelineProfile",
    "AccrualCurve",
    "accrual_curve",
    "solve_delta",
    "recruit_time",
    "pipeline_counts",
]


def _check_ramp_fraction(l: float) -> float:
    # negated comparisons so that NaN fails them
    if not 0.0 < l <= 1.0:
        raise ConfigError(f"the ramp fraction l = {l} must lie in (0, 1]")
    return l


def _check_delay(name: str, m: float) -> float:
    """A delay in months (m, or the analysis overhead m_interim): finite and non-negative."""
    if not 0.0 <= m < math.inf:
        raise ConfigError(f"{name} = {m} must be finite and non-negative")
    return m


@dataclass(frozen=True)
class RecruitmentModel:
    """Accrual pattern over a fixed recruitment period.

    Attributes:
        pattern: "uniform" or "mixed".
        t_max: total recruitment period in months.
        ramp_fraction: fraction l of the period with a rising rate
            (mixed only; 1.0 means linear throughout).
    """

    pattern: str
    t_max: float
    ramp_fraction: float = 1.0

    def __post_init__(self):
        if self.pattern not in ("uniform", "mixed"):
            raise ConfigError(f"unknown recruitment pattern {self.pattern!r}")
        _check_positive("t_max", self.t_max)
        if self.pattern == "mixed":
            _check_ramp_fraction(self.ramp_fraction)

    @classmethod
    def uniform(cls, t_max: float) -> "RecruitmentModel":
        return cls("uniform", t_max)

    @classmethod
    def mixed(cls, t_max: float, ramp_fraction: float) -> "RecruitmentModel":
        return cls("mixed", t_max, ramp_fraction)

    @classmethod
    def linear(cls, t_max: float) -> "RecruitmentModel":
        return cls("mixed", t_max, 1.0)


@dataclass(frozen=True)
class PipelineProfile:
    """Expected pipeline participants and recruitment times per stage."""

    pipeline: tuple[float, ...]
    recruit_times: tuple[float, ...]


def solve_delta(n_max: float, t_max: float, ramp_fraction: float) -> float:
    """Rate slope of the mixed model so the period recruits exactly n_max.

    The ramp contributes delta * (1 + 2 + ... + l*t_max) and the flat phase
    delta * l * t_max * (1 - l) * t_max; their sum is set equal to n_max.
    """
    _check_positive("n_max", n_max)
    _check_positive("t_max", t_max)
    _check_ramp_fraction(ramp_fraction)
    ramp_end = ramp_fraction * t_max
    if ramp_end < 1.0:
        warnings.warn(
            f"ramp phase shorter than one month (l*t_max = {ramp_end:.3g})", stacklevel=2
        )
    total = 0.5 * ramp_end * (ramp_end + 1.0) + ramp_end * (1.0 - ramp_fraction) * t_max
    if not total > 0.0:
        # a subnormal t_max underflows the period's capacity to zero
        raise ConfigError(f"t_max = {t_max} is too short: the recruitment capacity underflows")
    return n_max / total


@dataclass(frozen=True)
class AccrualCurve:
    """Expected cumulative accrual N(t) of a trial recruiting n_max participants.

    N(t) = delta * t(t+1)/2 up to ramp_end, then rises at the flat rate.
    """

    n_max: float
    delta: float
    ramp_end: float
    rate: float

    @property
    def ramp_capacity(self) -> float:
        return 0.5 * self.delta * self.ramp_end * (self.ramp_end + 1.0)

    def __call__(self, t):
        """N(t), elementwise over an array of times (a numpy float for a scalar)."""
        t = np.asarray(t, dtype=float)
        # the ramp branch sees t clipped to the ramp, where np.where keeps it;
        # a window past the float range reaches inf, which the cap then replaces
        ramp_t = np.minimum(t, self.ramp_end)
        with np.errstate(over="ignore"):
            flat = self.ramp_capacity + self.rate * (t - self.ramp_end)
        return np.where(t <= self.ramp_end, 0.5 * self.delta * ramp_t * (ramp_t + 1.0), flat)[()]

    def time(self, n: float) -> float:
        """Inverse of N: expected months needed to recruit the first n participants."""
        if not 0.0 <= n <= self.n_max * (1.0 + 1e-12):
            raise ConfigError(f"n must lie in [0, n_max], got {n}")
        capacity = self.ramp_capacity
        if n < capacity:
            return (-1.0 + (1.0 + 8.0 * n / self.delta) ** 0.5) / 2.0
        return self.ramp_end + (n - capacity) / self.rate


def accrual_curve(n_max: float, model: RecruitmentModel) -> AccrualCurve:
    """The expected-accrual curve of ``model`` for a trial of n_max participants."""
    if model.pattern == "uniform":
        curve = AccrualCurve(n_max, 0.0, 0.0, n_max / model.t_max)
    else:
        delta = solve_delta(n_max, model.t_max, model.ramp_fraction)
        ramp_end = model.ramp_fraction * model.t_max
        curve = AccrualCurve(n_max, delta, ramp_end, delta * ramp_end)
    if not 0.0 < curve.rate < math.inf:
        raise ConfigError(f"the accrual rate of {model} is outside the float range")
    return curve


def recruit_time(n: float, n_max: float, model: RecruitmentModel) -> float:
    """Expected months needed to recruit the first n participants."""
    return accrual_curve(n_max, model).time(n)


def _pipeline(design, model: RecruitmentModel, ms) -> tuple[np.ndarray, tuple[float, ...]]:
    """Expected pipeline participants for each delay in ms, and the stage recruit times.

    Returns an (len(ms), K) array whose row i holds
    min(N(t_k + m_i) - N(t_k), n_max - n_k) per stage k, with the final stage
    0 by construction, and the recruit times t_k of the stage sizes.
    """
    for m in ms:
        _check_delay("m", m)
    n_max = design.max_n
    curve = accrual_curve(n_max, model)
    times = tuple(curve.time(n) for n in design.stage_n)
    t = np.asarray(times)
    window = curve(t + np.asarray(ms, dtype=float)[:, None]) - curve(t)
    pipeline = np.minimum(window, n_max - np.asarray(design.stage_n))
    pipeline[:, -1] = 0.0
    return pipeline, times


def pipeline_counts(
    design: GroupSequentialDesign, model: RecruitmentModel, m: float
) -> PipelineProfile:
    """Expected pipeline participants at each analysis for delay length m.

    Counts are capped at n_max - n_k (recruitment stops at n_max) and the
    final analysis has none by construction.
    """
    pipeline, times = _pipeline(design, model, (m,))
    return PipelineProfile(tuple(pipeline[0].tolist()), times)
