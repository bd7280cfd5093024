"""Construction of a powered group-sequential design.

A design is found by first building the stopping boundaries at the requested
one-sided level (they depend only on K, the information fractions and the
futility style) and then inflating the maximum sample size until the test
attains the requested power at the target effect. Sample sizes stay
continuous throughout; rounding to whole participants happens only in
``round_for_report``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .boundaries import (
    BoundaryFamily,
    BoundarySet,
    FutilityStyle,
    WangTsiatis,
    _check_alpha,
    _check_fractions,
    _check_stages,
    build_boundaries,
)
from .errors import ConfigError, SolveError
from .sequential import (
    DEFAULT_NODES,
    ExitProbabilities,
    SequentialProblem,
    _clipped_probit,
    exit_probabilities,
    normal_quantile,
)

__all__ = [
    "DesignSpec",
    "GroupSequentialDesign",
    "single_stage_n",
    "build_design",
    "round_for_report",
]

# Power search gives up beyond this multiple of the single-stage size.
_MAX_INFLATION = 50.0

# Floor on tau^2 times the information per participant. The single-stage
# size is z^2 over this product, so the floor keeps every size the power
# search can reach far inside the float range.
_MIN_NONCENTRALITY = 1e-290


def _check_beta(beta: float) -> float:
    # negated comparisons so that NaN fails them
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"beta = {beta} must lie in (0, 1)")
    return beta


def _check_positive(name: str, value: float) -> float:
    """A size, rate or effect: positive and finite (NaN fails the negated comparison)."""
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{name} = {value} must be positive and finite")
    return value


def _check_finite(name: str, value: float) -> float:
    """An effect of either sign: finite."""
    if not math.isfinite(value):
        raise ConfigError(f"{name} = {value} must be finite")
    return value


def _check_sizing(alpha, beta, tau, sigma0_sq, sigma1_sq, allocation) -> None:
    """The range rules on every input of the single-stage size."""
    _check_alpha(alpha)
    _check_beta(beta)
    for name, value in (
        ("tau", tau), ("sigma0_sq", sigma0_sq), ("sigma1_sq", sigma1_sq), ("allocation", allocation)
    ):
        _check_positive(name, value)


@dataclass(frozen=True)
class DesignSpec:
    """User-chosen design parameters.

    Attributes:
        alpha: one-sided type I error level.
        beta: type II error level; the design is powered at 1 - beta.
        tau: standardized target effect used for powering.
        num_stages: number of planned analyses K.
        family: boundary family (defaults to Wang-Tsiatis with shape 0.25).
        futility: futility style, binding throughout.
        mu_eval: effect at which operating characteristics are evaluated
            (defaults to tau).
        sigma0_sq / sigma1_sq: known outcome variances per arm.
        info_fractions: information fractions rho_k, defaulting to k/K.
        allocation: experimental-to-control allocation ratio.
    """

    alpha: float
    beta: float
    tau: float
    num_stages: int
    family: BoundaryFamily = field(default_factory=lambda: WangTsiatis(0.25))
    futility: FutilityStyle = FutilityStyle.BINDING_ZERO
    mu_eval: float | None = None
    sigma0_sq: float = 1.0
    sigma1_sq: float = 1.0
    info_fractions: tuple[float, ...] | None = None
    allocation: float = 1.0

    def __post_init__(self):
        _check_sizing(
            self.alpha, self.beta, self.tau, self.sigma0_sq, self.sigma1_sq, self.allocation
        )
        _check_stages(self.num_stages)
        if self.mu_eval is not None:
            _check_finite("mu_eval", self.mu_eval)
        if not self.tau * self.tau * self.information_for_total(1.0) > _MIN_NONCENTRALITY:
            raise ConfigError("tau is too small for the variances and allocation: sizes overflow")
        if self.info_fractions is not None:
            _check_fractions(self.info_fractions, self.num_stages)

    @property
    def fractions(self) -> tuple[float, ...]:
        if self.info_fractions is not None:
            return tuple(float(r) for r in self.info_fractions)
        K = self.num_stages
        return tuple((k + 1) / K for k in range(K))

    @property
    def evaluation_effect(self) -> float:
        return self.tau if self.mu_eval is None else self.mu_eval

    def information_for_total(self, n: float) -> float:
        """Fisher information of the treatment-difference estimate at total size n."""
        r = self.allocation
        return n / ((1.0 + r) * (self.sigma0_sq + self.sigma1_sq / r))


@dataclass(frozen=True)
class GroupSequentialDesign:
    """A concrete design: boundaries, stage sizes and operating characteristics."""

    spec: DesignSpec
    boundaries: BoundarySet
    n_single: float
    max_n: float
    stage_n: tuple[float, ...]
    control_n: tuple[float, ...]
    experimental_n: tuple[float, ...]
    info_levels: tuple[float, ...]
    exit: ExitProbabilities
    ess: float
    eg: float

    @property
    def num_stages(self) -> int:
        return self.spec.num_stages

    def exit_at(self, mu: float, nodes: int = DEFAULT_NODES) -> ExitProbabilities:
        """Exit probabilities under an arbitrary effect."""
        problem = SequentialProblem(
            self.info_levels, mu, self.boundaries.efficacy, self.boundaries.futility
        )
        return exit_probabilities(problem, nodes=nodes)


def single_stage_n(
    alpha: float,
    beta: float,
    tau: float,
    sigma0_sq: float = 1.0,
    sigma1_sq: float = 1.0,
    allocation: float = 1.0,
) -> float:
    """Total sample size of the single-look z-test (continuous, not rounded).

    With equal allocation this is 2(s0^2+s1^2)(z_{1-alpha}+z_{1-beta})^2/tau^2.
    """
    _check_sizing(alpha, beta, tau, sigma0_sq, sigma1_sq, allocation)
    z = normal_quantile(1.0 - alpha) + normal_quantile(1.0 - beta)
    r = allocation
    return (1.0 + r) * (sigma0_sq + sigma1_sq / r) * (z / tau) ** 2


def build_design(spec: DesignSpec, nodes: int = DEFAULT_NODES) -> GroupSequentialDesign:
    """Build the design described by ``spec``.

    The maximum sample size is found by root search so that the rejection
    probability at the target effect equals 1 - beta (within 1e-6 or better).
    The search works on the probit scale of the power and starts at the
    single-stage size, which lies below the root; rejection is monotone in the
    maximum size, so the bracket is widened by 1.5x until it straddles the
    target.

    Raises:
        SolveError: if the power is unattainable below 50x the single-stage size.
    """
    K = spec.num_stages
    rho = np.asarray(spec.fractions)
    bounds = build_boundaries(spec.family, K, rho, spec.alpha, spec.futility, nodes)
    n_ref = single_stage_n(
        spec.alpha, spec.beta, spec.tau, spec.sigma0_sq, spec.sigma1_sq, spec.allocation
    )

    z_power = normal_quantile(1.0 - spec.beta)

    @functools.cache
    def exit_at(total_n: float, drift: float) -> ExitProbabilities:
        info = tuple(rho * spec.information_for_total(total_n))
        problem = SequentialProblem(info, drift, bounds.efficacy, bounds.futility)
        return exit_probabilities(problem, nodes=nodes)

    def power_gap(total_n: float) -> float:
        # on the probit scale, close to linear in sqrt(total_n)
        return _clipped_probit(exit_at(total_n, spec.tau).total_reject) - z_power

    # A level-alpha test never beats the single-stage test at its own size, so
    # n_ref lies below the root unless the power asked for is below the level.
    lo = n_ref
    if power_gap(lo) > 0:
        while power_gap(lo) > 0 and lo > 1e-9 * n_ref:
            lo /= 4.0
        if power_gap(lo) > 0:
            # rejection tends to the attained level as information vanishes, so the
            # requested power sits below the design's floor
            raise SolveError(f"power {1 - spec.beta} is below the attainable floor of this design")
        hi = 4.0 * lo
    else:
        # The single-stage probit of the power grows as sqrt(total_n); close
        # the gap at that rate and step 3% further, so the first step mostly
        # lands just past the root.
        z_ref = spec.tau * math.sqrt(spec.information_for_total(n_ref))
        hi = min(1.03 * n_ref * (1.0 - power_gap(lo) / z_ref) ** 2, _MAX_INFLATION * n_ref)
        while power_gap(hi) < 0:
            lo, hi = hi, 1.5 * hi
            if hi > _MAX_INFLATION * n_ref:
                raise SolveError(
                    f"power {1 - spec.beta} unattainable below {_MAX_INFLATION}x the single-stage size"
                )
    max_n = float(brentq(power_gap, lo, hi, xtol=1e-9))

    stage_n = rho * max_n
    r = spec.allocation
    control_n = stage_n / (1.0 + r)
    experimental_n = stage_n * r / (1.0 + r)
    info_levels = tuple(rho * spec.information_for_total(max_n))
    # brentq returns a point it has evaluated, so at mu_eval = tau this is a cache hit
    exit = exit_at(max_n, spec.evaluation_effect)
    ess = float(np.dot(exit.stop_per_stage, stage_n))
    return GroupSequentialDesign(
        spec=spec,
        boundaries=bounds,
        n_single=n_ref,
        max_n=max_n,
        stage_n=tuple(stage_n),
        control_n=tuple(control_n),
        experimental_n=tuple(experimental_n),
        info_levels=info_levels,
        exit=exit,
        ess=ess,
        eg=(n_ref - ess) / n_ref,
    )


def round_for_report(design: GroupSequentialDesign) -> tuple[int, ...]:
    """Cumulative stage sizes rounded up to whole participants.

    Already-integral totals pass through unchanged and the result is
    non-decreasing across stages.
    """
    rounded = [int(math.ceil(n - 1e-12)) for n in design.stage_n]
    for k in range(1, len(rounded)):
        rounded[k] = max(rounded[k], rounded[k - 1])
    return tuple(rounded)
