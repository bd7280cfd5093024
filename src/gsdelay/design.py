"""Construction of a powered group-sequential design.

A design is found by first building the stopping boundaries at the requested
one-sided level (they depend only on K, the information fractions and the
futility style) and then solving for the maximum sample size at which the
test attains the requested power at the target effect. Under zero drift the
boundary solve already walks the continuing density on the information
fractions; every effect and size is a drift on those fractions, so the power
search and the operating characteristics tilt that one null pass rather than
repeat the recursion. Sample sizes stay continuous throughout; rounding to
whole participants happens only in ``round_for_report``.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

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
    _probit_root,
    _Tilt,
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
    # negated comparisons so that NaN fails them. Below the smallest normal
    # double the type II error the power search matches underflows: every
    # accept probability reads 0 and n_max is fixed by nothing.
    if not sys.float_info.min <= beta < 1.0:
        raise ConfigError(f"beta = {beta} must lie in [{sys.float_info.min!r}, 1)")
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


def _check_sizing(alpha, beta, tau, allocation) -> None:
    """The range rules on every input of the single-stage size."""
    _check_alpha(alpha)
    _check_beta(beta)
    _check_positive("tau", tau)
    _check_positive("allocation", allocation)


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
    info_fractions: tuple[float, ...] | None = None
    allocation: float = 1.0

    def __post_init__(self):
        _check_sizing(self.alpha, self.beta, self.tau, self.allocation)
        _check_stages(self.num_stages)
        if self.mu_eval is not None:
            _check_finite("mu_eval", self.mu_eval)
        if not self.tau * self.tau * self.information_for_total(1.0) > _MIN_NONCENTRALITY:
            raise ConfigError("tau is too small for the allocation: sizes overflow")
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
        return n / ((1.0 + r) * (1.0 + 1.0 / r))


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
        """Exit probabilities under an arbitrary effect, by the density recursion.

        This is independent of the tilted null pass that ``build_design``
        evaluates, so it also checks the design's own exit probabilities.
        """
        problem = SequentialProblem(
            self.info_levels, mu, self.boundaries.efficacy, self.boundaries.futility
        )
        return exit_probabilities(problem, nodes=nodes)


def single_stage_n(alpha: float, beta: float, tau: float, allocation: float = 1.0) -> float:
    """Total sample size of the single-look z-test (continuous, not rounded).

    With equal allocation this is 4(z_{1-alpha}+z_{1-beta})^2/tau^2.
    """
    _check_sizing(alpha, beta, tau, allocation)
    z = -(normal_quantile(alpha) + normal_quantile(beta))
    r = allocation
    return (1.0 + r) * (1.0 + 1.0 / r) * (z / tau) ** 2


def build_design(spec: DesignSpec, nodes: int = DEFAULT_NODES) -> GroupSequentialDesign:
    """Build the design described by ``spec``.

    The power search solves for eta = tau * sqrt(I_max), the drift on the
    information fractions, at which the rejection probability equals
    1 - beta (within 1e-6 or better); n_max is (eta / tau)^2 over the
    information per participant. Each step tilts the boundary solve's null
    pass to eta (see ``sequential._Tilt``), O(n) per stage with no density
    recursion. The search works on the probit scale of the power, which is
    close to linear in eta, taken as minus the probit of the summed accept
    probabilities so that it keeps its precision as beta -> 0 (a rejection
    probability of 1 - 1e-12 keeps only about four digits of its distance
    from one). A level-alpha test never beats the single-stage test at its
    own size, so the root lies above the single-stage eta_ref =
    z_{1-alpha} + z_{1-beta}. The search is a secant that starts there with
    the single-stage test's unit slope, in the bracket up to sqrt(50) eta_ref
    (50x the single-stage size), about 5 evaluations per design. If
    rounding or quadrature error puts the power at eta_ref above target, the
    root lies in [0, eta_ref]; at 0 the power is the attained level. A
    single look is the single-stage test, with no search. The exit
    probabilities and ESS are those at eta * mu_eval / tau.

    Raises:
        ConfigError: if the power asked for equals the level, so that the
            single-stage size is zero.
        SolveError: if the power is below the level or the design's attained
            level, or unattainable below 50x the single-stage size.
    """
    K = spec.num_stages
    rho = np.asarray(spec.fractions)
    floor = f"power {1 - spec.beta} is below the attainable floor of this design"
    if spec.beta > 1.0 - spec.alpha:
        raise SolveError(floor)
    bounds = build_boundaries(spec.family, K, rho, spec.alpha, spec.futility, nodes)
    n_ref = single_stage_n(spec.alpha, spec.beta, spec.tau, spec.allocation)
    eta_ref = spec.tau * math.sqrt(spec.information_for_total(n_ref))
    if not eta_ref > 0.0:
        raise ConfigError(
            f"power {1 - spec.beta} equals the level alpha = {spec.alpha}: "
            "the single-stage size is zero"
        )
    eta_max = math.sqrt(_MAX_INFLATION) * eta_ref

    z_beta = normal_quantile(spec.beta)

    tilt = _Tilt(bounds._null_tables, rho, bounds.efficacy, bounds.futility)

    @functools.cache
    def exits(eta: float) -> ExitProbabilities:
        # eta is the drift on the information fractions
        tilted = tilt(eta)
        if tilted is not None:
            return tilted
        problem = SequentialProblem(tuple(rho), eta, bounds.efficacy, bounds.futility)
        return exit_probabilities(problem, nodes=nodes)

    def power_gap(eta: float) -> float:
        return z_beta - _clipped_probit(sum(exits(eta).accept_per_stage))

    eta, max_n = eta_ref, n_ref
    if K > 1:
        # the probit of the power climbs with eta a little slower than the
        # single-stage test's unit rate; at eta = 0 the power is the attained level
        eta = _probit_root(power_gap, eta_ref, 0.0, eta_max)
        if eta is None:
            if power_gap(eta_ref) > 0:
                raise SolveError(floor)
            raise SolveError(
                f"power {1 - spec.beta} unattainable below {_MAX_INFLATION}x the single-stage size"
            )
        max_n = (eta / spec.tau) ** 2 / spec.information_for_total(1.0)

    stage_n = rho * max_n
    r = spec.allocation
    control_n = stage_n / (1.0 + r)
    experimental_n = stage_n * r / (1.0 + r)
    info_levels = tuple(rho * spec.information_for_total(max_n))
    # the search returns a point it has evaluated, so at mu_eval = tau this is a cache hit
    exit = exits(eta * (spec.evaluation_effect / spec.tau))
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
