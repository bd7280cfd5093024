"""Efficacy/futility stopping boundaries.

Two families are supported:

* the Wang-Tsiatis power family e_k = C * rho_k^(shape - 1/2), which contains
  Pocock (shape 0.5, constant bound) and O'Brien-Fleming (shape 0) as special
  cases; the constant C is solved so the overall one-sided type I error under
  zero drift equals alpha, with the futility bounds treated as binding. A
  secant on the probit scale of the level starts at a closed-form point
  near the Bonferroni constant and stays in a bracket down to stage-1
  rejection, with about 5 recursions per solve;
* error-spending boundaries from the Hwang-Shih-DeCani spending function,
  solved stage by stage so the cumulative rejection probability at analysis k
  equals the spent error at information fraction rho_k: stage k matches
  its own spend increment d_k, from a first guess of z_{1-d_k}, about 5
  crossing integrals per stage. Once e_1..e_{k-1}
  are solved the continuing density before stage k is fixed, so each trial
  e_k costs one O(n) integral against it over the stage's score-lattice
  nodes (Armitage, McPherson & Rowe 1969; Jennison & Turnbull 2000, ch. 19)
  and the whole solve costs about one density recursion. The lattice step
  comes from the full schedule's smallest increment, so every stage of the
  solve sees the grid that ``exit_probabilities`` uses for the whole test.

Futility handling is one of: a binding bound at zero before the last stage,
a mirrored (symmetric) bound f_k = -e_k, or no early acceptance at all.

Both solves work under zero drift, where only information ratios matter, so
the fractions serve as information levels directly.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SolveError
from .sequential import (
    DEFAULT_NODES,
    ExitProbabilities,
    SequentialProblem,
    _StageStepper,
    _clipped_probit,
    _probit_root,
    exit_probabilities,
)

__all__ = [
    "WangTsiatis",
    "HwangShihDeCani",
    "BoundaryFamily",
    "FutilityStyle",
    "BoundarySet",
    "wt_boundaries",
    "hsd_spend",
    "spending_boundaries",
    "build_boundaries",
]

# Cap on the Wang-Tsiatis constant C: a larger one would give a level that
# the lattice's +/- 8 SD window cannot resolve.
_WT_MAX = 10.0

# Bracket for each stage-wise spending solve, whose search starts at z_{1-d}
# for the stage's spend increment d. The top rises to 1.001 z_{1-d}:
# P(reach k and Z_k > x) <= Phi(-x), so less than d is spent above it. A
# root below the bottom refuses the stage once the bottom is evaluated.
_SPEND_BRACKET = (-4.0, 12.0)

# Largest x with a finite exp(x).
_MAX_EXP_ARG = math.log(sys.float_info.max)

# Below this |gamma| the spend schedule is linear to double precision.
_LINEAR_GAMMA = 1e-150


@dataclass(frozen=True)
class WangTsiatis:
    """Power-family shape; 0 is O'Brien-Fleming, 0.5 is Pocock."""

    shape: float

    def __post_init__(self):
        if not math.isfinite(self.shape):
            raise ConfigError("Wang-Tsiatis shape must be finite")


@dataclass(frozen=True)
class HwangShihDeCani:
    """Error-spending family indexed by the spending parameter gamma."""

    gamma: float

    def __post_init__(self):
        _check_gamma(self.gamma)


def _check_gamma(gamma: float) -> float:
    # hsd_spend evaluates exp(-gamma), which must not overflow
    if not (math.isfinite(gamma) and -gamma < _MAX_EXP_ARG):
        raise ConfigError(f"spending parameter gamma must be finite and above {-_MAX_EXP_ARG:.2f}")
    return gamma


BoundaryFamily = WangTsiatis | HwangShihDeCani


class FutilityStyle(str, enum.Enum):
    BINDING_ZERO = "binding-zero"
    SYMMETRIC = "symmetric"
    NONE = "none"


@dataclass(frozen=True)
class BoundarySet:
    """Per-stage critical values with the attained one-sided level.

    A solved set also keeps, privately, the interim records of its final
    zero-drift pass on the information fractions (see ``exit_probabilities``),
    on which a design walks to the exit probabilities at any drift by tilting.
    """

    efficacy: tuple[float, ...]
    futility: tuple[float, ...]
    achieved_alpha: float
    _null_tables: tuple = field(default=(), compare=False, repr=False)


def _futility_bound(e: float, style: FutilityStyle) -> float:
    """Futility bound at an interim analysis whose efficacy bound is e."""
    if style is FutilityStyle.BINDING_ZERO:
        return 0.0
    if style is FutilityStyle.SYMMETRIC:
        return -e
    return -math.inf


def _apply_futility(efficacy: np.ndarray, style: FutilityStyle) -> np.ndarray:
    return np.array([_futility_bound(x, style) for x in efficacy[:-1]] + [efficacy[-1]])


def _check_alpha(alpha: float) -> float:
    # negated comparisons so that NaN fails them
    if not 0.0 < alpha < 0.5:
        raise ConfigError(f"alpha = {alpha} must lie in (0, 0.5)")
    return alpha


def _check_stages(K) -> int:
    if not (isinstance(K, numbers.Integral) and K >= 1):
        raise ConfigError(f"the stage count K = {K!r} must be an integer of at least 1")
    return K


def _check_fractions(rho, K: int | None = None) -> np.ndarray:
    """Information fractions as an array; with K given, exactly K of them."""
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 1 or rho.size < 1:
        raise ConfigError("information fractions must be a non-empty sequence")
    # negated comparisons so that NaN fails them
    if not (rho[0] > 0 and np.all(np.diff(rho) > 0)):
        raise ConfigError("information fractions must be positive and strictly increasing")
    if not abs(rho[-1] - 1.0) <= 1e-12:
        raise ConfigError("the last information fraction must be 1")
    if K is not None and len(rho) != _check_stages(K):
        raise ConfigError(f"expected {K} information fractions, got {len(rho)}")
    return rho


def wt_boundaries(
    K: int,
    rho,
    shape: float,
    alpha: float,
    futility: FutilityStyle = FutilityStyle.BINDING_ZERO,
    nodes: int = DEFAULT_NODES,
) -> BoundarySet:
    """Wang-Tsiatis boundaries at one-sided level alpha with binding futility.

    The constant is solved on the probit scale, where the level is close to
    linear in it. With s_k = rho_k^(shape - 1/2) the search evaluates first
    at z_{1-alpha/K} / min(s_1, mean_k s_k), then steps with the
    single-stage slope 1. For flat bounds (Pocock) that start is the
    Bonferroni constant, at which sum_k Phi(-e_k) = alpha; for shape > 1/2,
    where s_1 is the smallest scale, it is the Bonferroni upper end, where
    every term is at most alpha / K. Stage 1 alone rejects with probability
    Phi(-e_1), so the level is at least alpha when e_1 = 0.999 z_{1-alpha};
    that end lies below the start, unless the cap of 10 on the constant
    binds and the solve is refused, and is never evaluated.

    Args:
        K: number of analyses.
        rho: information fractions, increasing to 1, length K.
        shape: power-family shape parameter.
        alpha: one-sided type I error, in (0, 0.5).
        futility: futility style applied while solving (binding).
        nodes: lattice points across 16 standard deviations of the smallest
            information increment (see ``sequential``).
    """
    rho = _check_fractions(rho, K)
    _check_alpha(alpha)
    with np.errstate(over="ignore", under="ignore"):
        scale = rho ** (shape - 0.5)
        if not np.all((scale > 0) & np.isfinite(_WT_MAX * scale)):
            raise ConfigError(f"Wang-Tsiatis shape {shape} puts a bound outside the float range")
    probit_alpha = _clipped_probit(alpha)

    @functools.cache
    def null_pass(c: float) -> ExitProbabilities:
        e = c * scale
        problem = SequentialProblem(tuple(rho), 0.0, tuple(e), tuple(_apply_futility(e, futility)))
        return exit_probabilities(problem, nodes=nodes)

    def level_gap(c: float) -> float:
        return probit_alpha - _clipped_probit(null_pass(c).total_reject)

    # stage 1 alone rejects with probability Phi(-e_1) > alpha at lo
    lo = -0.999 * probit_alpha / float(scale[0])
    # z_{1-alpha/K} over the first or the mean scale, whichever is smaller
    start = min(_WT_MAX, -_clipped_probit(alpha / K) / min(float(scale[0]), float(scale.mean())))
    c = _probit_root(level_gap, start, lo, _WT_MAX, gap_lo=-math.inf) if lo < start else None
    if c is None:
        raise ConfigError(f"no Wang-Tsiatis constant up to {_WT_MAX:g} attains alpha={alpha}")
    # cached: the search returns a point it has evaluated
    solved = null_pass(c)
    e = c * scale
    f = _apply_futility(e, futility)
    return BoundarySet(tuple(e), tuple(f), solved.total_reject, solved._null_tables)


def hsd_spend(t: float, gamma: float, alpha: float) -> float:
    """Cumulative error spent at information fraction t.

    Monotone from 0 at t=0 to alpha at t=1; gamma=0 degenerates to the
    linear schedule alpha * t.
    """
    if not 0.0 <= t <= 1.0:
        raise ConfigError("information fraction must lie in [0, 1]")
    _check_gamma(gamma)
    if abs(gamma) < _LINEAR_GAMMA:
        # the ratio is t * (1 + O(gamma)): the linear limit, exact in doubles
        return alpha * t
    # expm1 keeps full precision when gamma * t is small
    return alpha * math.expm1(-gamma * t) / math.expm1(-gamma)


def spending_boundaries(
    K: int,
    rho,
    gamma: float,
    alpha: float,
    futility: FutilityStyle = FutilityStyle.BINDING_ZERO,
    nodes: int = DEFAULT_NODES,
) -> BoundarySet:
    """Stage-wise boundaries matching the Hwang-Shih-DeCani spend schedule.

    e_k is solved so the rejection probability at analysis k under zero
    drift equals the error spent between rho_{k-1} and rho_k (with the
    chosen futility bounds binding); the last stage spends the rest of
    alpha. Each stage matches its own increment, not the cumulative spend,
    since late increments of a steep schedule lie below the rounding of the
    running total. For the symmetric style each solved interim fixes
    f_k = -e_k before the next stage is solved.
    """
    rho = _check_fractions(rho, K)
    _check_gamma(gamma)
    _check_alpha(alpha)

    targets = [hsd_spend(t, gamma, alpha) for t in rho[:-1]] + [alpha]
    increments = np.diff([0.0] + targets)
    if np.any(increments <= 0):
        k = int(np.argmax(increments <= 0)) + 1
        raise ConfigError(
            f"gamma = {gamma:g} spends no alpha at stage {k}: every stage must spend some"
        )

    # The stage-k crossing is one integral against the stage-(k-1) density,
    # which the solved e_1..e_{k-1} fix: a single pass of the recursion.
    stepper = _StageStepper(rho, 0.0, nodes)
    solved: list[float] = []
    crossed: list[float] = []
    for k in range(K):
        probit_d = _clipped_probit(increments[k])
        above = functools.cache(stepper.above)

        def spend_gap(x: float) -> float:
            return probit_d - _clipped_probit(above(x))

        lo, hi = _SPEND_BRACKET
        hi = max(hi, -1.001 * probit_d)
        # z_{1-d} would be the root if every trial reached stage k
        e_k = _probit_root(spend_gap, -probit_d, lo, hi)
        if e_k is None:
            raise SolveError(f"stage {k + 1} spending bound not bracketed in [{lo}, {hi}]")
        solved.append(e_k)
        crossed.append(above(e_k))
        if k < K - 1:
            f_k = _futility_bound(e_k, futility)
            if not e_k > f_k:
                # no trial would continue, so no later stage could spend its share
                raise SolveError(
                    f"stage {k + 1}: e_{k + 1} = {e_k:.6g} below its futility bound "
                    f"f_{k + 1} = {f_k:.6g}; the spend schedule leaves no continuation"
                )
            stepper.advance(e_k, f_k)

    e = np.asarray(solved)
    f = _apply_futility(e, futility)
    return BoundarySet(tuple(e), tuple(f), sum(crossed), tuple(stepper.stages))


def build_boundaries(
    family: BoundaryFamily,
    K: int,
    rho,
    alpha: float,
    futility: FutilityStyle,
    nodes: int = DEFAULT_NODES,
) -> BoundarySet:
    """Dispatch on the boundary family."""
    if isinstance(family, WangTsiatis):
        return wt_boundaries(K, rho, family.shape, alpha, futility, nodes)
    if isinstance(family, HwangShihDeCani):
        return spending_boundaries(K, rho, family.gamma, alpha, futility, nodes)
    raise ConfigError(f"unknown boundary family: {family!r}")
