"""Normal primitives and stage-wise exit probabilities of a sequential z-test.

The z-statistics of a two-arm group-sequential test follow the canonical
joint distribution: Z_k ~ N(theta * sqrt(I_k), 1) with
Cov(Z_j, Z_k) = sqrt(I_j / I_k) for j <= k, where I_k is the Fisher
information at analysis k. Exit probabilities are computed by propagating
the joint sub-density of the continuing trial across each continuation
interval [f_k, e_k] on a Simpson quadrature grid (a density recursion),
which is exact up to quadrature error and costs O(K * nodes^2).

The recursion is one stage stepper. It holds the continuing sub-density,
gives the probability of crossing any critical value at the next analysis in
O(nodes), and advances one analysis with a Gaussian kernel built in place in
a single nodes x nodes buffer. ``exit_probabilities`` is a loop over it, and
the error-spending solve steps it once per stage, so a whole set of
Hwang-Shih-DeCani boundaries costs about one recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import ConfigError

__all__ = [
    "SequentialProblem",
    "ExitProbabilities",
    "normal_quantile",
    "exit_probabilities",
    "DEFAULT_NODES",
]

DEFAULT_NODES = 301

# Grid support: the continuing density at stage k is bounded by the marginal
# N(theta*sqrt(I_k), 1) density, so mass outside mean +/- 8 is < 1e-15.
_TAIL_WIDTH = 8.0

# The smallest and largest doubles strictly inside (0, 1).
_SMALLEST_P = math.ulp(0.0)
_LARGEST_P = 1.0 - 2.0**-53


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF for p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ConfigError(f"normal_quantile requires p in (0, 1), got {p}")
    return float(ndtri(p))


def _clipped_probit(p: float) -> float:
    """Inverse normal CDF of p clipped to the open interval (0, 1).

    A probability that underflows to 0, or reaches 1, keeps a finite probit,
    so root searches on the probit scale never see an infinity.
    """
    return float(ndtri(min(max(p, _SMALLEST_P), _LARGEST_P)))


@dataclass(frozen=True)
class SequentialProblem:
    """A K-stage sequential z-test under a fixed drift.

    Attributes:
        info_levels: Fisher information per stage, strictly increasing.
        drift: effect parameter theta; Z_k has mean theta * sqrt(I_k).
        efficacy: critical values e_k (stop and reject when Z_k > e_k).
        futility: critical values f_k (stop and accept when Z_k <= f_k);
            f_k may be -inf before the last stage, and f_K must equal e_K
            because there is no continuation past stage K.
    """

    info_levels: tuple[float, ...]
    drift: float
    efficacy: tuple[float, ...]
    futility: tuple[float, ...]

    def __post_init__(self):
        info = self.info_levels
        K = len(info)
        if K < 1:
            raise ConfigError("at least one stage is required")
        if len(self.efficacy) != K or len(self.futility) != K:
            raise ConfigError("efficacy/futility boundaries must have one value per stage")
        if any(i <= 0 for i in info):
            raise ConfigError("information levels must be positive")
        if any(b >= a for a, b in zip(info[1:], info[:-1])):
            raise ConfigError("information levels must be strictly increasing")
        if not math.isfinite(self.drift):
            raise ConfigError("drift must be finite")
        for k in range(K - 1):
            if self.futility[k] >= self.efficacy[k]:
                raise ConfigError(
                    f"empty continuation interval at stage {k + 1}: "
                    f"f={self.futility[k]} >= e={self.efficacy[k]}"
                )
        if self.futility[K - 1] != self.efficacy[K - 1]:
            raise ConfigError("final futility bound must equal the final efficacy bound")

    @property
    def num_stages(self) -> int:
        return len(self.info_levels)


@dataclass(frozen=True)
class ExitProbabilities:
    """Per-stage stopping probabilities of a sequential test.

    accept_per_stage[k] is the probability of stopping at stage k+1 with
    Z <= f, reject_per_stage[k] of stopping with Z > e. The two sum to the
    stage stopping probability, and over all stages they sum to one.
    """

    accept_per_stage: tuple[float, ...]
    reject_per_stage: tuple[float, ...]

    @property
    def stop_per_stage(self) -> tuple[float, ...]:
        return tuple(a + r for a, r in zip(self.accept_per_stage, self.reject_per_stage))

    @property
    def total_reject(self) -> float:
        return sum(self.reject_per_stage)


def _simpson_grid(lo: float, hi: float, nodes: int):
    """Nodes and composite-Simpson weights on [lo, hi] (odd node count)."""
    n = nodes if nodes % 2 == 1 else nodes + 1
    z = np.linspace(lo, hi, n)
    h = (hi - lo) / (n - 1)
    w = np.full(n, h / 3.0)
    w[1:-1:2] *= 4.0
    w[2:-1:2] *= 2.0
    return z, w


_SQRT_2PI = math.sqrt(2.0 * math.pi)


class _StageStepper:
    """The continuing sub-density of a sequential z-test, one analysis at a time.

    At stage k (0-based) it holds the Simpson-weighted sub-density of
    (still running, Z_{k-1} = z) on the stage-(k-1) continuation grid, so the
    probability of reaching stage k with Z_k above or below any critical value
    costs one O(nodes) integral of a normal CDF; ``advance`` moves the density
    past stage k for one O(nodes^2) kernel product. Stage 0 needs no density:
    Z_1 is N(theta * sqrt(I_1), 1).
    """

    def __init__(self, info: np.ndarray, theta: float, nodes: int):
        self._info = info
        self._theta = theta
        self._nodes = nodes
        self._mean = theta * math.sqrt(info[0])
        self._stage = 0
        self._wg = None  # weights * density; None at stage 0 and once no mass continues
        self._kernel = None  # one nodes x nodes buffer, reused by every advance

    def _standardised(self, c: float) -> np.ndarray:
        # the increment Z_k sqrt(I_k) - Z_{k-1} sqrt(I_{k-1}) is N(theta dI, dI)
        return (c * self._sqrt_i - self._cond_mean) / self._sd

    def above(self, c: float) -> float:
        """P(reach this stage and Z_k > c)."""
        if self._stage == 0:
            return 1.0 - ndtr(c - self._mean)
        if self._wg is None:
            return 0.0
        return float(np.dot(self._wg, 1.0 - ndtr(self._standardised(c))))

    def below(self, c: float) -> float:
        """P(reach this stage and Z_k <= c)."""
        if self._stage == 0:
            return ndtr(c - self._mean)
        if self._wg is None:
            return 0.0
        return float(np.dot(self._wg, ndtr(self._standardised(c))))

    def advance(self, e: float, f: float) -> None:
        """Continue past this stage on (f, e], clipped to the stage mean +/- 8."""
        k = self._stage
        self._stage += 1
        if k > 0 and self._wg is None:
            return
        info = self._info
        sqrt_ik = math.sqrt(info[k])
        mean_k = self._theta * sqrt_ik
        lo = max(f, mean_k - _TAIL_WIDTH) if math.isfinite(f) else mean_k - _TAIL_WIDTH
        hi = min(e, mean_k + _TAIL_WIDTH)
        if hi <= lo:
            self._wg = None
            return
        z, w = _simpson_grid(lo, hi, self._nodes)
        if k == 0:
            g = np.exp(-0.5 * (z - mean_k) ** 2) / _SQRT_2PI
        else:
            if self._kernel is None:
                self._kernel = np.empty((z.size, z.size))
            # one reused buffer, as fresh nodes x nodes temporaries page-fault; the
            # values equal exp(-0.5 * u * u) * scale with u = (z sqrt(I_k) - cond_mean) / sd bit for bit
            kernel = self._kernel
            np.subtract.outer(z * sqrt_ik, self._cond_mean, out=kernel)
            kernel /= self._sd
            np.square(kernel, out=kernel)
            kernel *= -0.5
            np.exp(kernel, out=kernel)
            kernel *= sqrt_ik / (self._sd * _SQRT_2PI)
            g = kernel @ self._wg
        self._wg = w * g
        if self._stage < len(info):
            d_info = info[self._stage] - info[k]
            self._sd = math.sqrt(d_info)
            self._sqrt_i = math.sqrt(info[self._stage])
            # conditional mean of the score S = Z * sqrt(I) given the previous node
            self._cond_mean = z * sqrt_ik + self._theta * d_info


def exit_probabilities(problem: SequentialProblem, nodes: int = DEFAULT_NODES) -> ExitProbabilities:
    """Exact stage-wise exit probabilities by density recursion.

    At each interim the sub-density of (still running, Z_k = z) is tabulated
    on the continuation interval clipped to mean +/- 8; tail probabilities of
    the next statistic given each node are normal CDFs of the independent
    information increment. Absolute error per probability is far below 1e-6
    at the default grid.

    Args:
        problem: validated test description.
        nodes: quadrature nodes per stage (odd; even values are bumped by one).

    Returns:
        ExitProbabilities at the problem's drift.
    """
    K = problem.num_stages
    e = np.asarray(problem.efficacy, dtype=float)
    f = np.asarray(problem.futility, dtype=float)
    stepper = _StageStepper(np.asarray(problem.info_levels, dtype=float), problem.drift, nodes)
    accept = np.zeros(K)
    reject = np.zeros(K)
    for k in range(K - 1):
        reject[k] = stepper.above(e[k])
        if math.isfinite(f[k]):
            accept[k] = stepper.below(f[k])
        stepper.advance(e[k], f[k])
    reject[K - 1] = stepper.above(e[K - 1])
    accept[K - 1] = stepper.below(e[K - 1])
    return ExitProbabilities(tuple(accept), tuple(reject))
