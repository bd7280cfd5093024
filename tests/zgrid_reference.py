"""The z-grid density recursion that the score lattice replaced, kept as an oracle.

Each stage has its own Simpson grid of ``nodes`` points on the z-scale over
the continuation interval clipped to mean +/- 8, and each advance builds the
full nodes x nodes Gaussian kernel. At 1201 nodes it is the accuracy
reference of the recursion tests; at its old default of 301 nodes it gives
the error bound that the lattice must meet. Its spending solve keeps its own
brentq search and must not use the library's root search, which the
spending-solve accuracy tests compare it with.
"""

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr

from gsdelay.boundaries import FutilityStyle, hsd_spend
from gsdelay.errors import ConfigError, SolveError
from gsdelay.sequential import ExitProbabilities

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _simpson_grid(lo, hi, nodes):
    n = nodes if nodes % 2 == 1 else nodes + 1
    z = np.linspace(lo, hi, n)
    w = np.full(n, (hi - lo) / (n - 1) / 3.0)
    w[1:-1:2] *= 4.0
    w[2:-1:2] *= 2.0
    return z, w


class ZGridStepper:
    """The continuing sub-density on per-stage z-grids, one analysis at a time."""

    def __init__(self, info, theta, nodes):
        self.info = np.asarray(info, dtype=float)
        self.theta = theta
        self.nodes = nodes
        self.mean = theta * math.sqrt(self.info[0])
        self.stage = 0
        self.wg = None

    def _standardised(self, c):
        return (c * self.sqrt_i - self.cond_mean) / self.sd

    def above(self, c):
        if self.stage == 0:
            return 1.0 - ndtr(c - self.mean)
        if self.wg is None:
            return 0.0
        return float(np.dot(self.wg, 1.0 - ndtr(self._standardised(c))))

    def below(self, c):
        if self.stage == 0:
            return ndtr(c - self.mean)
        if self.wg is None:
            return 0.0
        return float(np.dot(self.wg, ndtr(self._standardised(c))))

    def advance(self, e, f):
        k = self.stage
        self.stage += 1
        if k > 0 and self.wg is None:
            return
        sqrt_ik = math.sqrt(self.info[k])
        mean_k = self.theta * sqrt_ik
        lo = max(f, mean_k - 8.0) if math.isfinite(f) else mean_k - 8.0
        hi = min(e, mean_k + 8.0)
        if hi <= lo:
            self.wg = None
            return
        z, w = _simpson_grid(lo, hi, self.nodes)
        if k == 0:
            g = np.exp(-0.5 * (z - mean_k) ** 2) / _SQRT_2PI
        else:
            # the nodes x nodes kernel, built in one buffer
            u = np.subtract.outer(z * sqrt_ik, self.cond_mean)
            u /= self.sd
            u *= u
            u *= -0.5
            np.exp(u, out=u)
            u *= sqrt_ik / (self.sd * _SQRT_2PI)
            g = u @ self.wg
        self.wg = w * g
        if self.stage < len(self.info):
            d_info = self.info[self.stage] - self.info[k]
            self.sd = math.sqrt(d_info)
            self.sqrt_i = math.sqrt(self.info[self.stage])
            self.cond_mean = z * sqrt_ik + self.theta * d_info


def zgrid_exit_probabilities(problem, nodes):
    """Stage-wise exit probabilities on the z-grids."""
    K = problem.num_stages
    e, f = problem.efficacy, problem.futility
    stepper = ZGridStepper(problem.info_levels, problem.drift, nodes)
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


def zgrid_spending_boundaries(K, rho, gamma, alpha, futility, nodes):
    """The stage-wise Hwang-Shih-DeCani solve on the z-grids.

    Returns (efficacy, achieved alpha), or the error type the solve raises.
    """
    interim = {
        FutilityStyle.BINDING_ZERO: lambda e: 0.0,
        FutilityStyle.SYMMETRIC: lambda e: -e,
        FutilityStyle.NONE: lambda e: -math.inf,
    }[futility]
    targets = [hsd_spend(t, gamma, alpha) for t in rho[:-1]] + [alpha]
    increments = np.diff([0.0] + targets)
    if np.any(increments <= 0):
        return ConfigError
    stepper = ZGridStepper(rho, 0.0, nodes)
    solved, crossed = [], []
    for k in range(K):

        # each stage spends its own increment: late increments of a steep
        # schedule lie below the rounding of the cumulative spend
        def spend_error(x):
            return stepper.above(x) - increments[k]

        try:
            e_k = brentq(spend_error, -4.0, 12.0, xtol=1e-12)
        except ValueError:
            return SolveError
        solved.append(e_k)
        crossed.append(stepper.above(e_k))
        if k < K - 1:
            stepper.advance(e_k, interim(e_k))
    return tuple(solved), sum(crossed)
