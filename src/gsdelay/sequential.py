"""Normal primitives and stage-wise exit probabilities of a sequential z-test.

The z-statistics of a two-arm group-sequential test follow the canonical
joint distribution: Z_k ~ N(theta * sqrt(I_k), 1) with
Cov(Z_j, Z_k) = sqrt(I_j / I_k) for j <= k, where I_k is the Fisher
information at analysis k. On the score scale S_k = Z_k * sqrt(I_k) the
increments S_k - S_{k-1} are independent N(theta * dI_k, dI_k). Exit
probabilities are computed by propagating the joint sub-density of the
continuing trial across each continuation interval by quadrature (a density
recursion), which is exact up to quadrature error.

Every stage's nodes lie on one score-scale lattice with the common step
h = c * sqrt(min_k dI_k), dI_1 = I_1 and c = 16 / (nodes - 1): ``nodes``
counts the lattice points across 16 standard deviations of the smallest
increment, whose width sets the accuracy (Jennison & Turnbull 2000, ch. 19
tie the grid to the normal scale of the increment). Stage k's nodes are
L_k + i * h from the lower end L_k of its continuation interval, weighted by
the trapezoid rule with Gregory end corrections (error O(h^8)); the remainder
at the top, shorter than h, is one 4-point Gauss-Legendre panel of
off-lattice nodes. Between two lattices the Gaussian kernel depends only on
i - j, so one advance costs one vector of n_prev + n_new - 1 exponentials and
one 1-D convolution (by FFT on large lattices), plus O(n) direct kernel
values for the off-lattice nodes.

The recursion is one stage stepper. It holds the continuing sub-density and
gives the probability of crossing any critical value at the next analysis in
O(n). ``exit_probabilities`` is a loop over it, and the error-spending solve
steps it once per stage, so a whole set of Hwang-Shih-DeCani boundaries
costs about one recursion.

One pass under zero drift serves every drift. By Wald's likelihood-ratio
identity (Siegmund, *Sequential Analysis*, 1985, ch. 2; Jennison & Turnbull
2000, ch. 19) the continuing sub-density under drift theta is the null one
times exp(theta * s - theta^2 * I_k / 2) on the score scale, and the next
increment's mean moves by theta * dI_k. The Gaussian kernel obeys the same
identity, so where the bounds clip both windows the tilt and the drifted
recursion give the same quadrature to rounding; elsewhere they integrate
the same density on shifted lattices. A zero-drift
``exit_probabilities`` therefore keeps each interim's nodes and weighted
density, and ``_Tilt`` gives the exit probabilities at any drift from them
in O(n) per stage, with no convolution; the boundary solves keep the tables
of their final pass, and the power search of ``design`` runs on them.

The tilt sees only the null windows, mean +/- 8 at zero drift clipped to
(f_k, e_k]. A drifted density within the bounds but past +/- 8 is missed:
before each tilt the missed mass is bounded by the sum over the interims of
[e_k > 8] Phi(theta sqrt(I_k) - 8) + [f_k < -8] Phi(-8 - theta sqrt(I_k)),
and above 1e-14 the tilt declines, so that the caller runs the recursion at
that drift. A drift below zero without a futility bound, or an early
efficacy bound above 8 (Wang-Tsiatis shapes below zero), takes that path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import ndtr, ndtri

from .errors import ConfigError

__all__ = [
    "SequentialProblem",
    "ExitProbabilities",
    "normal_quantile",
    "exit_probabilities",
    "DEFAULT_NODES",
]

DEFAULT_NODES = 459

# Grid support: the continuing density at stage k is bounded by the marginal
# N(theta*sqrt(I_k), 1) density, so mass outside mean +/- 8 is < 1e-15.
_TAIL_WIDTH = 8.0

# Lattice points a stage may need before the recursion refuses the problem.
_MAX_LATTICE = 200_000

# Drifted mass a tilted evaluation may miss before the recursion runs instead.
_TILT_MISS = 1e-14

# Above this many kernel products a stage convolves by FFT.
_FFT_PRODUCTS = 4_000_000

# End weights, in units of h, of the trapezoid rule corrected by Gregory's
# formula through sixth differences: it integrates polynomials of degree 7
# exactly, from 7 nodes up, so its error is O(h^8). The weights are positive.
_GREGORY_END = np.array([36799, 176648, 54851, 177984, 89437, 130936, 119585]) / 120960.0

# 4-point Gauss-Legendre nodes and weights, mapped from [-1, 1] to [0, 1];
# the rule is exact to degree 7.
_GL_NODES = 0.5 + 0.5 * np.array(
    [-0.8611363115940526, -0.33998104358485626, 0.33998104358485626, 0.8611363115940526]
)
_GL_WEIGHTS = 0.5 * np.array(
    [0.34785484513745357, 0.6521451548625464, 0.6521451548625464, 0.34785484513745357]
)

# The table of a stage past which no trial continues.
_EMPTY = np.empty(0)

# The smallest and largest doubles strictly inside (0, 1).
_SMALLEST_P = math.ulp(0.0)
_LARGEST_P = 1.0 - 2.0**-53

# A root search stops at a probit gap, or a bracket, this small times max(1, |x|).
_ROOT_TOL = 1e-12

# Secant steps a root search may take before it only bisects, so that it ends.
_SECANT_STEPS = 16


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


def _probit_root(gap, x: float, slope: float, lo: float, hi: float, gap_lo=None, gap_hi=None):
    """Root in [lo, hi] of gap, an increasing difference of two probits.

    A safeguarded secant: the first step goes from x with the given slope,
    each later one is the secant through the last two points evaluated, and
    a step that would leave the bracket bisects it instead. The bracket's
    ends keep their signs: gap_lo and gap_hi are an end's gap where it was
    evaluated, an infinity where a bound fixes its sign, or None where it
    is unchecked. A step past an unchecked end evaluates that end, and so
    does a search that closes onto one. The search stops at
    |gap| <= 1e-12 max(1, |x|) or a bracket as narrow, and returns a point it
    evaluated (of least |gap|), so a caller's cache of gap's work holds the
    result's; or None when an unchecked end shows the root outside [lo, hi].
    """
    last = None
    for step in itertools.count():
        g = gap(x)
        tol = _ROOT_TOL * max(1.0, abs(x))
        if abs(g) <= tol:
            return x
        if g < 0.0:
            if x >= hi:
                return None
            lo, gap_lo = x, g
        else:
            if x <= lo:
                return None
            hi, gap_hi = x, g
        if hi - lo <= tol:
            if gap_lo is None or gap_hi is None:
                x = lo if gap_lo is None else hi
                continue
            return lo if abs(gap_lo) <= abs(gap_hi) else hi
        if last is None:
            step_to = x - g / slope
        else:
            x_last, g_last = last
            step_to = x - g * (x - x_last) / (g - g_last) if g != g_last else math.nan
        last = x, g
        if step < _SECANT_STEPS and lo < step_to < hi:
            x = step_to
        elif step_to >= hi and gap_hi is None:
            x = hi
        elif step_to <= lo and gap_lo is None:
            x = lo
        else:
            x = 0.5 * (lo + hi)


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
        # negated comparisons so that NaN fails them
        if not all(0.0 < i < math.inf for i in info):
            raise ConfigError("information levels must be positive and finite")
        if not all(b > a for a, b in zip(info, info[1:])):
            raise ConfigError("information levels must be strictly increasing")
        if not math.isfinite(self.drift):
            raise ConfigError("drift must be finite")
        for k in range(K - 1):
            if not self.futility[k] < self.efficacy[k]:
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
    A zero-drift recursion also keeps, privately, each interim's lattice nodes
    and weighted density, from which ``_Tilt`` gets any drift.
    """

    accept_per_stage: tuple[float, ...]
    reject_per_stage: tuple[float, ...]
    _null_tables: tuple = field(default=(), compare=False, repr=False)

    @property
    def stop_per_stage(self) -> tuple[float, ...]:
        return tuple(a + r for a, r in zip(self.accept_per_stage, self.reject_per_stage))

    @property
    def total_reject(self) -> float:
        return sum(self.reject_per_stage)


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _gauss(u: np.ndarray) -> np.ndarray:
    """exp(-u^2 / 2), the unscaled standard normal density."""
    return np.exp(-0.5 * u * u)


def _convolve_valid(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """np.convolve(a, q, "valid") for len(q) >= len(a), by FFT when that is cheaper."""
    if a.size * (q.size - a.size + 1) <= _FFT_PRODUCTS:
        return np.convolve(a, q, mode="valid")
    n = next_fast_len(a.size + q.size - 1, real=True)
    return irfft(rfft(a, n) * rfft(q, n), n)[a.size - 1 : q.size]


class _StageStepper:
    """The continuing sub-density of a sequential z-test, one analysis at a time.

    At stage k (0-based) it holds the quadrature-weighted sub-density of
    (still running, S_{k-1} = s) on the stage-(k-1) nodes of the score
    lattice, so the probability of reaching stage k with Z_k above or below
    any critical value costs one O(n) integral of a normal CDF; ``advance``
    moves the density past stage k for one lattice convolution. Stage 0
    needs no density: Z_1 is N(theta * sqrt(I_1), 1).

    Raises:
        ConfigError: if nodes is below 2, or if the smallest information
            increment is so small that a stage would need more than 200,000
            lattice points.
    """

    def __init__(self, info: np.ndarray, theta: float, nodes: int):
        self._info = info
        self._theta = theta
        if not nodes >= 2:
            raise ConfigError(f"nodes = {nodes} must be at least 2")
        smallest = float(np.diff(info).min(initial=info[0]))
        self._h = 16.0 / (nodes - 1) * math.sqrt(smallest)
        if len(info) > 1:
            # the widest continuation interval: mean +/- 8 at the last interim
            widest = 2.0 * _TAIL_WIDTH * math.sqrt(info[-2]) / self._h
            if not widest <= _MAX_LATTICE:
                raise ConfigError(
                    f"the smallest information increment, {smallest / info[-1]:.3g} of the "
                    f"final information, needs {widest:.3g} lattice points per stage, "
                    f"above the limit of {_MAX_LATTICE}"
                )
        self._mean = theta * math.sqrt(info[0])
        self._stage = 0
        # weights * density on the lattice nodes, then on the off-lattice ones;
        # None at stage 0 and once no mass continues
        self._wg = None

    def above(self, c: float) -> float:
        """P(reach this stage and Z_k > c)."""
        if self._stage == 0:
            return float(ndtr(self._mean - c))
        if self._wg is None:
            return 0.0
        return float(np.dot(self._wg, ndtr((self._cond_mean - c * self._sqrt_i) / self._sd)))

    def below(self, c: float) -> float:
        """P(reach this stage and Z_k <= c)."""
        if self._stage == 0:
            return float(ndtr(c - self._mean))
        if self._wg is None:
            return 0.0
        return float(np.dot(self._wg, ndtr((c * self._sqrt_i - self._cond_mean) / self._sd)))

    def advance(self, e: float, f: float) -> None:
        """Continue past this stage on (f, e], clipped to the stage mean +/- 8."""
        k = self._stage
        self._stage += 1
        if k > 0 and self._wg is None:
            return
        info = self._info
        sqrt_ik = math.sqrt(info[k])
        mean = self._theta * info[k]
        lo = max(f * sqrt_ik, mean - _TAIL_WIDTH * sqrt_ik)
        hi = min(e * sqrt_ik, mean + _TAIL_WIDTH * sqrt_ik)
        if not hi > lo:
            self._wg = None
            return
        # the end-corrected trapezoid rule on the lattice nodes in [lo, hi], then
        # one Gauss-Legendre panel over the remainder [top, hi], shorter than h;
        # an interval too short for the end corrections is one panel
        h = self._h
        n = int((hi - lo) / h) + 1
        if n < _GREGORY_END.size:
            n = 0
        top = lo + h * (n - 1) if n else lo
        rest = hi - top
        size = n + _GL_NODES.size if rest > 0.0 else n
        s = np.empty(size)
        w = np.empty(size)
        s[:n] = np.arange(n) * h + lo
        w[:n] = h
        if n:
            ends = (_GREGORY_END - 1.0) * h
            w[: ends.size] += ends
            w[n - ends.size : n] += ends[::-1]
        if rest > 0.0:
            s[n:] = top + rest * _GL_NODES
            w[n:] = rest * _GL_WEIGHTS
        if k == 0:
            g = _gauss((s - mean) / sqrt_ik) / (sqrt_ik * _SQRT_2PI)
        else:
            g = self._propagate(s, n)
        self._wg = w * g
        self._lattice_size = n
        if self._stage < len(info):
            d_info = info[self._stage] - info[k]
            self._sd = math.sqrt(d_info)
            self._sqrt_i = math.sqrt(info[self._stage])
            # conditional mean of S_{k+1} given each node
            self._cond_mean = s + self._theta * d_info

    def table(self) -> tuple[np.ndarray, np.ndarray]:
        """Conditional means and weighted density past the last stage; empty if none continues."""
        if self._wg is None:
            return _EMPTY, _EMPTY
        return self._cond_mean, self._wg

    def _propagate(self, s: np.ndarray, n_new: int) -> np.ndarray:
        """Density at the new nodes s, whose first n_new lie on the lattice."""
        wg, mu, sd = self._wg, self._cond_mean, self._sd
        n_old = self._lattice_size
        g = np.zeros(s.size)
        if n_old and n_new:
            # lattice to lattice: the kernel is a function of i - j alone
            offsets = np.arange(1 - n_old, n_new) * self._h + (s[0] - mu[0])
            g[:n_new] = _convolve_valid(wg[:n_old], _gauss(offsets / sd))
        if wg.size > n_old:
            g[:n_new] += _gauss(np.subtract.outer(s[:n_new], mu[n_old:]) / sd) @ wg[n_old:]
        if s.size > n_new:
            g[n_new:] = _gauss(np.subtract.outer(s[n_new:], mu) / sd) @ wg
        return g / (sd * _SQRT_2PI)


def exit_probabilities(problem: SequentialProblem, nodes: int = DEFAULT_NODES) -> ExitProbabilities:
    """Exact stage-wise exit probabilities by density recursion.

    At each interim the sub-density of (still running, S_k = s) is tabulated
    on the score lattice over the continuation interval clipped to mean +/- 8;
    tail probabilities of the next statistic given each node are normal CDFs
    of the independent information increment. The final stage's accept and
    reject are scaled so that the stages sum to one, so quadrature error
    cannot push the expected sample size past the maximum. Absolute error per
    probability is far below 1e-6 at the default lattice.

    Args:
        problem: validated test description.
        nodes: lattice points across 16 standard deviations of the smallest
            information increment.

    Returns:
        ExitProbabilities at the problem's drift.
    """
    K = problem.num_stages
    e = np.asarray(problem.efficacy, dtype=float)
    f = np.asarray(problem.futility, dtype=float)
    stepper = _StageStepper(np.asarray(problem.info_levels, dtype=float), problem.drift, nodes)
    # a zero-drift pass keeps its interim tables for tilting
    tables = [] if problem.drift == 0.0 else None
    accept = np.zeros(K)
    reject = np.zeros(K)
    for k in range(K - 1):
        reject[k] = stepper.above(e[k])
        if math.isfinite(f[k]):
            accept[k] = stepper.below(f[k])
        stepper.advance(e[k], f[k])
        if tables is not None:
            tables.append(stepper.table())
    reject[K - 1] = stepper.above(e[K - 1])
    accept[K - 1] = stepper.below(e[K - 1])
    return _summing_to_one(accept, reject, tuple(tables or ()))


def _summing_to_one(accept: np.ndarray, reject: np.ndarray, tables=()) -> ExitProbabilities:
    """The exit probabilities with the final stage scaled so that all stages sum to one."""
    K = accept.size
    last = accept[K - 1] + reject[K - 1]
    if last > 0.0:
        remaining = 1.0 - float(np.sum(accept[: K - 1] + reject[: K - 1]))
        # zero when the earlier stages alone already reach one
        scale = max(remaining, 0.0) / last
        accept[K - 1] *= scale
        reject[K - 1] *= scale
    return ExitProbabilities(tuple(accept), tuple(reject), tables)


class _Tilt:
    """Exit probabilities at any drift from the interim tables of a zero-drift pass.

    ``tables`` are the ``_null_tables`` of ``exit_probabilities`` at zero
    drift on the same information levels and bounds, or the ones a boundary
    solve keeps. Under drift theta the continuing sub-density at each node s
    is the null one times exp(theta * s - theta^2 * I_k / 2), and the next
    increment's mean moves by theta * dI, so every stage costs O(n) and no
    convolution; all stages' nodes are evaluated together in one array.

    The tilt reweights only the nodes of the null windows, mean +/- 8 at zero
    drift clipped to (f_k, e_k]. Where a bound beyond 8 lets the drifted
    density reach past them, the missed mass is bounded by its normal tail;
    above 1e-14 a call returns None, so that the caller runs the recursion at
    that drift instead. Without one table per interim every call returns None.
    """

    def __init__(self, tables, info, efficacy, futility):
        info = np.asarray(info, dtype=float)
        e = np.asarray(efficacy, dtype=float)
        f = np.array(futility, dtype=float)
        K = info.size
        self._usable = len(tables) == K - 1
        sqrt_i = np.sqrt(info)
        # stage 1 is normal; the last stage accepts below its efficacy bound
        f[K - 1] = e[K - 1]
        self._first = sqrt_i[0], e[0], f[0]
        self._stages = K
        # the null windows' edges at +/- 8: the missed mass is Phi(theta * this - 8)
        self._guard = np.concatenate(
            (sqrt_i[:-1][e[:-1] > _TAIL_WIDTH], -sqrt_i[:-1][f[:-1] < -_TAIL_WIDTH])
        )
        if K == 1 or not self._usable:
            self._s = _EMPTY
            return
        self._sizes = [s.size for s, _ in tables]

        def per_node(values):
            return np.repeat(values, self._sizes)

        sd = np.sqrt(np.diff(info))
        self._s = np.concatenate([s for s, _ in tables])
        self._wg = np.concatenate([wg for _, wg in tables])
        self._stage = per_node(np.arange(1, K))
        self._half_i = info[:-1] / 2.0
        # the next increment's mean, theta * dI, is theta * sd in units of its sd;
        # the continuing Z_k crosses e_k with probability Phi(above + theta * sd)
        # and falls to f_k or below with probability Phi(below - theta * sd)
        self._sd = sd
        s_sd = self._s / per_node(sd)
        self._above = s_sd - per_node(e[1:] * sqrt_i[1:] / sd)
        below = per_node(f[1:] * sqrt_i[1:] / sd) - s_sd
        # an infinite futility bound accepts nothing: only the other nodes count
        finite = np.isfinite(below)
        self._accepting = slice(None) if finite.all() else np.flatnonzero(finite)
        self._below = below[self._accepting]

    def __call__(self, theta: float) -> ExitProbabilities | None:
        if not self._usable:
            return None
        if not float(np.sum(ndtr(theta * self._guard - _TAIL_WIDTH))) <= _TILT_MISS:
            return None
        K = self._stages
        sqrt_i1, e1, f1 = self._first
        mean = theta * sqrt_i1
        reject = np.zeros(K)
        accept = np.zeros(K)
        reject[0] = ndtr(mean - e1)
        accept[0] = ndtr(f1 - mean)
        if self._s.size:
            # in place, to hold few lattice-sized arrays at once
            tilted = theta * self._s
            tilted -= np.repeat(theta * theta * self._half_i, self._sizes)
            np.exp(tilted, out=tilted)
            tilted *= self._wg
            shift = np.repeat(theta * self._sd, self._sizes)
            crossed = ndtr(self._above + shift)
            crossed *= tilted
            reject += np.bincount(self._stage, weights=crossed, minlength=K)
            ix = self._accepting
            crossed = ndtr(self._below - shift[ix])
            crossed *= tilted[ix]
            accept += np.bincount(self._stage[ix], weights=crossed, minlength=K)
        return _summing_to_one(accept, reject)
