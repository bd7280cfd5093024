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
L_k + i * h from the lower end L_k of its continuation interval (L_k, U_k],
weighted by the trapezoid rule with Gregory end corrections up to the last
of them, T_k, at or below U_k. The remainder [T_k, U_k], shorter than h,
takes the weights of the degree-7 interpolating polynomial through the 8
lattice nodes T_k - 3h to T_k + 4h, so each stage carries 4 support nodes
past its top, where the density is its smooth continuation; a window of
fewer than 7 lattice nodes is that stencil alone, from L_k. Both rules have
error O(h^8). Every node lies on the lattice, and between two lattices the
Gaussian kernel depends only on i - j, so one advance costs one vector of
n_prev + n_new - 1 exponentials and one 1-D convolution (by FFT on large
lattices).

A stepper sizes its buffers once, from its widest window: the steps i * h,
which give each window's nodes and each kernel's offsets, and the trapezoid
weights with the Gregory corrections at the lower end. An advance copies
the weights it needs and adds one 11-node tail, the Gregory corrections at
the top and no trapezoid weight past it, and the top stencil, whose weights
are a degree-8 polynomial in the remainder; it builds the kernel in place.
So an advance makes a fixed, small number of numpy calls, which at a few
hundred nodes cost more than the arithmetic.

The recursion is one stage stepper. Each advance records the continuing
sub-density with the next increment's scales, from which ``_crossing`` gives
the chance of crossing any critical value at the next analysis in O(n).
``exit_probabilities`` advances through the interims and walks the records,
stage 1 in closed form; the error-spending solve steps the stepper once per
stage, so a set of Hwang-Shih-DeCani boundaries costs about one recursion.

One pass under zero drift serves every drift. By Wald's likelihood-ratio
identity (Siegmund, *Sequential Analysis*, 1985, ch. 2; Jennison & Turnbull
2000, ch. 19) the continuing sub-density under drift theta is the null one
times exp(theta * s - theta^2 * I_k / 2) on the score scale, and the next
increment's mean moves by theta * dI_k. The Gaussian kernel obeys the same
identity, so where the bounds clip both windows the tilt and the drifted
recursion give the same quadrature to rounding; elsewhere they integrate
the same density on shifted lattices. A zero-drift ``exit_probabilities``
therefore keeps its records, and ``_Tilt`` runs the same walk on them with
the density reweighted to any drift: O(n) per stage with no convolution,
and at zero drift the recursion's numbers to the bit. The boundary solves
keep the records of their final pass, and the power search of ``design``
runs on them.

The tilt sees only the null windows, mean +/- 8 at zero drift clipped to
(f_k, e_k], and their support nodes past the top. A drifted density within
the bounds but past +/- 8 is missed: before each tilt the missed mass is
bounded by the sum over the interims of
[e_k > 8] Phi(theta sqrt(I_k) - 8) + [f_k < -8] Phi(-8 - theta sqrt(I_k)),
and above 1e-14 the tilt declines, so that the caller runs the recursion at
that drift. A drift below zero without a futility bound, or an early
efficacy bound above 8 (Wang-Tsiatis shapes below zero), takes that path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

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
# exactly, from 7 nodes up, so its error is O(h^8). These weights are
# positive; the remainder stencil's are not (down to -0.079 h).
_GREGORY_END = np.array([36799, 176648, 54851, 177984, 89437, 130936, 119585]) / 120960.0

# What a window's top adds to the trapezoid weights, in units of h: the
# Gregory corrections at its last 7 nodes, then none on the 4 support nodes.
_TOP_CORRECTIONS = np.concatenate(((_GREGORY_END - 1.0)[::-1], np.full(4, -1.0)))

_POWERS = np.arange(1.0, 9.0)


def _antiderivatives(nodes: np.ndarray) -> np.ndarray:
    """Antiderivatives of the degree-7 Lagrange basis on 8 nodes, one column per node.

    Row p - 1 holds the coefficients of x^p, p = 1..8. On nodes that are
    multiples of 1/2 every product below is exact in binary, so each entry is
    rounded once.
    """
    table = np.empty((8, 8))
    for j in range(8):
        others = np.delete(nodes, j)
        table[:, j] = np.poly(others)[::-1] / (np.prod(nodes[j] - others) * _POWERS)
    return table


# The stencil on the nodes -3.5, ..., 3.5.
_STENCIL = _antiderivatives(np.arange(8) - 3.5)

# The same stencil about -0.5, on the nodes -3, ..., 4: its weights over
# [-0.5, -0.5 + delta] are the polynomial delta**_POWERS @ _TOP_STENCIL.
_TOP_STENCIL = _antiderivatives(np.arange(8) - 3.0)

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


def _probit_root(gap, x: float, lo: float, hi: float, gap_lo=None):
    """Root in [lo, hi] of gap, an increasing difference of two probits.

    A safeguarded secant: the first step goes from x with the slope 1 of a
    single normal tail's probit, each later one is the secant through the
    last two points evaluated, and a step that would leave the bracket
    bisects it instead. The bracket's ends keep their signs: gap_lo is the
    lower end's gap where it was evaluated, -inf where a bound fixes its
    sign, or None where it is unchecked, and the upper end starts unchecked.
    A step past an unchecked end evaluates that end, and so does a search
    that closes onto one. The search stops at |gap| <= 1e-12 max(1, |x|)
    or a bracket as narrow, and returns a point it evaluated (of least
    |gap|), so a caller's cache of gap's work holds the result's; or None
    when an unchecked end shows the root outside [lo, hi].
    """
    gap_hi = last = None
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
            step_to = x - g
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
    A zero-drift recursion also keeps, privately, the stepper's interim
    records, on which ``_Tilt`` walks to any drift.
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


def _gauss(u: np.ndarray, sd: float) -> np.ndarray:
    """exp(-u^2 / (2 sd^2)), the unscaled N(0, sd^2) density, computed in u's buffer."""
    np.square(u, out=u)
    u *= -0.5 / (sd * sd)
    return np.exp(u, out=u)


def _convolve_valid(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """np.convolve(a, q, "valid") for len(q) >= len(a), by FFT when that is cheaper."""
    if a.size * (q.size - a.size + 1) <= _FFT_PRODUCTS:
        return np.convolve(a, q, mode="valid")
    from scipy.fft import irfft, next_fast_len, rfft  # on first use: only large lattices load it

    n = next_fast_len(a.size + q.size - 1, real=True)
    return irfft(rfft(a, n) * rfft(q, n), n)[a.size - 1 : q.size]


def _stencil_weights(a: float, b: float) -> np.ndarray:
    """Weights of the 8 stencil nodes for the integral over [a, b], in node spacings."""
    return (b**_POWERS - a**_POWERS) @ _STENCIL


class _Interim(NamedTuple):
    """The continuing sub-density past interim k-1, with the scales analysis k needs."""

    s: np.ndarray  # the interim's nodes on the score scale
    wg: np.ndarray  # quadrature weight times sub-density at each node
    s_sd: np.ndarray  # s / sd
    sqrt_i_sd: float  # sqrt(I_k) / sd
    sd: float  # the sd of the increment, sqrt(I_k - I_{k-1})
    half_i: float  # I_{k-1} / 2, for the tilt


def _crossing(stage: _Interim, c: float, theta: float, wg: np.ndarray, above: bool) -> float:
    """P(reach analysis k with Z_k > c), or with Z_k <= c, at drift theta.

    wg is the record's weighted density at theta: its own, or tilted there.
    Given S_{k-1} = s the increment is N(theta * sd^2, sd^2), so Z_k > c
    with probability Phi(s / sd + (theta * sd - c * sqrt(I_k) / sd)).
    """
    shift = theta * stage.sd - c * stage.sqrt_i_sd
    return float(np.dot(wg, ndtr(stage.s_sd + shift if above else -shift - stage.s_sd)))


class _StageStepper:
    """The continuing sub-density of a sequential z-test, one analysis at a time.

    ``stages`` holds one ``_Interim`` per interim passed, or None from the
    first past which no trial continues; from the last one the probability
    of crossing any critical value at the next analysis is one O(n)
    integral. ``advance`` moves the density past the next analysis for one
    lattice convolution. Before the first advance nothing is recorded: Z_1
    is N(theta * sqrt(I_1), 1).

    Raises:
        ConfigError: if nodes is below 2, or if the smallest information
            increment is so small that a stage would need more than 200,000
            lattice points.
    """

    def __init__(self, info: np.ndarray, theta: float, nodes: int):
        self._info = info = info.tolist()
        self._theta = theta
        if not nodes >= 2:
            raise ConfigError(f"nodes = {nodes} must be at least 2")
        smallest = min(b - a for a, b in zip([0.0, *info], info))
        h = self._h = 16.0 / (nodes - 1) * math.sqrt(smallest)
        # the widest continuation interval, mean +/- 8 at an interim, its ends
        # rounded as ``advance`` rounds them; an infinite mean leaves no window
        # and a NaN width, which max never picks over a number before it
        widest = 0.0
        for i in info[:-1]:
            mean, half = theta * i, _TAIL_WIDTH * math.sqrt(i)
            widest = max(widest, ((mean + half) - (mean - half)) / h)
        if not widest <= _MAX_LATTICE:
            raise ConfigError(
                f"the smallest information increment, {smallest / info[-1]:.3g} of the "
                f"final information, needs {widest:.3g} lattice points per stage, "
                f"above the limit of {_MAX_LATTICE}"
            )
        # A window holds at most int(widest) + 1 lattice nodes and 4 support nodes
        # past its top, or the 8 of the stencil alone, and a kernel spans two
        # windows. A shorter buffer would truncate the slices below silently.
        size = max(int(widest) + 5, 8)
        # i * h: a window's nodes from its lower end, and the kernel's offsets
        self._steps = np.arange(2.0 * size)
        self._steps *= h
        self._tail = _TOP_CORRECTIONS * h
        # the trapezoid weights with the Gregory corrections at the lower end,
        # which are the top's in reverse
        self._head = np.full(size, h)
        self._head[: _GREGORY_END.size] += self._tail[_GREGORY_END.size - 1 :: -1]
        self._top = _TOP_STENCIL * h
        self.stages: list[_Interim | None] = []

    def above(self, c: float) -> float:
        """P(reach the next analysis and Z > c)."""
        if not self.stages:
            return float(ndtr(self._theta * math.sqrt(self._info[0]) - c))
        stage = self.stages[-1]
        return 0.0 if stage is None else _crossing(stage, c, self._theta, stage.wg, True)

    def advance(self, e: float, f: float) -> None:
        """Continue past the next analysis on (f, e], clipped to the stage mean +/- 8."""
        k = len(self.stages)
        prev = self.stages[-1] if k else None
        info = self._info
        sqrt_ik = math.sqrt(info[k])
        mean = self._theta * info[k]
        lo = max(f * sqrt_ik, mean - _TAIL_WIDTH * sqrt_ik)
        hi = min(e * sqrt_ik, mean + _TAIL_WIDTH * sqrt_ik)
        if (k and prev is None) or not hi > lo:
            self.stages.append(None)
            return
        # the end-corrected trapezoid rule on the n lattice nodes lo .. top, then
        # the stencil on top - 3h .. top + 4h over the remainder [top, hi],
        # shorter than h: in stencil units [-0.5, -0.5 + (hi - top) / h]
        h = self._h
        span = (hi - lo) / h
        n = int(span) + 1
        if n < _GREGORY_END.size:
            # too short for the end corrections: the stencil alone, on lo .. lo + 7h
            n = 4
            w = h * _stencil_weights(-3.5, span - 3.5)
        else:
            w = self._head[: n + 4].copy()
            w[n - _GREGORY_END.size :] += self._tail
            w[n - 4 :] += (span - (n - 1)) ** _POWERS @ self._top
        s = lo + self._steps[: n + 4]
        if k == 0:
            w *= _gauss(s - mean, sqrt_ik) / (sqrt_ik * _SQRT_2PI)
        else:
            w *= self._propagate(prev, info[k] - info[k - 1], s)
        sd = math.sqrt(info[k + 1] - info[k])
        sqrt_i_sd = math.sqrt(info[k + 1]) / sd
        self.stages.append(_Interim(s, w, s / sd, sqrt_i_sd, sd, info[k] / 2.0))

    def _propagate(self, prev: _Interim, d_info: float, s: np.ndarray) -> np.ndarray:
        """Density at the new lattice nodes s, from the previous lattice's."""
        # the kernel is a function of i - j alone, offset by the conditional mean
        n_prev = prev.s.size
        mu = prev.s[0] + self._theta * d_info
        offsets = self._steps[: n_prev + s.size - 1] + (s[0] - mu - (n_prev - 1) * self._h)
        return _convolve_valid(prev.wg, _gauss(offsets, prev.sd)) / (prev.sd * _SQRT_2PI)


def _walk(stages, sqrt_i1: float, efficacy, futility, theta: float, tilt: bool):
    """Accept and reject per stage at drift theta, before the final scaling.

    Stage 1 is normal with mean theta * sqrt(I_1); stage k crosses from the
    record before it, and none is reached past a None. With tilt the records
    hold a zero-drift density, reweighted by exp(theta s - theta^2 I_{k-1} / 2).
    """
    K = len(efficacy)
    accept, reject = np.zeros(K), np.zeros(K)
    mean = theta * sqrt_i1
    reject[0] = ndtr(mean - efficacy[0])
    accept[0] = ndtr(futility[0] - mean)
    for k, stage in enumerate(stages, start=1):
        if stage is None:
            break
        wg = stage.wg
        if tilt:
            wg = wg * np.exp(theta * stage.s - theta * theta * stage.half_i)
        reject[k] = _crossing(stage, efficacy[k], theta, wg, True)
        if futility[k] > -math.inf:
            accept[k] = _crossing(stage, futility[k], theta, wg, False)
    return accept, reject


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
    info = np.asarray(problem.info_levels, dtype=float)
    e, f = problem.efficacy, problem.futility
    stepper = _StageStepper(info, problem.drift, nodes)
    for k in range(problem.num_stages - 1):
        stepper.advance(e[k], f[k])
    accept, reject = _walk(stepper.stages, math.sqrt(info[0]), e, f, problem.drift, tilt=False)
    # a zero-drift pass keeps its interim records for tilting
    return _summing_to_one(accept, reject, tuple(stepper.stages) if problem.drift == 0.0 else ())


def _summing_to_one(accept: np.ndarray, reject: np.ndarray, tables=()) -> ExitProbabilities:
    """The exit probabilities with the final stage scaled so that all stages sum to one."""
    K = accept.size
    a, r = accept.tolist(), reject.tolist()
    last = a[-1] + r[-1]
    if last > 0.0:
        remaining = 1.0 - float(np.sum(accept[: K - 1] + reject[: K - 1]))
        # zero when the earlier stages alone already reach one
        scale = max(remaining, 0.0) / last
        a[-1] *= scale
        r[-1] *= scale
    return ExitProbabilities(tuple(a), tuple(r), tables)


class _Tilt:
    """Exit probabilities at any drift from the interim records of a zero-drift pass.

    ``tables`` are the ``_null_tables`` of ``exit_probabilities`` at zero
    drift on the same information levels and bounds, or the ones a boundary
    solve keeps. A call is the recursion's own walk over them, with each
    density reweighted to the drift.

    The tilt reweights only the nodes of the null windows, mean +/- 8 at zero
    drift clipped to (f_k, e_k], and the 4 support nodes past each window's
    top. Where a bound beyond 8 lets the drifted density reach past them, the
    missed mass is bounded by its normal tail; above 1e-14 a call returns
    None, so that the caller runs the recursion at that drift instead.
    Without one record per interim every call returns None.
    """

    def __init__(self, tables, info, efficacy, futility):
        sqrt_i = np.sqrt(np.asarray(info, dtype=float))
        e, f = np.asarray(efficacy, dtype=float), np.asarray(futility, dtype=float)
        self._stages = tables if len(tables) == sqrt_i.size - 1 else None
        self._walk_args = float(sqrt_i[0]), e.tolist(), f.tolist()
        # the null windows' edges at +/- 8: the missed mass is Phi(theta * this - 8)
        self._guard = np.concatenate(
            (sqrt_i[:-1][e[:-1] > _TAIL_WIDTH], -sqrt_i[:-1][f[:-1] < -_TAIL_WIDTH])
        )

    def __call__(self, theta: float) -> ExitProbabilities | None:
        if self._stages is None:
            return None
        if not float(np.sum(ndtr(theta * self._guard - _TAIL_WIDTH))) <= _TILT_MISS:
            return None
        return _summing_to_one(*_walk(self._stages, *self._walk_args, theta, tilt=True))
