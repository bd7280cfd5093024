import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from gsdelay import sequential
from gsdelay.boundaries import (
    BoundarySet,
    FutilityStyle,
    HwangShihDeCani,
    WangTsiatis,
    build_boundaries,
)
from gsdelay.design import DesignSpec, build_design
from gsdelay.errors import ConfigError, SolveError
from gsdelay.sequential import (
    ExitProbabilities,
    _clipped_probit,
    SequentialProblem,
    exit_probabilities,
    normal_quantile,
)
from conftest import exit_at
from zgrid_reference import zgrid_exit_probabilities

EQUAL_3 = (1 / 3, 2 / 3, 1.0)

# frozen against a 50-digit arbitrary-precision oracle
NORMAL_CDF_ORACLE = [
    (0.0, 0.5),
    (0.5, 0.69146246127401312),
    (1.0, 0.84134474606854293),
    (1.6449, 0.95000478253165366),
    (1.959963984540054, 0.97499999999999998),
    (2.5, 0.99379033467422384),
    (3.0, 0.9986501019683699),
    (4.0, 0.99996832875816688),
    (-1.0, 0.15865525393145705),
    (-2.3, 0.010724110021675805),
]


# the engine's tail probabilities come from scipy's ndtr; pin it to the oracle
class TestNormalCdf:
    @pytest.mark.parametrize("x,expected", NORMAL_CDF_ORACLE)
    def test_oracle_values(self, x, expected):
        assert ndtr(x) == pytest.approx(expected, abs=1e-12)

    def test_symmetry_identity(self):
        for x in np.linspace(-6, 6, 61):
            assert ndtr(-x) == pytest.approx(1.0 - ndtr(x), abs=1e-12)

    def test_tail_saturation(self):
        assert ndtr(-60.0) == 0.0
        assert ndtr(60.0) == 1.0


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_oracle_values(self):
        assert normal_quantile(0.95) == pytest.approx(1.6448536269514726, abs=1e-10)
        assert normal_quantile(0.975) == pytest.approx(1.9599639845400543, abs=1e-10)

    def test_round_trip(self):
        for p in np.linspace(0.001, 0.999, 97):
            assert ndtr(normal_quantile(p)) == pytest.approx(p, abs=1e-10)

    def test_monotone(self):
        grid = [normal_quantile(p) for p in np.linspace(0.01, 0.99, 50)]
        assert all(a < b for a, b in zip(grid, grid[1:]))

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.7])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(ConfigError):
            normal_quantile(p)

    def test_clipped_probit_stays_finite_at_the_ends(self):
        # root searches on the probit scale see levels that underflow to 0
        assert _clipped_probit(0.0) == pytest.approx(-38.47, abs=0.01)
        assert _clipped_probit(1.0) == pytest.approx(8.21, abs=0.01)
        assert _clipped_probit(0.05) == normal_quantile(0.05)


def recorded(gap):
    """gap, and the list of the points it is evaluated at."""
    seen = []

    def wrapped(x):
        seen.append(x)
        return gap(x)

    return wrapped, seen


class TestProbitRoot:
    @given(
        root=st.floats(-3.0, 3.0),
        rate=st.floats(0.05, 50.0),
        cubic=st.floats(0.0, 2.0),
        start=st.floats(-4.9, 4.9),
    )
    @settings(max_examples=200, deadline=None)
    def test_returns_an_evaluated_root_above_a_fixed_end(self, root, rate, cubic, start):
        # the arctangent flattens away from the root, where secant steps leave
        # the bracket; a lower end whose sign is fixed is never evaluated
        gap, seen = recorded(lambda x: math.atan(rate * (x - root)) + cubic * (x - root) ** 3)
        x = sequential._probit_root(gap, start, -5.0, 5.0, -math.inf)
        assert x in seen and -5.0 not in seen
        assert abs(x - root) <= 1e-10
        assert len(seen) <= 70

    @pytest.mark.parametrize("root, end", [(7.0, 5.0), (-7.0, -5.0)])
    def test_a_step_past_an_unchecked_end_evaluates_it(self, root, end):
        gap, seen = recorded(lambda x: x - root)
        assert sequential._probit_root(gap, 0.0, -5.0, 5.0) is None
        assert seen == [0.0, end]

    @pytest.mark.parametrize("at_end", [1.0, -1.0])
    def test_closing_onto_an_unchecked_end_evaluates_it(self, at_end):
        # a flat gap gives no secant, so the search bisects up to the end
        gap, seen = recorded(lambda x: at_end if x >= 5.0 else -1.0)
        x = sequential._probit_root(gap, 1.0, 0.0, 5.0)
        assert seen[-1] == 5.0 and seen.count(5.0) == 1
        if at_end > 0:
            assert x in seen and 0.0 < 5.0 - x <= 5e-12
        else:
            assert x is None


def make_problem(K, theta, efficacy, futility, info=None):
    info = tuple(info) if info is not None else tuple((k + 1.0) for k in range(K))
    return SequentialProblem(info, theta, tuple(efficacy), tuple(futility))


class TestProblemValidation:
    def test_empty_continuation_rejected(self):
        with pytest.raises(ConfigError, match="continuation"):
            make_problem(2, 0.0, [1.0, 2.0], [1.5, 2.0])

    def test_final_bounds_must_meet(self):
        with pytest.raises(ConfigError):
            make_problem(2, 0.0, [1.0, 2.0], [0.0, 1.9])

    def test_info_must_increase(self):
        with pytest.raises(ConfigError):
            make_problem(2, 0.0, [2.0, 2.0], [0.0, 2.0], info=[2.0, 1.0])

    @pytest.mark.parametrize("info", [(math.nan, 2.0), (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_info_rejected(self, info):
        with pytest.raises(ConfigError, match="information levels"):
            make_problem(2, 0.0, [2.0, 2.0], [0.0, 2.0], info=info)

    def test_nan_bound_rejected(self):
        with pytest.raises(ConfigError, match="continuation"):
            make_problem(2, 0.0, [math.nan, 2.0], [0.0, 2.0])


class TestExitProbabilities:
    def test_single_stage_is_a_normal_tail(self):
        crit = normal_quantile(0.95)
        probs = exit_probabilities(make_problem(1, 0.0, [crit], [crit]))
        assert probs.reject_per_stage[0] == pytest.approx(0.05, abs=1e-8)
        assert probs.accept_per_stage[0] == pytest.approx(0.95, abs=1e-8)

    def test_conservation_and_construction(self, table_design):
        for K in (2, 3, 4, 5):
            design = table_design(K)
            for theta in (0.0, 0.25, 0.5, 1.0):
                probs = exit_at(design, theta)
                assert sum(probs.stop_per_stage) == pytest.approx(1.0, abs=1e-8)
                for s, a, r in zip(
                    probs.stop_per_stage, probs.accept_per_stage, probs.reject_per_stage
                ):
                    assert s == a + r
                    assert 0.0 <= a <= 1.0 and 0.0 <= r <= 1.0

    def test_rejection_monotone_in_drift(self, table_design):
        design = table_design(3)
        grid = np.linspace(-0.5, 1.5, 21)
        powers = [exit_at(design, theta).total_reject for theta in grid]
        assert all(b >= a - 1e-12 for a, b in zip(powers, powers[1:]))

    def test_grid_convergence(self, table_design):
        for K in (2, 5):
            design = table_design(K)
            problem = SequentialProblem(
                design.info_levels, 0.5, design.boundaries.efficacy, design.boundaries.futility
            )
            coarse = exit_probabilities(problem, nodes=301)
            fine = exit_probabilities(problem, nodes=601)
            for a, b in zip(
                coarse.accept_per_stage + coarse.reject_per_stage,
                fine.accept_per_stage + fine.reject_per_stage,
            ):
                assert abs(a - b) < 1e-6

    def test_two_stage_expected_size_golden(self, table_design):
        # frozen reference: ESS 105.84 at the target effect for the 2-stage design
        design = table_design(2)
        ess = sum(s * n for s, n in zip(design.exit.stop_per_stage, design.stage_n))
        assert ess == pytest.approx(105.84, abs=0.15)

    def test_no_futility_has_no_early_accepts(self, table_design):
        design = table_design(3)
        problem = SequentialProblem(
            design.info_levels,
            0.5,
            design.boundaries.efficacy,
            (-math.inf, -math.inf, design.boundaries.efficacy[-1]),
        )
        probs = exit_probabilities(problem)
        assert probs.accept_per_stage[0] == 0.0
        assert probs.accept_per_stage[1] == 0.0
        assert sum(probs.stop_per_stage) == pytest.approx(1.0, abs=1e-8)

    @given(
        theta=st.floats(-1.5, 1.5),
        e1=st.floats(0.5, 4.0),
        e2=st.floats(0.5, 4.0),
        f1=st.floats(-4.0, 0.4),
        i1=st.floats(0.5, 8.0),
        di=st.floats(0.1, 8.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_conservation_property(self, theta, e1, e2, f1, i1, di):
        problem = SequentialProblem((i1, i1 + di), theta, (e1, e2), (f1, e2))
        probs = exit_probabilities(problem)
        assert sum(probs.stop_per_stage) == pytest.approx(1.0, abs=1e-8)

    def test_stop_property_consistency(self):
        probs = ExitProbabilities((0.1, 0.3), (0.2, 0.4))
        assert probs.stop_per_stage == (0.1 + 0.2, 0.3 + 0.4)
        assert probs.total_reject == pytest.approx(0.6)


@st.composite
def sequential_problems(draw):
    """K 1-10 with unequal information increments, any drift in [-1, 4] and
    efficacy bounds in [0.1, 5] under one of the three futility styles."""
    K = draw(st.integers(1, 10))
    increments = draw(st.lists(st.floats(0.05, 20.0), min_size=K, max_size=K))
    info = tuple(np.cumsum(increments))
    assume(all(b > a for a, b in zip(info, info[1:])))
    efficacy = draw(st.lists(st.floats(0.1, 5.0), min_size=K, max_size=K))
    style = draw(st.sampled_from(["zero", "symmetric", "none"]))
    interim = {"zero": lambda e: 0.0, "symmetric": lambda e: -e, "none": lambda e: -math.inf}[style]
    futility = [interim(e) for e in efficacy[:-1]] + [efficacy[-1]]
    theta = draw(st.floats(-1.0, 4.0))
    return SequentialProblem(info, theta, tuple(efficacy), tuple(futility))


def max_abs_error(probs, reference):
    got = np.array(probs.accept_per_stage + probs.reject_per_stage)
    return float(np.max(np.abs(got - (reference.accept_per_stage + reference.reject_per_stage))))


# The worst absolute error per probability of the 301-node z-grid against the
# 1201-node z-grid, over two samples of 3000 problems drawn from
# sequential_problems(): a small increment after a large information level is
# under-resolved on the z-scale. The lattice's worst against the same
# reference, on the second sample, was 1.9e-8.
ZGRID_301_WORST_ERROR = 9.8e-4


class TestAgainstReferenceRecursion:
    @given(problem=sequential_problems())
    @settings(max_examples=150, deadline=None)
    def test_within_z_grid_error_of_fine_reference(self, problem):
        expected = zgrid_exit_probabilities(problem, 1201)
        assert max_abs_error(exit_probabilities(problem), expected) <= ZGRID_301_WORST_ERROR

    def test_empty_clipped_interval_ends_the_recursion(self):
        # the stage-2 mean is 4 * sqrt(6) = 9.8, so the continuation interval
        # (0, 1.5] lies wholly below mean - 8 and no density continues
        problem = SequentialProblem((1.0, 6.0, 7.0), 4.0, (3.0, 1.5, 2.0), (0.0, 0.0, 2.0))
        probs = exit_probabilities(problem)
        expected = zgrid_exit_probabilities(problem, 1201)
        assert max_abs_error(probs, expected) <= ZGRID_301_WORST_ERROR
        assert probs.reject_per_stage[2] == 0.0 and probs.accept_per_stage[2] == 0.0
        assert probs.reject_per_stage[1] > 0.0


@st.composite
def solved_boundaries(draw):
    """Boundaries of either family under any futility style, K 1-10, some unequally spaced."""
    K = draw(st.integers(1, 10))
    if K > 1 and draw(st.booleans()):
        gaps = draw(st.lists(st.floats(0.2, 3.0), min_size=K, max_size=K))
        rho = np.cumsum(gaps) / np.sum(gaps)
        rho[-1] = 1.0
    else:
        rho = np.arange(1, K + 1) / K
    if draw(st.booleans()):
        family = WangTsiatis(draw(st.floats(-0.5, 0.6)))
    else:
        family = HwangShihDeCani(draw(st.floats(-4.0, 2.0)))
    style = draw(st.sampled_from(list(FutilityStyle)))
    alpha = draw(st.sampled_from([0.01, 0.025, 0.05, 0.1]))
    try:
        bounds = build_boundaries(family, K, rho, alpha, style)
    except (ConfigError, SolveError):
        assume(False)
    return rho, bounds


def tilted(rho, bounds, eta):
    return sequential._Tilt(bounds._null_tables, rho, bounds.efficacy, bounds.futility)(eta)


def direct(rho, bounds, eta):
    return exit_probabilities(SequentialProblem(tuple(rho), eta, bounds.efficacy, bounds.futility))


class TestTiltedEvaluation:
    """Exit probabilities at a drift from the boundary solve's null pass, against the recursion."""

    @given(case=solved_boundaries(), eta=st.floats(-6.0, 10.0))
    @settings(max_examples=120, deadline=None)
    def test_matches_the_recursion(self, case, eta):
        rho, bounds = case
        got = tilted(rho, bounds, eta)
        # None sends the caller to the recursion itself
        if got is not None:
            assert max_abs_error(got, direct(rho, bounds, eta)) <= 1e-10

    def test_covered_windows_take_the_tilt(self):
        rho = np.array([0.2, 0.45, 0.7, 0.85, 1.0])
        # without a futility bound the null window stops at -8, which a drift
        # below zero reaches past
        cases = ((FutilityStyle.NONE, (0.0, 3.0, 6.0)), (FutilityStyle.BINDING_ZERO, (-4.0, 3.0)))
        for style, etas in cases:
            bounds = build_boundaries(WangTsiatis(0.25), 5, rho, 0.025, style)
            for eta in etas:
                got = tilted(rho, bounds, eta)
                assert got is not None
                assert max_abs_error(got, direct(rho, bounds, eta)) <= 1e-12

    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    @pytest.mark.parametrize(
        "family", [WangTsiatis(0.5), WangTsiatis(0.0), WangTsiatis(0.25)],
        ids=["pocock", "obrien-fleming", "wt-0.25"],
    )
    def test_paper_designs_take_the_tilt(self, family, K):
        # the delay study's designs: alpha 0.05, binding futility at zero, so
        # every null window lies inside +/- 8 and each stage's walk is exact
        # up to summation order, zero drift included
        rho = np.arange(1, K + 1) / K
        bounds = build_boundaries(family, K, rho, 0.05, FutilityStyle.BINDING_ZERO)
        for eta in (0.0, 1.5, 3.0, 4.5):
            got = tilted(rho, bounds, eta)
            assert got is not None
            assert max_abs_error(got, direct(rho, bounds, eta)) <= 1e-14

    @pytest.mark.parametrize("K", [2, 3, 5, 8])
    @pytest.mark.parametrize("style", list(FutilityStyle), ids=lambda style: style.value)
    @pytest.mark.parametrize(
        "family", [WangTsiatis(0.0), WangTsiatis(0.5), HwangShihDeCani(-2.0)],
        ids=["obrien-fleming", "pocock", "hsd-2"],
    )
    def test_zero_drift_is_the_recursion_to_the_bit(self, family, style, K):
        # the tilt walks the recursion's own records with the same crossing
        # integrals, and at zero drift its weights are the null ones times exp(0)
        rho = np.arange(1, K + 1) / K
        bounds = build_boundaries(family, K, rho, 0.025, style)
        got, want = tilted(rho, bounds, 0.0), direct(rho, bounds, 0.0)
        assert got.accept_per_stage == want.accept_per_stage
        assert got.reject_per_stage == want.reject_per_stage

    def test_an_early_bound_beyond_8_takes_the_recursion(self, monkeypatch):
        # e_1 = 11.6: the null window stops at 8, and at eta = 10 the drifted
        # stage-1 density reaches past it
        rho = np.arange(1, 10) / 9
        bounds = build_boundaries(WangTsiatis(-0.37), 9, rho, 0.05, FutilityStyle.SYMMETRIC)
        assert bounds.efficacy[0] > 8.0
        assert tilted(rho, bounds, 10.0) is None
        monkeypatch.setattr(sequential, "_TILT_MISS", math.inf)
        assert max_abs_error(tilted(rho, bounds, 10.0), direct(rho, bounds, 10.0)) > 1e-7

    def test_design_takes_the_recursion_where_the_tilt_misses(self):
        spec = DesignSpec(
            alpha=0.05, beta=0.1, tau=0.5, num_stages=9, family=WangTsiatis(-0.37),
            futility=FutilityStyle.SYMMETRIC, mu_eval=1.1,
        )
        design = build_design(spec)
        assert max_abs_error(design.exit, exit_at(design, spec.mu_eval)) <= 1e-12

    @pytest.mark.xfail(
        strict=True,
        reason="the tilt magnifies quadrature error where the null density near an "
        "early bound is about 1e-12, a miss the +/- 8 guard does not bound",
    )
    def test_drift_near_a_far_early_bound(self):
        rho = (0.148, 0.200, 0.248, 0.436, 0.639, 0.897, 0.928, 1.0)
        bounds = build_boundaries(WangTsiatis(1.302), 8, rho, 0.0478, FutilityStyle.NONE)
        got = tilted(rho, bounds, 7.57)
        assert got is None or max_abs_error(got, direct(rho, bounds, 7.57)) <= 1e-10

    def test_no_tables_take_the_recursion(self):
        bounds = build_boundaries(WangTsiatis(0.25), 3, EQUAL_3, 0.05, FutilityStyle.NONE)
        hand_built = BoundarySet(bounds.efficacy, bounds.futility, bounds.achieved_alpha)
        assert tilted(EQUAL_3, hand_built, 2.0) is None
        single = BoundarySet((1.6448536269514722,), (1.6448536269514722,), 0.05)
        got = tilted((1.0,), single, 2.0)
        assert max_abs_error(got, direct((1.0,), single, 2.0)) <= 1e-15


# The lattice step of a stage stepper on information levels (1, 2).
STAGE_ONE_STEP = 16.0 / (sequential.DEFAULT_NODES - 1)


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def exact_stencil_weights(a, b):
    """Integrals over [a, b] of the Lagrange basis on -7/2, ..., 7/2, in rational arithmetic."""
    nodes = [Fraction(2 * i - 7, 2) for i in range(8)]
    a, b = Fraction(a), Fraction(b)
    weights = []
    for j, xj in enumerate(nodes):
        basis = [Fraction(1)]
        for i, xi in enumerate(nodes):
            if i != j:
                basis = _poly_mul(basis, [-xi / (xj - xi), 1 / (xj - xi)])
        antiderivative = (c * (b ** (p + 1) - a ** (p + 1)) / (p + 1) for p, c in enumerate(basis))
        weights.append(sum(antiderivative))
    return np.array([float(w) for w in weights])


class TestScoreLattice:
    @given(
        delta=st.floats(0.0, 1.0, exclude_max=True),
        length=st.floats(0.0, 7.0, exclude_min=True, exclude_max=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_stencil_integrates_degree_7_exactly(self, delta, length):
        # the remainder past the top node, and a window too short for the end corrections
        nodes = np.arange(8) - 3.5
        for a, b in ((-0.5, -0.5 + delta), (-3.5, -3.5 + length)):
            w = sequential._stencil_weights(a, b)
            assert w.sum() == pytest.approx(b - a, abs=1e-13)
            for p in range(8):
                exact = (b ** (p + 1) - a ** (p + 1)) / (p + 1)
                # relative to the size of the terms summed
                scale = max(1.0, float(np.abs(w) @ np.abs(nodes) ** p))
                assert abs(w @ nodes**p - exact) <= 1e-13 * scale
            assert np.abs(w - exact_stencil_weights(a, b)).max() <= 1e-13

    @given(delta=st.floats(0.0, 1.0, exclude_max=True))
    @example(delta=0.0)
    @example(delta=math.nextafter(1.0, 0.0))
    @settings(max_examples=60, deadline=None)
    def test_top_stencil_is_a_polynomial_in_the_remainder(self, delta):
        # the remainder [-0.5, -0.5 + delta] past the top node, in node spacings
        w = delta**sequential._POWERS @ sequential._TOP_STENCIL
        assert np.abs(w - sequential._stencil_weights(-0.5, -0.5 + delta)).max() <= 1e-15
        assert np.abs(w - exact_stencil_weights(-0.5, -0.5 + delta)).max() <= 1e-15

    @pytest.mark.parametrize("gap,n_max", [(1e-3, 174.170432), (1e-4, 173.956455)])
    def test_closely_spaced_analyses_match_a_fine_grid(self, gap, n_max):
        # n_max from the z-grid at 4801 nodes; its 301-node grid gave 174.1681
        # and 161.55, as the kernel of the small increment was under-resolved
        spec = DesignSpec(
            alpha=0.025, beta=0.1, tau=0.5, num_stages=3, futility=FutilityStyle.NONE,
            info_fractions=(0.5, 0.5 + gap, 1.0),
        )
        assert build_design(spec).max_n == pytest.approx(n_max, rel=1e-6)

    @pytest.mark.parametrize(
        "K,style",
        [(2, FutilityStyle.NONE), (3, FutilityStyle.BINDING_ZERO), (8, FutilityStyle.BINDING_ZERO)],
    )
    def test_n_max_error_is_of_order_h8(self, K, style):
        # Pocock designs at alpha 0.05, beta 0.1, tau 0.5 against 4801 nodes;
        # measured 1.2e-9, 4.2e-11 and 1.4e-12 at worst, and orders 8.1-8.8
        spec = DesignSpec(
            alpha=0.05, beta=0.1, tau=0.5, num_stages=K, family=WangTsiatis(0.5), futility=style
        )
        reference = build_design(spec, nodes=4801).max_n
        error = {
            nodes: abs(build_design(spec, nodes=nodes).max_n / reference - 1.0)
            for nodes in (201, 301, 459)
        }
        assert error[201] <= 3e-9 and error[301] <= 1e-10 and error[459] <= 4e-12
        # h is proportional to 1 / (nodes - 1)
        for coarse, fine in ((201, 301), (301, 459)):
            order = math.log(error[coarse] / error[fine]) / math.log((fine - 1) / (coarse - 1))
            assert order >= 7.0

    def test_lattice_too_large_names_the_smallest_increment(self):
        for family in (WangTsiatis(0.25), HwangShihDeCani(-2.0)):
            spec = DesignSpec(
                alpha=0.025, beta=0.1, tau=0.5, num_stages=3, family=family,
                info_fractions=(0.5, 0.5 + 1e-7, 1.0),
            )
            with pytest.raises(ConfigError, match="smallest information increment, 1e-07 of"):
                build_design(spec)

    @pytest.mark.parametrize(
        "e,f",
        [(2.0, 0.0), (0.3, 0.0), (0.01, 0.0), (3.0, -math.inf)]
        # a remainder of 0, just above 0 and just below one lattice step
        + [(steps * STAGE_ONE_STEP, 0.0) for steps in (20, 20 + 1e-9, 21 - 1e-9)]
        # windows of 1 to 7 lattice nodes
        + [((nodes - 0.5) * STAGE_ONE_STEP, 0.0) for nodes in range(1, 8)],
    )
    def test_stage_one_mass_matches_the_normal_cdf(self, e, f):
        # the end-corrected lattice rule and the remainder stencil, or the
        # stencil alone on a window of fewer than 7 lattice nodes, integrate
        # the density
        mean = 0.4
        stepper = sequential._StageStepper(np.array([1.0, 2.0]), mean, sequential.DEFAULT_NODES)
        stepper.advance(e, f)
        expected = ndtr(e - mean) - ndtr(max(f - mean, -8.0))
        assert stepper.stages[-1].wg.sum() == pytest.approx(expected, rel=1e-12)

    def test_the_widest_admitted_lattice_holds_all_the_mass(self):
        # an increment that puts just under 200,000 lattice points on each
        # window, mean +/- 8 with bounds far past it: no trial stops before
        # stage 3, so the record holds all the mass and Z_3 is normal
        steps = sequential.DEFAULT_NODES - 1
        gap = (1.0 + 1e-9) / ((sequential._MAX_LATTICE / steps) ** 2 - 1.0)
        info, theta = np.array([1.0, 1.0 + gap, 3.0]), 0.7
        stepper = sequential._StageStepper(info, theta, sequential.DEFAULT_NODES)
        stepper.advance(1e3, -1e3)
        stepper.advance(1e3, -1e3)
        assert stepper.stages[-1].s.size > sequential._MAX_LATTICE
        assert stepper.stages[-1].wg.sum() == pytest.approx(1.0, abs=1e-13)
        assert stepper.above(2.0) == pytest.approx(ndtr(theta * math.sqrt(3.0) - 2.0), rel=1e-13)

    @pytest.mark.parametrize("eta", [-1.0, 3.0])
    def test_drifted_eight_stages_without_futility_match_the_references(self, eta):
        # unequal spacing and windows at mean +/- 8 that move with the drift
        rho = np.array([0.1, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 1.0])
        bounds = build_boundaries(WangTsiatis(0.25), 8, rho, 0.025, FutilityStyle.NONE)
        probs = direct(rho, bounds, eta)
        problem = SequentialProblem(tuple(rho), eta, bounds.efficacy, bounds.futility)
        assert max_abs_error(probs, zgrid_exit_probabilities(problem, 1201)) <= ZGRID_301_WORST_ERROR
        # below zero the tilt declines: the null window stops at -8
        got = tilted(rho, bounds, eta)
        assert (got is None) == (eta < 0.0)
        if got is not None:
            assert max_abs_error(got, probs) <= 1e-12

    def test_a_pass_allocates_for_its_own_lattice(self):
        # the stepper's buffers hold its widest window, about a thousand nodes
        # here; sized for _MAX_LATTICE they would take about 5 MB
        rho = np.arange(1, 6) / 5
        bounds = build_boundaries(WangTsiatis(0.25), 5, rho, 0.025, FutilityStyle.BINDING_ZERO)
        problem = SequentialProblem(tuple(rho), 0.0, bounds.efficacy, bounds.futility)
        exit_probabilities(problem)
        tracemalloc.start()
        try:
            exit_probabilities(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    @pytest.mark.parametrize("nodes", [1, 0, math.nan])
    def test_too_few_nodes_rejected(self, nodes):
        with pytest.raises(ConfigError, match="nodes"):
            exit_probabilities(make_problem(2, 0.0, [2.0, 2.0], [0.0, 2.0]), nodes)

    def test_large_lattices_convolve_by_fft(self, monkeypatch):
        # a 1e-4 increment puts thousands of lattice points on each stage
        problem = SequentialProblem((0.5, 0.5001, 1.0), 0.3, (2.5, 2.4, 2.0), (-1.0, 0.0, 2.0))
        by_fft = exit_probabilities(problem)
        monkeypatch.setattr(sequential, "_FFT_PRODUCTS", math.inf)
        assert max_abs_error(exit_probabilities(problem), by_fft) <= 1e-14

    def test_importing_the_package_leaves_scipy_fft_unloaded(self):
        # only lattices past _FFT_PRODUCTS need it, so the import is deferred to them
        src = Path(sequential.__file__).parents[1]
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, gsdelay, gsdelay.reports; print('scipy.fft' in sys.modules)"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True,
        )
        assert result.stdout == "False\n"
