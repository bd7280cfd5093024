import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from gsdelay import boundaries, design, sequential
from gsdelay.boundaries import (
    FutilityStyle,
    HwangShihDeCani,
    WangTsiatis,
    build_boundaries,
    hsd_spend,
    spending_boundaries,
    wt_boundaries,
)
from gsdelay.errors import ConfigError, SolveError
from gsdelay.sequential import SequentialProblem, exit_probabilities, normal_quantile
from conftest import exit_at
from zgrid_reference import zgrid_spending_boundaries

EQUAL_3 = (1 / 3, 2 / 3, 1.0)


def rejection_at_zero(rho, bounds):
    problem = SequentialProblem(tuple(rho), 0.0, bounds.efficacy, bounds.futility)
    return exit_probabilities(problem).total_reject


class TestWangTsiatis:
    def test_single_stage_is_the_normal_quantile(self):
        bounds = wt_boundaries(1, (1.0,), 0.25, 0.05)
        assert bounds.efficacy[0] == pytest.approx(normal_quantile(0.95), abs=1e-9)

    def test_pocock_shape_is_constant(self):
        bounds = wt_boundaries(2, (0.5, 1.0), 0.5, 0.05)
        assert bounds.efficacy[0] == pytest.approx(bounds.efficacy[1], abs=1e-12)

    def test_obf_shape_scales_with_root_fraction(self):
        bounds = wt_boundaries(4, (0.25, 0.5, 0.75, 1.0), 0.0, 0.025)
        scaled = [e * np.sqrt(r) for e, r in zip(bounds.efficacy, (0.25, 0.5, 0.75, 1.0))]
        assert max(scaled) - min(scaled) < 1e-10

    @pytest.mark.parametrize("shape", [0.0, 0.25, 0.5])
    def test_shape_invariant(self, shape):
        rho = (0.2, 0.55, 1.0)
        bounds = wt_boundaries(3, rho, shape, 0.05)
        scaled = [e * r ** (0.5 - shape) for e, r in zip(bounds.efficacy, rho)]
        assert max(scaled) - min(scaled) < 1e-10

    @pytest.mark.parametrize("style", list(FutilityStyle))
    def test_level_attained(self, style):
        bounds = wt_boundaries(3, EQUAL_3, 0.25, 0.05, style)
        assert bounds.achieved_alpha == pytest.approx(0.05, abs=1e-6)
        assert rejection_at_zero(EQUAL_3, bounds) == pytest.approx(0.05, abs=1e-6)

    def test_futility_styles_shape_the_lower_bounds(self):
        zero = wt_boundaries(3, EQUAL_3, 0.25, 0.05, FutilityStyle.BINDING_ZERO)
        assert zero.futility[:2] == (0.0, 0.0)
        sym = wt_boundaries(3, EQUAL_3, 0.25, 0.05, FutilityStyle.SYMMETRIC)
        assert sym.futility[0] == -sym.efficacy[0]
        none = wt_boundaries(3, EQUAL_3, 0.25, 0.05, FutilityStyle.NONE)
        assert none.futility[0] == -np.inf
        for bounds in (zero, sym, none):
            assert bounds.futility[-1] == bounds.efficacy[-1]

    # Jennison & Turnbull (2000), Table 2.1: two-sided level 0.05 with equal
    # group sizes, i.e. one-sided 0.025 with the symmetric binding lower bound
    @pytest.mark.parametrize(
        "shape, K, published",
        [(0.5, 2, 2.178), (0.5, 3, 2.289), (0.5, 4, 2.361), (0.5, 5, 2.413),
         (0.0, 2, 1.977), (0.0, 3, 2.004), (0.0, 4, 2.024), (0.0, 5, 2.040)],
    )
    def test_published_pocock_and_obf_constants(self, shape, K, published):
        rho = tuple((k + 1) / K for k in range(K))
        bounds = wt_boundaries(K, rho, shape, 0.025, FutilityStyle.SYMMETRIC)
        assert abs(bounds.efficacy[-1] - published) <= 5e-4

    def test_unbracketed_constant_is_a_config_error(self):
        # needs a critical value beyond the cap of 10
        with pytest.raises(ConfigError, match="alpha"):
            wt_boundaries(3, EQUAL_3, 0.25, 1e-25)

    def test_single_stage_level_beyond_the_bracket_is_a_config_error(self):
        # the true C is z_{1 - 1e-25} = 10.4; an upper tail formed as
        # 1 - ndtr(c) underflowed and made C = 8.29 look like a root
        with pytest.raises(ConfigError, match="alpha"):
            wt_boundaries(1, (1.0,), 0.25, 1e-25)

    def test_stage_one_end_above_the_cap_is_a_config_error(self, monkeypatch):
        # rho_1^2.5 = 0.064, so the stage-1 end 0.999 z_{0.975} / 0.064 is
        # about 30: the search is refused before any density recursion
        calls = []
        monkeypatch.setattr(boundaries, "exit_probabilities", lambda *a, **k: calls.append(a))
        with pytest.raises(ConfigError, match="^no Wang-Tsiatis constant up to 10 attains alpha=0.025$"):
            wt_boundaries(3, EQUAL_3, 3.0, 0.025)
        assert calls == []

    @pytest.mark.parametrize("alpha", [0.45, 0.47, 0.49, 0.499])
    @pytest.mark.parametrize("K", [1, 2, 3, 5])
    def test_level_near_one_half_is_attained(self, K, alpha):
        # the bracket's lower end, stage-1 rejection at 0.999 z_{1-alpha}, is
        # near zero here, just below the start at z_{1-alpha/K} over the mean scale
        rho = tuple((k + 1) / K for k in range(K))
        for shape in (0.0, 0.25, 0.5):
            for style in FutilityStyle:
                bounds = wt_boundaries(K, rho, shape, alpha, style)
                assert bounds.achieved_alpha == pytest.approx(alpha, rel=1e-8)
                assert rejection_at_zero(rho, bounds) == pytest.approx(alpha, rel=1e-8)

    @pytest.mark.parametrize("shape", [-1000.0, 1000.0, 1e308])
    def test_shape_that_overflows_the_bounds_is_a_config_error(self, shape):
        # rho^(shape - 1/2) is infinite or zero at the first fraction; numpy
        # warnings are errors under the test settings, so none is raised
        with pytest.raises(ConfigError, match="puts a bound outside the float range"):
            wt_boundaries(3, EQUAL_3, shape, 0.05)

    def test_bad_fractions_rejected(self):
        with pytest.raises(ConfigError):
            wt_boundaries(2, (0.7, 0.6), 0.25, 0.05)
        with pytest.raises(ConfigError):
            wt_boundaries(2, (0.5, 0.9), 0.25, 0.05)


@pytest.mark.parametrize("solve", [wt_boundaries, spending_boundaries])
class TestSolverRangeRules:
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 0.0, 0.5])
    def test_alpha(self, solve, alpha):
        with pytest.raises(ConfigError, match="^alpha = "):
            solve(3, EQUAL_3, 0.25, alpha)

    @pytest.mark.parametrize("K", [0, 2, 3.0])
    def test_stage_count_and_fractions_agree(self, solve, K):
        with pytest.raises(ConfigError, match="stage count|expected"):
            solve(K, EQUAL_3, 0.25, 0.05)


class TestHsdSpend:
    def test_endpoints(self):
        assert hsd_spend(0.0, -2.0, 0.05) == 0.0
        assert hsd_spend(1.0, -2.0, 0.05) == pytest.approx(0.05, abs=1e-15)

    def test_midpoint_oracle(self):
        # frozen against a 50-digit evaluation of a(1-e^(-g t))/(1-e^(-g))
        assert hsd_spend(0.5, -2.0, 0.025) == pytest.approx(0.006723535534249878, abs=1e-12)

    def test_gamma_zero_is_linear(self):
        for t in (0.0, 0.3, 0.8, 1.0):
            assert hsd_spend(t, 0.0, 0.05) == pytest.approx(0.05 * t, abs=1e-15)

    def test_small_gamma_keeps_full_precision(self):
        # (1 - e^{-g t}) / (1 - e^{-g}) = t (1 + g (1 - t) / 2 + O(g^2))
        assert hsd_spend(0.25, 1e-12, 0.05) == pytest.approx(0.0125 * (1 + 3.75e-13), rel=1e-15)
        # a nearly linear schedule keeps every spend increment positive
        bounds = spending_boundaries(3, EQUAL_3, 2.2e-16, 0.25)
        assert bounds.achieved_alpha == pytest.approx(0.25, abs=1e-12)

    def test_gamma_too_close_to_zero_for_exp_is_linear(self):
        for gamma in (1e-38, -1e-20):
            assert hsd_spend(0.3, gamma, 0.05) == pytest.approx(0.015, abs=1e-15)

    def test_gamma_that_overflows_exp_rejected(self):
        with pytest.raises(ConfigError, match="gamma"):
            HwangShihDeCani(-1000.0)

    @pytest.mark.parametrize("gamma", [-1000.0, math.nan, math.inf])
    def test_spend_applies_the_gamma_rule(self, gamma):
        with pytest.raises(ConfigError, match="spending parameter gamma"):
            hsd_spend(0.5, gamma, 0.05)

    def test_spending_solve_applies_the_gamma_rule(self):
        with pytest.raises(ConfigError, match="spending parameter gamma"):
            spending_boundaries(3, EQUAL_3, math.nan, 0.05)

    def test_monotone_in_t(self):
        grid = [hsd_spend(t, -2.0, 0.05) for t in np.linspace(0, 1, 21)]
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigError):
            hsd_spend(1.2, -2.0, 0.05)


class TestSpendingBoundaries:
    def test_single_stage(self):
        bounds = spending_boundaries(1, (1.0,), -2.0, 0.05)
        assert bounds.efficacy[0] == pytest.approx(normal_quantile(0.95), abs=1e-9)

    def test_a_stage_that_spends_nothing_is_named(self):
        # at gamma = 700 the schedule rounds to alpha by the first look
        with pytest.raises(
            ConfigError, match="^gamma = 700 spends no alpha at stage 2: every stage must spend some$"
        ):
            spending_boundaries(3, EQUAL_3, 700.0, 0.05)

    @pytest.mark.parametrize("style", list(FutilityStyle))
    def test_cumulative_crossing_matches_the_schedule(self, style):
        rho = EQUAL_3
        gamma = -2.0
        bounds = spending_boundaries(3, rho, gamma, 0.05, style)
        problem = SequentialProblem(tuple(rho), 0.0, bounds.efficacy, bounds.futility)
        reject = exit_probabilities(problem).reject_per_stage
        for k, t in enumerate(rho):
            assert sum(reject[: k + 1]) == pytest.approx(hsd_spend(t, gamma, 0.05), abs=1e-6)

    def test_symmetric_mirror_under_zero_drift(self):
        bounds = spending_boundaries(3, (0.6, 0.9, 1.0), -2.0, 0.05, FutilityStyle.SYMMETRIC)
        assert bounds.futility[0] == -bounds.efficacy[0]
        below = ndtr(bounds.futility[0])
        above = 1.0 - ndtr(bounds.efficacy[0])
        assert below == pytest.approx(above, abs=1e-12)

    @pytest.mark.parametrize("gamma", [-100.0, -300.0, -700.0])
    @pytest.mark.parametrize("K", [2, 3, 5])
    def test_steep_schedule_solves(self, K, gamma):
        # the early increments lie far below Phi(-12): the bracket's top
        # rises to 1.001 z_{1-d} for each stage's increment d
        for style in FutilityStyle:
            spec = design.DesignSpec(0.05, 0.1, 0.5, K, HwangShihDeCani(gamma), style)
            built = design.build_design(spec)
            assert exit_at(built, 0.0).total_reject == pytest.approx(0.05, abs=1e-6)
            assert exit_at(built, spec.tau).total_reject == pytest.approx(0.9, abs=1e-6)

    @pytest.mark.parametrize("style", list(FutilityStyle))
    @pytest.mark.parametrize("gamma", [30.0, 40.0])
    def test_each_stage_spends_its_own_increment(self, gamma, style):
        # the last increments (down to 1.7e-17 at gamma 40) lie below the
        # rounding of the running total, so each stage matches its own
        # increment rather than a cumulative target
        K, alpha = 8, 0.025
        rho = tuple((k + 1) / K for k in range(K))
        increments = np.diff([0.0] + [hsd_spend(t, gamma, alpha) for t in rho[:-1]] + [alpha])
        bounds = spending_boundaries(K, rho, gamma, alpha, style)
        problem = SequentialProblem(rho, 0.0, bounds.efficacy, bounds.futility)
        reject = exit_probabilities(problem).reject_per_stage
        assert np.all(np.abs(np.array(reject) / increments - 1.0) <= 1e-9)

    def test_unbracketed_stage_is_a_solve_error(self):
        # gamma -700 spends almost all of alpha = 0.45 at the last look, more
        # than the few trials the binding futility bounds let reach it
        with pytest.raises(SolveError, match=r"^stage 3 spending bound not bracketed in \[-4.0, 12.0\]$"):
            spending_boundaries(3, EQUAL_3, -700.0, 0.45, FutilityStyle.BINDING_ZERO)

    def test_dispatch(self):
        wt = build_boundaries(WangTsiatis(0.25), 3, EQUAL_3, 0.05, FutilityStyle.BINDING_ZERO)
        hsd = build_boundaries(HwangShihDeCani(-2.0), 3, EQUAL_3, 0.05, FutilityStyle.BINDING_ZERO)
        assert wt.achieved_alpha == pytest.approx(0.05, abs=1e-6)
        assert hsd.achieved_alpha == pytest.approx(0.05, abs=1e-6)
        assert wt.efficacy != hsd.efficacy


# The worst error of the 301-node z-grid solve against the 1201-node one,
# over the efficacy bounds and the attained level: 1.23e-4 on two samples of
# 3000 schedules from the hypothesis space of
# test_within_z_grid_error_of_fine_reference (the lattice's worst against the
# same reference, on the second sample, was 1.9e-7), and 8.1e-8 on the three
# schedules of test_default_nodes_accuracy (the lattice's worst there is
# 3.2e-10).
ZGRID_301_WORST_SOLVE_ERROR = 1.24e-4
ZGRID_301_DEFAULT_SCHEDULE_ERROR = 8.2e-8


def solve_error(bounds, expected):
    efficacy, achieved = expected
    return max(max(abs(a - b) for a, b in zip(bounds.efficacy, efficacy)),
               abs(bounds.achieved_alpha - achieved))


class TestAgainstReferenceSpendingSolve:
    @given(
        K=st.integers(1, 10),
        gaps=st.lists(st.floats(0.01, 1.0), min_size=10, max_size=10),
        gamma=st.floats(-6.0, 3.0),
        alpha=st.floats(0.005, 0.25),
        style=st.sampled_from(list(FutilityStyle)),
    )
    @settings(max_examples=60, deadline=None)
    def test_within_z_grid_error_of_fine_reference(self, K, gaps, gamma, alpha, style):
        rho = np.cumsum(gaps[:K]) / sum(gaps[:K])
        rho[-1] = 1.0
        assume(np.all(np.diff(rho) > 0))
        expected = zgrid_spending_boundaries(K, rho, gamma, alpha, style, 1201)
        try:
            bounds = spending_boundaries(K, rho, gamma, alpha, style)
        except (ConfigError, SolveError) as exc:
            assert expected is type(exc)
            return
        assert isinstance(expected, tuple)
        assert solve_error(bounds, expected) <= ZGRID_301_WORST_SOLVE_ERROR

    @pytest.mark.parametrize("style", list(FutilityStyle))
    def test_default_nodes_accuracy(self, style):
        rho = np.array([0.2, 0.45, 0.7, 0.85, 1.0])
        expected = zgrid_spending_boundaries(5, rho, -2.0, 0.025, style, 1201)
        bounds = spending_boundaries(5, rho, -2.0, 0.025, style)
        assert solve_error(bounds, expected) <= ZGRID_301_DEFAULT_SCHEDULE_ERROR

    @pytest.mark.parametrize("style", list(FutilityStyle))
    @pytest.mark.parametrize("gamma", [30.0, 40.0])
    def test_steep_schedules(self, gamma, style):
        # the last increments of these schedules lie near the rounding of the
        # cumulative spend, so each stage must match its own increment
        rho = np.arange(1, 9) / 8
        expected = zgrid_spending_boundaries(8, rho, gamma, 0.025, style, 1201)
        bounds = spending_boundaries(8, rho, gamma, 0.025, style)
        assert solve_error(bounds, expected) <= ZGRID_301_WORST_SOLVE_ERROR

    def test_empty_continuation_leaves_the_next_stage_unbracketed(self):
        # spending almost all of alpha = 0.49 by the second look needs e_2 < 0,
        # below the binding futility bound at zero, so no trial would reach
        # stage 3; the solve names that cause rather than the failed bracket
        with pytest.raises(SolveError, match="e_2 = -[0-9.e-]+ below its futility bound f_2 = 0"):
            spending_boundaries(3, EQUAL_3, 4.0, 0.49, FutilityStyle.BINDING_ZERO)
        assert zgrid_spending_boundaries(
            3, np.array(EQUAL_3), 4.0, 0.49, FutilityStyle.BINDING_ZERO, 301
        ) is SolveError


BUDGET_FAMILIES = [WangTsiatis(0.0), WangTsiatis(0.5), HwangShihDeCani(-4.0), HwangShihDeCani(1.0)]
BUDGET_ALPHAS = [0.01, 0.025, 0.05, 0.1]


def budget_grid():
    """K 1-10, both families, every futility style, with the level cycling through BUDGET_ALPHAS."""
    for K in range(1, 11):
        for i, family in enumerate(BUDGET_FAMILIES):
            for j, style in enumerate(FutilityStyle):
                alpha = BUDGET_ALPHAS[(K + i + j) % len(BUDGET_ALPHAS)]
                yield design.DesignSpec(
                    alpha=alpha, beta=0.1, tau=0.5, num_stages=K, family=family, futility=style
                )


def test_recursion_budget(monkeypatch):
    """Search work per build over K 1-10, both families, every futility style.

    Counts density recursions per boundary solve, tilted evaluations per
    build with K > 1 and crossing integrals per Hwang-Shih-DeCani stage.
    """
    calls = {"boundaries": 0, "design": 0, "tilt": 0, "above": 0}

    def counting(key, original):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(boundaries, "exit_probabilities", counting("boundaries", exit_probabilities))
    monkeypatch.setattr(design, "exit_probabilities", counting("design", exit_probabilities))
    monkeypatch.setattr(sequential._Tilt, "__call__", counting("tilt", sequential._Tilt.__call__))
    monkeypatch.setattr(
        sequential._StageStepper, "above", counting("above", sequential._StageStepper.above)
    )
    worst = {"hsd": 0, "power": 0}
    wt, tilts, above = [], [], []
    for spec in budget_grid():
        calls.update(boundaries=0, design=0, tilt=0, above=0)
        design.build_design(spec)
        if isinstance(spec.family, WangTsiatis):
            wt.append(calls["boundaries"])
        else:
            worst["hsd"] = max(worst["hsd"], calls["boundaries"])
            above.append(calls["above"] / spec.num_stages)
        worst["power"] = max(worst["power"], calls["design"])
        if spec.num_stages > 1:
            tilts.append(calls["tilt"])
    assert worst["hsd"] <= 1
    assert worst["power"] <= 12
    # measured: 4.68 and 6 recursions per WT solve, 5.07 and 8 tilted
    # evaluations, 4.51 and 6.375 crossing integrals
    assert np.mean(wt) <= 4.75 and max(wt) <= 6
    assert np.mean(tilts) <= 5.1 and max(tilts) <= 8
    assert np.mean(above) <= 4.6 and max(above) <= 6.375


def test_power_search_makes_no_recursion(monkeypatch):
    """On the budget grid the power search and the final evaluation only tilt the null pass."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return exit_probabilities(*args, **kwargs)

    monkeypatch.setattr(design, "exit_probabilities", counting)
    for spec in budget_grid():
        design.build_design(spec)
    assert calls == []
