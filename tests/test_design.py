import dataclasses
import math
import sys

import numpy as np
import pytest

from gsdelay import design as design_module
from gsdelay import sequential
from gsdelay.boundaries import BoundarySet, FutilityStyle, HwangShihDeCani, WangTsiatis
from gsdelay.design import (
    DesignSpec,
    GroupSequentialDesign,
    build_design,
    round_for_report,
    single_stage_n,
)
from gsdelay.errors import ConfigError, SolveError
from gsdelay.sequential import normal_quantile
from conftest import exit_at


def wt_spec(K, **kwargs):
    base = dict(alpha=0.05, beta=0.1, tau=0.5, num_stages=K, family=WangTsiatis(0.25))
    base.update(kwargs)
    return DesignSpec(**base)


class TestSingleStageN:
    def test_reference_sizes(self):
        assert single_stage_n(0.05, 0.1, 0.5) == pytest.approx(137.02, abs=0.02)
        assert single_stage_n(0.025, 0.1, 0.5) == pytest.approx(168.12, abs=0.02)
        assert single_stage_n(0.025, 0.2, 0.4) == pytest.approx(196.2, abs=0.3)

    def test_rejects_non_positive_effect(self):
        with pytest.raises(ConfigError):
            single_stage_n(0.05, 0.1, 0.0)

    @pytest.mark.parametrize("r", [0.25, 0.5, 1.0, 2.0, 3.0])
    def test_drift_at_the_single_stage_size(self, r):
        # at unit variances the information of n = n0 + n1 with n1 = r * n0 is
        # 1 / (1/n0 + 1/n1), and at the single-look size the drift is
        # z_{1-alpha} + z_{1-beta}
        n = single_stage_n(0.05, 0.1, 0.5, r)
        info = wt_spec(2, allocation=r).information_for_total(n)
        n0, n1 = n / (1.0 + r), r * n / (1.0 + r)
        assert info == pytest.approx(1.0 / (1.0 / n0 + 1.0 / n1), rel=1e-12)
        z = -(normal_quantile(0.05) + normal_quantile(0.1))
        assert 0.5 * math.sqrt(info) == pytest.approx(z, rel=1e-12)


class TestBuildDesign:
    def test_single_stage_identity(self):
        design = build_design(wt_spec(1))
        assert design.max_n == pytest.approx(design.n_single, abs=1e-6)
        assert design.ess == pytest.approx(design.n_single, abs=1e-6)
        assert design.eg == pytest.approx(0.0, abs=1e-9)

    def test_reference_two_stage(self, table_design):
        design = table_design(2)
        assert design.max_n == pytest.approx(145.05, abs=0.2)
        assert design.ess == pytest.approx(105.84, abs=0.2)

    def test_reference_five_stage(self, table_design):
        design = table_design(5)
        assert design.max_n == pytest.approx(185.23, abs=0.3)
        assert design.ess == pytest.approx(95.09, abs=0.3)

    def test_ess_ordering_across_stage_counts(self, table_design):
        ess = [table_design(K).ess for K in (2, 3, 4, 5)]
        assert all(a > b for a, b in zip(ess, ess[1:]))
        assert [round(e, 2) for e in ess] == [105.84, 98.74, 95.98, 95.1]

    @pytest.mark.parametrize(
        "family", [WangTsiatis(0.25), WangTsiatis(0.0), HwangShihDeCani(-2.0)]
    )
    @pytest.mark.parametrize("style", list(FutilityStyle))
    def test_level_and_power_identities(self, family, style):
        spec = wt_spec(3, family=family, futility=style)
        design = build_design(spec)
        assert exit_at(design, 0.0).total_reject == pytest.approx(spec.alpha, abs=1e-6)
        assert exit_at(design, spec.tau).total_reject == pytest.approx(1 - spec.beta, abs=1e-6)

    def test_information_is_quarter_total_at_unit_variances(self, table_design):
        design = table_design(4)
        for info, n in zip(design.info_levels, design.stage_n):
            assert info == pytest.approx(n / 4.0, abs=1e-10)

    def test_unequal_allocation_information(self):
        spec = wt_spec(2, allocation=2.0)
        design = build_design(spec)
        n0 = np.asarray(design.control_n)
        n1 = np.asarray(design.experimental_n)
        assert np.allclose(n1, 2.0 * n0)
        expected = 1.0 / (1.0 / n0[-1] + 1.0 / n1[-1])
        assert design.info_levels[-1] == pytest.approx(expected, rel=1e-12)
        assert exit_at(design, spec.tau).total_reject == pytest.approx(0.9, abs=1e-6)

    def test_ess_never_exceeds_max(self, table_design):
        for K in (2, 3, 4, 5):
            design = table_design(K)
            assert design.ess <= design.max_n
            assert design.ess < design.n_single

    def test_max_size_exceeds_single_stage_with_binding_futility(self, table_design):
        for K in (2, 3, 4, 5):
            design = table_design(K)
            assert design.max_n > design.n_single

    def test_unattainable_power_floor(self):
        with pytest.raises(SolveError, match="floor"):
            build_design(wt_spec(2, beta=0.96))

    def test_power_beyond_the_inflation_cap_is_refused_at_the_cap(self, monkeypatch):
        # the binding futility bound at 1% of the information accepts with
        # probability Phi(-0.1 eta) > 1e-30 at every eta up to sqrt(50) eta_ref
        seen = []
        tilt = sequential._Tilt.__call__

        def recording(self, eta):
            seen.append(eta)
            return tilt(self, eta)

        monkeypatch.setattr(sequential._Tilt, "__call__", recording)
        with pytest.raises(SolveError, match=r"^power 1.0 unattainable below 50.0x the single-stage size$"):
            build_design(wt_spec(2, beta=1e-30, info_fractions=(0.01, 1.0)))
        eta_ref = -(normal_quantile(0.05) + normal_quantile(1e-30))
        # the search evaluates the end it found past every step before refusing
        assert max(seen) == pytest.approx(math.sqrt(50.0) * eta_ref, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.96, 0.999])
    def test_power_below_the_level_is_refused_before_any_solve(self, monkeypatch, beta):
        calls = []
        monkeypatch.setattr(design_module, "build_boundaries", lambda *a: calls.append("solve"))
        monkeypatch.setattr(sequential._Tilt, "__call__", lambda *a: calls.append("tilt"))
        with pytest.raises(SolveError, match="below the attainable floor"):
            build_design(wt_spec(2, beta=beta))
        assert calls == []

    @pytest.mark.parametrize("gamma", [-50.0, -100.0])
    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.55])
    @pytest.mark.parametrize("alpha", [0.05, 0.2])
    def test_near_single_stage_designs(self, alpha, beta, K, gamma):
        # the early bounds spend almost nothing, so the power at the
        # single-stage eta can round above its target; the root then lies
        # in [0, eta_ref]
        for style in FutilityStyle:
            spec = wt_spec(K, alpha=alpha, beta=beta, family=HwangShihDeCani(gamma), futility=style)
            built = build_design(spec)
            assert exit_at(built, 0.0).total_reject == pytest.approx(alpha, abs=1e-6)
            assert exit_at(built, spec.tau).total_reject == pytest.approx(1 - beta, abs=1e-6)

    def test_power_equal_to_the_level_has_no_single_stage_size(self):
        # z_{0.75} + z_{0.25} is exactly zero
        with pytest.raises(ConfigError, match="single-stage size is zero"):
            build_design(wt_spec(3, alpha=0.25, beta=0.75))

    def test_power_near_one_keeps_its_precision(self):
        # the probit of a rejection probability of 1 - 1e-12 has about four digits
        spec = wt_spec(5, beta=1e-12)
        design = build_design(spec)
        assert design.max_n == pytest.approx(build_design(spec, nodes=1201).max_n, rel=1e-9)
        assert sum(design.exit.accept_per_stage) == pytest.approx(1e-12, rel=1e-6)

    def test_vanishing_type_ii_error(self):
        # 1 - 1e-300 rounds to 1, so the search runs on the accept probabilities
        design = build_design(wt_spec(5, beta=1e-300))
        assert sum(design.exit.accept_per_stage) == pytest.approx(1e-300, rel=1e-6)
        assert design.max_n > build_design(wt_spec(5, beta=1e-12)).max_n

    @pytest.mark.parametrize("beta", [5e-324, 1e-310])
    def test_type_ii_error_below_the_normal_range_is_refused(self, beta):
        # the accept probabilities would all underflow to 0, leaving n_max unfixed
        with pytest.raises(ConfigError, match=f"^beta = {beta!r} must lie in"):
            wt_spec(5, beta=beta)

    def test_smallest_normal_type_ii_error_is_accepted(self):
        assert wt_spec(5, beta=sys.float_info.min).beta == sys.float_info.min
        assert build_design(wt_spec(5, beta=1e-300)).max_n == pytest.approx(109_799, rel=1e-5)

    def test_mu_eval_defaults_to_tau(self):
        spec = wt_spec(2)
        assert spec.evaluation_effect == spec.tau
        spec = wt_spec(2, mu_eval=0.2)
        assert spec.evaluation_effect == 0.2

    def test_rejects_bad_ranges(self):
        with pytest.raises(ConfigError):
            wt_spec(2, alpha=0.6)
        with pytest.raises(ConfigError):
            wt_spec(0)
        with pytest.raises(ConfigError):
            wt_spec(2, info_fractions=(0.5, 0.9))
        with pytest.raises(ConfigError):
            wt_spec(3, info_fractions=(0.5, 1.0))

    @pytest.mark.parametrize("kwargs", [dict(tau=1e-300), dict(tau=1e-150, allocation=1e-200)])
    def test_rejects_sizes_that_overflow(self, kwargs):
        with pytest.raises(ConfigError, match="tau is too small"):
            wt_spec(2, **kwargs)


class TestNullTables:
    """The boundary solve's null-pass tables ride on the design without changing its identity."""

    @pytest.mark.parametrize("family", [WangTsiatis(0.25), HwangShihDeCani(-2.0)])
    def test_two_builds_compare_and_hash_equal(self, family):
        first, second = (build_design(wt_spec(4, family=family)) for _ in range(2))
        assert first.boundaries._null_tables and second.boundaries._null_tables
        assert first == second and hash(first) == hash(second)
        assert (first.max_n, first.ess, first.boundaries, first.exit) == (
            second.max_n, second.ess, second.boundaries, second.exit
        )

    def test_repr_shows_no_arrays(self):
        design = build_design(wt_spec(3))
        assert "array" not in repr(design.boundaries)
        assert "_null_tables" not in repr(design)

    def test_hand_built_boundaries(self):
        design = build_design(wt_spec(3))
        solved = design.boundaries
        hand_built = BoundarySet(solved.efficacy, solved.futility, solved.achieved_alpha)
        assert hand_built == solved and hash(hand_built) == hash(solved)
        redesigned = dataclasses.replace(design, boundaries=hand_built)
        assert redesigned == design
        assert exit_at(redesigned, 0.5).total_reject == pytest.approx(0.9, abs=1e-6)


NON_FINITE_OR_ZERO = [math.nan, math.inf, -math.inf, 0.0]
SIZING_FIELDS = ["alpha", "beta", "tau", "allocation"]


class TestRangeRules:
    """Each input is checked once, at construction, by a rule that names the field."""

    @pytest.mark.parametrize("value", NON_FINITE_OR_ZERO)
    @pytest.mark.parametrize("field", SIZING_FIELDS)
    def test_design_spec_names_the_field(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} = "):
            wt_spec(3, **{field: value})

    @pytest.mark.parametrize("value", NON_FINITE_OR_ZERO)
    @pytest.mark.parametrize("field", SIZING_FIELDS)
    def test_single_stage_n_names_the_field(self, field, value):
        args = dict(alpha=0.05, beta=0.1, tau=0.5, allocation=1.0)
        with pytest.raises(ConfigError, match=f"^{field} = "):
            single_stage_n(**{**args, field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_evaluation_effect_must_be_finite(self, value):
        with pytest.raises(ConfigError, match="^mu_eval = "):
            wt_spec(3, mu_eval=value)

    @pytest.mark.parametrize("K", [math.nan, math.inf, -math.inf, 0, 3.0])
    def test_stage_count_must_be_an_integer(self, K):
        with pytest.raises(ConfigError, match="stage count K"):
            wt_spec(K)

    def test_wrong_fraction_count(self):
        with pytest.raises(ConfigError, match="expected 3 information fractions, got 2"):
            wt_spec(3, info_fractions=(0.5, 1.0))


class TestEfficiencyGain:
    def test_single_stage_gain_is_zero(self):
        design = build_design(wt_spec(1))
        assert design.eg == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("family", [WangTsiatis(0.25), WangTsiatis(0.0), HwangShihDeCani(-2.0)])
    @pytest.mark.parametrize("style", list(FutilityStyle))
    @pytest.mark.parametrize("beta", [0.05, 0.1, 0.2])
    def test_single_look_is_the_single_stage_design(self, family, style, beta):
        design = build_design(wt_spec(1, beta=beta, tau=0.3, family=family, futility=style))
        assert design.max_n == design.n_single
        assert design.eg == 0.0

    def test_reference_ratios(self, table_design):
        assert table_design(2).eg == pytest.approx((137.02 - 105.84) / 137.02, abs=0.002)
        assert table_design(3).eg == pytest.approx((137.02 - 98.74) / 137.02, abs=0.002)


def fake_design(stage_n):
    return GroupSequentialDesign(
        spec=None,
        boundaries=None,
        n_single=0.0,
        max_n=stage_n[-1],
        stage_n=tuple(stage_n),
        control_n=(),
        experimental_n=(),
        info_levels=(),
        exit=None,
        ess=0.0,
        eg=0.0,
    )


class TestRoundForReport:
    def test_reference_rounding(self):
        assert round_for_report(fake_design((73.14, 146.28, 219.42))) == (74, 147, 220)

    def test_integers_pass_through(self):
        assert round_for_report(fake_design((50.0, 100.0, 150.0))) == (50, 100, 150)

    def test_monotone(self):
        assert round_for_report(fake_design((9.9, 10.05, 10.1))) == (10, 11, 11)

    def test_intro_example(self):
        spec = DesignSpec(
            alpha=0.025,
            beta=0.2,
            tau=0.4,
            num_stages=3,
            family=WangTsiatis(0.0),
            futility=FutilityStyle.NONE,
        )
        design = build_design(spec)
        rounded = round_for_report(design)
        for got, want in zip(rounded, (66, 134, 200)):
            assert abs(got - want) <= 1
        assert abs(round_for_report(fake_design((design.n_single,)))[0] - 196) <= 1
