import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdelay.boundaries import FutilityStyle, HwangShihDeCani, WangTsiatis
from gsdelay.delay import DelayQuery, assess_delay, efficiency_loss, ess_delay, expected_time
from gsdelay.design import DesignSpec, build_design
from gsdelay.errors import ConfigError
from gsdelay.recruitment import RecruitmentModel, pipeline_counts


def uniform_query(m, t_max=24.0, m_interim=0.0):
    return DelayQuery(m=m, model=RecruitmentModel.uniform(t_max), m_interim=m_interim)


class TestEssDelay:
    def test_no_delay_reproduces_ess_exactly(self, table_design):
        design = table_design(3)
        profile = pipeline_counts(design, RecruitmentModel.uniform(24.0), 0.0)
        assert ess_delay(design, profile) == design.ess

    def test_reference_values(self, table_design):
        two = table_design(2)
        profile = pipeline_counts(two, RecruitmentModel.uniform(24.0), 3.0)
        assert ess_delay(two, profile) == pytest.approx(115.64, abs=0.2)
        three = table_design(3)
        profile = pipeline_counts(three, RecruitmentModel.uniform(24.0), 6.0)
        assert ess_delay(three, profile) == pytest.approx(128.47, abs=0.3)

    def test_bounded_by_ess_and_max(self, table_design):
        design = table_design(5)
        for m in (0.0, 3.0, 12.0, 40.0):
            profile = pipeline_counts(design, RecruitmentModel.linear(24.0), m)
            value = ess_delay(design, profile)
            assert design.ess - 1e-9 <= value <= design.max_n + 1e-9

    @given(
        K=st.integers(2, 8),
        family=st.one_of(
            st.floats(0.0, 0.5).map(WangTsiatis), st.floats(-4.0, 1.0).map(HwangShihDeCani)
        ),
        style=st.sampled_from(list(FutilityStyle)),
        alpha=st.sampled_from([0.025, 0.05]),
        beta=st.sampled_from([0.1, 0.2]),
        ramp=st.floats(0.05, 1.0),
        m=st.floats(0.0, 48.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_stages_sum_to_one_and_bound_ess_delay(self, K, family, style, alpha, beta, ramp, m):
        # quadrature error once made the stops sum to 1 + 2e-8, and ess_delay
        # then exceeded n_max; the last ulps allow for the dot products
        spec = DesignSpec(alpha=alpha, beta=beta, tau=0.5, num_stages=K, family=family, futility=style)
        design = build_design(spec)
        assert abs(sum(design.exit.stop_per_stage) - 1.0) <= 1e-12
        value = ess_delay(design, pipeline_counts(design, RecruitmentModel.mixed(24.0, ramp), m))
        assert design.ess <= value <= design.max_n * (1.0 + 1e-12)

    def test_dimension_mismatch(self, table_design):
        profile = pipeline_counts(table_design(2), RecruitmentModel.uniform(24.0), 3.0)
        with pytest.raises(ConfigError):
            ess_delay(table_design(3), profile)


class TestEfficiencyLoss:
    def test_zero_delay_is_zero_loss(self, table_design):
        design = table_design(4)
        profile = pipeline_counts(design, RecruitmentModel.uniform(24.0), 0.0)
        assert efficiency_loss(design, profile) == 0.0

    def test_reference_values(self, table_design):
        two = table_design(2)
        profile = pipeline_counts(two, RecruitmentModel.uniform(24.0), 3.0)
        assert efficiency_loss(two, profile) == pytest.approx(31.44, abs=0.5)
        five = table_design(5)
        profile = pipeline_counts(five, RecruitmentModel.uniform(24.0), 24.0)
        assert efficiency_loss(five, profile) == pytest.approx(214.87, abs=1.0)

    def test_no_gain_reports_none(self):
        design = build_design(DesignSpec(alpha=0.05, beta=0.1, tau=0.5, num_stages=1))
        profile = pipeline_counts(design, RecruitmentModel.uniform(24.0), 6.0)
        assert design.eg == pytest.approx(0.0, abs=1e-9)
        assert efficiency_loss(design, profile) is None

    def test_loss_can_exceed_hundred(self, table_design):
        design = table_design(2)
        profile = pipeline_counts(design, RecruitmentModel.uniform(24.0), 12.0)
        assert efficiency_loss(design, profile) > 100.0


class TestExpectedTime:
    def test_uniform_identity(self, table_design):
        design = table_design(2)
        for m in (0.0, 6.0, 13.5):
            et, t_single, et_single = expected_time(design, uniform_query(m))
            assert et == pytest.approx(m + 24.0 / design.max_n * design.ess, abs=1e-9)
            assert t_single == pytest.approx(design.n_single * 24.0 / design.max_n, abs=1e-12)
            assert et_single == t_single + m

    def test_reference_value(self, table_design):
        # 6 + (24 / 145.05) * 105.84
        et, _, _ = expected_time(table_design(2), uniform_query(6.0))
        assert et == pytest.approx(23.51, abs=0.02)

    def test_interim_overhead_adds_once(self, table_design):
        design = table_design(3)
        base, _, base_single = expected_time(design, uniform_query(6.0))
        offset, _, offset_single = expected_time(design, uniform_query(6.0, m_interim=2.0))
        assert offset == pytest.approx(base + 2.0, abs=1e-12)
        assert offset_single == base_single

    def test_design_beats_single_stage(self, table_design):
        for K in (2, 3, 4, 5):
            design = table_design(K)
            for m in range(0, 25):
                et, _, et_single = expected_time(design, uniform_query(float(m)))
                assert et < et_single

    def test_linear_recruitment_time(self, table_design):
        design = table_design(3)
        query = DelayQuery(m=3.0, model=RecruitmentModel.linear(24.0))
        et, _, _ = expected_time(design, query)
        stop = design.exit.stop_per_stage
        # linear recruitment reaches stage sizes later than uniform early on
        assert et > 3.0 + sum(s * n * 24.0 / design.max_n for s, n in zip(stop, design.stage_n)) - 1e-9


class TestRecruitmentOrdering:
    def test_mixed_loss_at_least_uniform(self, table_design):
        for K in (2, 3, 4, 5):
            design = table_design(K)
            for m in (3.0, 6.0, 9.0, 12.0, 18.0, 24.0):
                uni = assess_delay(design, uniform_query(m)).el
                for l in (0.2, 0.4, 0.6, 0.8):
                    query = DelayQuery(m=m, model=RecruitmentModel.mixed(24.0, l))
                    assert assess_delay(design, query).el >= uni - 1e-9

    def test_steep_ramp_can_beat_pure_linear(self, table_design):
        # a ramp calibrated to finish in 0.8 of the period is steeper than the
        # full-period one, so its loss can slightly exceed the linear case
        design = table_design(5)
        lin = assess_delay(design, DelayQuery(m=3.0, model=RecruitmentModel.linear(24.0))).el
        steep = assess_delay(design, DelayQuery(m=3.0, model=RecruitmentModel.mixed(24.0, 0.8))).el
        assert steep > lin


class TestAssessDelay:
    def test_aggregates_consistently(self, table_design):
        design = table_design(3)
        assessment = assess_delay(design, uniform_query(6.0))
        assert assessment.eg == design.eg
        expected_loss = 100.0 * (assessment.eg - assessment.eg_delay) / assessment.eg
        assert assessment.el == pytest.approx(expected_loss, abs=1e-12)
        assert assessment.ess_delay == ess_delay(design, assessment.profile)

    def test_rejects_negative_delay(self):
        with pytest.raises(ConfigError):
            DelayQuery(m=-1.0, model=RecruitmentModel.uniform(24.0))
        with pytest.raises(ConfigError):
            DelayQuery(m=1.0, model=RecruitmentModel.uniform(24.0), m_interim=-0.5)

    @pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_delay(self, m):
        with pytest.raises(ConfigError, match="finite"):
            DelayQuery(m=m, model=RecruitmentModel.uniform(24.0))

    @pytest.mark.parametrize("m_interim", [math.nan, math.inf])
    def test_rejects_non_finite_interim_overhead(self, m_interim):
        with pytest.raises(ConfigError, match="finite"):
            DelayQuery(m=1.0, model=RecruitmentModel.uniform(24.0), m_interim=m_interim)


def _boundary_ordering_failures(futility):
    """The (K, m) cells where EL(Pocock) >= EL(WT 0.25) >= EL(OBF) fails, and where Pocock < OBF.

    The paper's setting: alpha 0.05, beta 0.1, tau 0.5, uniform recruitment
    over 24 months, delays of 1..24 months, K = 2..5.
    """
    full, pocock_below_obf = set(), set()
    for K in range(2, 6):
        designs = [
            build_design(DesignSpec(alpha=0.05, beta=0.1, tau=0.5, num_stages=K,
                                    family=WangTsiatis(shape), futility=futility))
            for shape in (0.5, 0.25, 0.0)
        ]
        for m in range(1, 25):
            pocock, wt, obf = (assess_delay(d, uniform_query(float(m))).el for d in designs)
            if not pocock >= wt >= obf:
                full.add((K, m))
            if not pocock >= obf:
                pocock_below_obf.add((K, m))
    return full, pocock_below_obf


def test_paper_ordering_of_losses_as_measured():
    """Pocock loses most and OBF least only in part of the paper's grid.

    With no futility bound Pocock always loses at least as much as OBF, and
    the full ordering through WT 0.25 holds for every K from m = 11; below
    that WT 0.25 loses less than OBF at K >= 3. A binding bound at zero
    breaks the ordering far more often, at every delay for K = 4 and 5.
    """
    full, pocock_below_obf = _boundary_ordering_failures(FutilityStyle.NONE)
    assert not pocock_below_obf
    assert len(full) == 29
    assert all(m <= 10 and K >= 3 for K, m in full)

    full, _ = _boundary_ordering_failures(FutilityStyle.BINDING_ZERO)
    assert len(full) == 61
    assert {(K, m) for K in (4, 5) for m in range(1, 25)} <= full
