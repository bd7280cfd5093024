import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gsdelay.errors import ConfigError
from gsdelay.recruitment import (
    RecruitmentModel,
    accrual_curve,
    pipeline_counts,
    recruit_time,
    solve_delta,
)


class TestSolveDelta:
    def test_fully_linear_closed_form(self):
        # 2 * n_max / (t_max * (t_max + 1))
        assert solve_delta(145.05, 24.0, 1.0) == pytest.approx(2 * 145.05 / (24 * 25), rel=1e-12)
        assert solve_delta(145.05, 24.0, 1.0) == pytest.approx(0.48350, abs=1e-5)

    def test_short_ramp(self):
        # 145.05 / (0.5*4.8*5.8 + 4.8*0.8*24) = 145.05 / 106.08
        assert solve_delta(145.05, 24.0, 0.2) == pytest.approx(1.36736, abs=1e-5)

    def test_plateau_rate_consistency(self):
        # with a short ramp almost all recruitment happens at rate delta*l*t_max
        n_max, t_max, l = 500.0, 100.0, 0.05
        delta = solve_delta(n_max, t_max, l)
        assert delta * l * t_max * t_max == pytest.approx(n_max, rel=0.05)

    def test_warns_on_sub_month_ramp(self):
        with pytest.warns(UserWarning, match="ramp"):
            solve_delta(100.0, 10.0, 0.05)

    def test_rejects_a_period_whose_capacity_underflows(self):
        with pytest.raises(ConfigError, match="^t_max = 5e-324 is too short"):
            with pytest.warns(UserWarning, match="shorter than one month"):
                solve_delta(100.0, 5e-324, 1.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            solve_delta(-1.0, 24.0, 0.5)
        with pytest.raises(ConfigError):
            solve_delta(100.0, 24.0, 0.0)


class TestRangeRules:
    @pytest.mark.parametrize("t_max", [math.nan, math.inf, -math.inf, 0.0])
    def test_t_max(self, t_max):
        for build in (RecruitmentModel.uniform, RecruitmentModel.linear):
            with pytest.raises(ConfigError, match="^t_max = "):
                build(t_max)

    @pytest.mark.parametrize("l", [math.nan, math.inf, -math.inf, 0.0])
    def test_ramp_fraction(self, l):
        with pytest.raises(ConfigError, match="ramp fraction l = "):
            RecruitmentModel.mixed(24.0, l)
        with pytest.raises(ConfigError, match="ramp fraction l = "):
            solve_delta(100.0, 24.0, l)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    def test_solve_delta_sizes(self, value):
        with pytest.raises(ConfigError, match="^n_max = "):
            solve_delta(value, 24.0, 0.5)
        with pytest.raises(ConfigError, match="^t_max = "):
            solve_delta(100.0, value, 0.5)


class TestRecruitTime:
    def test_zero(self):
        for model in (RecruitmentModel.uniform(24.0), RecruitmentModel.linear(24.0)):
            assert recruit_time(0.0, 145.05, model) == 0.0

    def test_uniform_proportionality(self):
        model = RecruitmentModel.uniform(24.0)
        assert recruit_time(145.05 / 2, 145.05, model) == pytest.approx(12.0, abs=1e-12)

    def test_linear_quadratic_root(self):
        model = RecruitmentModel.linear(24.0)
        # (-1 + sqrt(1 + 8n/delta)) / 2 at n = 72.525, delta = 0.4835
        assert recruit_time(72.525, 145.05, model) == pytest.approx(16.8277, abs=1e-3)

    def test_full_period(self):
        for l in (1.0, 0.6, 0.2):
            model = RecruitmentModel.mixed(24.0, l)
            assert recruit_time(145.05, 145.05, model) == pytest.approx(24.0, abs=1e-9)
        model = RecruitmentModel.uniform(24.0)
        assert recruit_time(145.05, 145.05, model) == pytest.approx(24.0, abs=1e-12)

    def test_monotone_in_n(self):
        model = RecruitmentModel.mixed(24.0, 0.4)
        times = [recruit_time(n, 145.05, model) for n in np.linspace(0, 145.05, 30)]
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_rejects_overflow(self):
        with pytest.raises(ConfigError):
            recruit_time(146.0, 145.05, RecruitmentModel.uniform(24.0))


class TestModelValidation:
    def test_linear_alias(self):
        model = RecruitmentModel.linear(24.0)
        assert model.pattern == "mixed" and model.ramp_fraction == 1.0

    def test_rejects_bad_pattern(self):
        with pytest.raises(ConfigError):
            RecruitmentModel("poisson", 24.0)

    def test_rejects_bad_ramp(self):
        with pytest.raises(ConfigError):
            RecruitmentModel.mixed(24.0, 1.5)


class TestPipelineCounts:
    def test_uniform_reference_values(self, table_design):
        design = table_design(2)
        model = RecruitmentModel.uniform(24.0)
        three = pipeline_counts(design, model, 3.0)
        assert three.pipeline[0] == pytest.approx(18.13, abs=0.05)
        assert three.pipeline[1] == 0.0
        twelve = pipeline_counts(design, model, 12.0)
        # cap active: n_max - n_1
        assert twelve.pipeline[0] == pytest.approx(72.52, abs=0.05)
        assert twelve.pipeline[0] == design.max_n - design.stage_n[0]

    def test_linear_reference_value(self, table_design):
        design = table_design(2)
        profile = pipeline_counts(design, RecruitmentModel.linear(24.0), 3.0)
        assert profile.pipeline[0] == pytest.approx(27.31, abs=0.05)

    def test_zero_delay_means_no_pipeline(self, table_design):
        design = table_design(3)
        for model in (
            RecruitmentModel.uniform(24.0),
            RecruitmentModel.linear(24.0),
            RecruitmentModel.mixed(24.0, 0.4),
        ):
            assert pipeline_counts(design, model, 0.0).pipeline == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("l", [0.2, 0.4, 0.6, 0.8, 1.0])
    def test_bounds_and_final_stage(self, table_design, l):
        design = table_design(4)
        model = RecruitmentModel.mixed(24.0, l)
        for m in (0.0, 3.0, 9.0, 24.0, 60.0):
            profile = pipeline_counts(design, model, m)
            assert profile.pipeline[-1] == 0.0
            for k in range(4):
                assert 0.0 <= profile.pipeline[k] <= design.max_n - design.stage_n[k] + 1e-9

    def test_monotone_in_delay_until_cap(self, table_design):
        design = table_design(3)
        model = RecruitmentModel.mixed(24.0, 0.6)
        grid = np.arange(0.0, 30.5, 0.5)
        counts = [pipeline_counts(design, model, m).pipeline[0] for m in grid]
        cap = design.max_n - design.stage_n[0]
        for a, b in zip(counts, counts[1:]):
            assert b >= a - 1e-12
            if a >= cap - 1e-12:
                assert b == a

    def test_uniform_depends_only_on_delay_fraction(self, table_design):
        design = table_design(3)
        for c in (1.5, 2.0, 3.0):
            a = pipeline_counts(design, RecruitmentModel.uniform(24.0), 7.0)
            b = pipeline_counts(design, RecruitmentModel.uniform(24.0 * c), 7.0 * c)
            assert a.pipeline == pytest.approx(b.pipeline, abs=1e-9)

    def test_ramp_window_continuous_at_phase_boundary(self, table_design):
        # the ramp-only and straddling formulas agree exactly when the window
        # ends at the phase boundary
        design = table_design(3)
        model = RecruitmentModel.mixed(24.0, 0.6)
        ramp_end = 0.6 * 24.0
        t_1 = pipeline_counts(design, model, 0.0).recruit_times[0]
        m_star = ramp_end - t_1
        eps = 1e-7
        below = pipeline_counts(design, model, m_star - eps).pipeline[0]
        at = pipeline_counts(design, model, m_star).pipeline[0]
        assert at == pytest.approx(below, abs=1e-4)

    def test_linear_exceeds_uniform_early(self, table_design):
        # holds for K <= 4 on the whole grid; the first interim of a 5-stage
        # design falls before the ramp overtakes the average rate, so its m=3
        # count is genuinely below the uniform one (23.09 vs 23.15)
        for K in (2, 3, 4):
            design = table_design(K)
            for m in (3.0, 6.0, 9.0, 12.0):
                uni = pipeline_counts(design, RecruitmentModel.uniform(24.0), m)
                lin = pipeline_counts(design, RecruitmentModel.linear(24.0), m)
                assert lin.pipeline[0] >= uni.pipeline[0] - 1e-9
        five = table_design(5)
        uni = pipeline_counts(five, RecruitmentModel.uniform(24.0), 3.0)
        lin = pipeline_counts(five, RecruitmentModel.linear(24.0), 3.0)
        assert lin.pipeline[0] < uni.pipeline[0]

    def test_rejects_negative_delay(self, table_design):
        with pytest.raises(ConfigError):
            pipeline_counts(table_design(2), RecruitmentModel.uniform(24.0), -1.0)

    @pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_delay(self, table_design, m):
        with pytest.raises(ConfigError, match="finite"):
            pipeline_counts(table_design(2), RecruitmentModel.uniform(24.0), m)


def closed_form_time(n, n_max, model):
    """Per-pattern inverse of the accrual curve, kept as a reference oracle."""
    if model.pattern == "uniform":
        return n * model.t_max / n_max
    delta = solve_delta(n_max, model.t_max, model.ramp_fraction)
    ramp_end = model.ramp_fraction * model.t_max
    ramp_capacity = 0.5 * delta * ramp_end * (ramp_end + 1.0)
    if n <= ramp_capacity:
        return (-1.0 + (1.0 + 8.0 * n / delta) ** 0.5) / 2.0
    return ramp_end + (n - ramp_capacity) / (delta * ramp_end)


def closed_form_window(t_k, m, n_max, model):
    """Expected recruits in the m months after t_k, one branch per phase."""
    if model.pattern == "uniform":
        return n_max / model.t_max * m
    delta = solve_delta(n_max, model.t_max, model.ramp_fraction)
    ramp_end = model.ramp_fraction * model.t_max
    if t_k >= ramp_end:
        return delta * ramp_end * m
    if t_k + m < ramp_end:
        return delta * m * t_k + delta * m * (m + 1.0) / 2.0
    ramp_part = (ramp_end - t_k) * (t_k + 1.0 + ramp_end) / 2.0
    flat_part = ramp_end * (t_k + m - ramp_end)
    return delta * (ramp_part + flat_part)


models = st.one_of(
    st.floats(6.0, 48.0).map(RecruitmentModel.uniform),
    st.builds(
        RecruitmentModel.mixed,
        st.floats(6.0, 48.0),
        st.floats(0.0, 1.0, exclude_min=True),
    ),
)


@st.composite
def stage_sizes(draw):
    K = draw(st.integers(2, 5))
    n_max = draw(st.floats(20.0, 1000.0))
    cuts = draw(st.lists(st.floats(0.05, 0.95), min_size=K - 1, max_size=K - 1, unique=True))
    return n_max, tuple(c * n_max for c in sorted(cuts)) + (n_max,)


class TestAgainstClosedForm:
    """The accrual curve reproduces the per-pattern closed forms to 1e-12."""

    @settings(max_examples=300, deadline=None)
    @given(stage_sizes(), models, st.floats(0.0, 30.0))
    def test_pipeline_counts_and_times(self, sizes, model, m):
        n_max, stage_n = sizes
        design = SimpleNamespace(max_n=n_max, stage_n=stage_n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # sub-month ramps are in range
            try:
                profile = pipeline_counts(design, model, m)
            except ConfigError:
                # only where the closed form's flat rate is not finite either
                rate = closed_form_window(model.t_max, 1.0, n_max, model)
                assert not 0.0 < rate < math.inf
                return
            times = [closed_form_time(n, n_max, model) for n in stage_n]
            expected = [
                min(closed_form_window(t, m, n_max, model), n_max - n)
                for t, n in zip(times, stage_n)
            ]
        expected[-1] = 0.0
        tol = 1e-12 * n_max
        assert profile.recruit_times == pytest.approx(times, rel=1e-12, abs=1e-12)
        assert profile.pipeline == pytest.approx(expected, rel=1e-12, abs=tol)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(20.0, 1000.0), models, st.floats(0.0, 1.0))
    def test_curve_inverts_recruit_time(self, n_max, model, fraction):
        # a sub-month ramp (which warns) gives N a slope of order 1/l near
        # t = 0, so N(t) cannot recover n to 1e-12 from a rounded t there
        assume(model.pattern == "uniform" or model.ramp_fraction * model.t_max >= 1.0)
        n = fraction * n_max
        curve = accrual_curve(n_max, model)
        assert curve(recruit_time(n, n_max, model)) == pytest.approx(n, rel=1e-12, abs=1e-12 * n_max)
