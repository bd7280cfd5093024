import csv
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdelay import reports
from gsdelay.reports import (
    CASE_STUDY_COLUMNS,
    SWEEP_COLUMNS,
    ResultTable,
    case_study_table,
    case_study_tau,
    run_sweep,
    verify_all,
)
from gsdelay.delay import DelayQuery, _delay_columns, assess_delay
from gsdelay.errors import ConfigError, ScenarioError
from gsdelay.recruitment import RecruitmentModel, pipeline_counts
from gsdelay.scenario import parse_scenario

SMALL = """\
[design]
alpha = 0.05
beta = 0.1
tau = 0.5
k = 2 3
family = wang-tsiatis
delta = 0.25
futility = binding-zero

[recruitment]
pattern = uniform
t_max = 24

[delay]
m = 3 6
"""


@pytest.fixture(scope="module")
def small_table():
    return run_sweep(parse_scenario(SMALL))


class TestSweep:
    def test_schema_and_grid_order(self, small_table):
        assert small_table.columns == SWEEP_COLUMNS
        assert len(small_table.rows) == 4
        key = [(row[0], row[1]) for row in small_table.rows]
        assert key == [("2", "3.00"), ("2", "6.00"), ("3", "3.00"), ("3", "6.00")]

    def test_reference_cells(self, small_table):
        header = dict(zip(SWEEP_COLUMNS, range(len(SWEEP_COLUMNS))))
        first = small_table.rows[0]
        assert first[header["n_max"]] == "145.05"
        assert float(first[header["ess"]]) == pytest.approx(105.84, abs=0.2)
        assert float(first[header["el"]]) == pytest.approx(31.44, abs=1.0)
        assert first[header["pipeline_2"]] == "0.00"
        assert first[header["pipeline_3"]] == ""

    def test_unequal_spacing_reference_row(self):
        text = SMALL.replace("k = 2 3", "k = 3\nspacing = latest").replace("m = 3 6", "m = 6")
        table = run_sweep(parse_scenario(text))
        row = dict(zip(SWEEP_COLUMNS, table.rows[0]))
        assert float(row["pipeline_1"]) == pytest.approx(36.20, abs=0.3)
        assert float(row["pipeline_2"]) == pytest.approx(14.48, abs=0.3)
        assert float(row["el"]) == pytest.approx(82.12, abs=1.0)

    def test_deterministic_output(self):
        a = run_sweep(parse_scenario(SMALL)).to_csv()
        b = run_sweep(parse_scenario(SMALL)).to_csv()
        assert a == b

    def test_threads_do_not_change_rows(self, small_table):
        threaded = run_sweep(parse_scenario(SMALL), threads=3)
        assert threaded.to_csv() == small_table.to_csv()

    def test_requires_delays(self):
        with pytest.raises(ScenarioError, match="delay"):
            run_sweep(parse_scenario(SMALL.split("[delay]")[0]))

    def test_rejects_too_many_stages(self):
        with pytest.raises(ScenarioError, match="5 stages"):
            run_sweep(parse_scenario(SMALL.replace("k = 2 3", "k = 6")))

    def test_parameter_echo_present(self, small_table):
        assert small_table.parameters["alpha"] == "0.05"
        assert "m" in small_table.parameters

    def test_interim_overhead_shifts_expected_time(self):
        text = SMALL.replace("k = 2 3", "k = 2").replace("m = 3 6", "m = 6")
        base = run_sweep(parse_scenario(text))
        offset = run_sweep(parse_scenario(text + "m_interim = 2\n"))
        col = SWEEP_COLUMNS.index("et")
        assert float(offset.rows[0][col]) == pytest.approx(float(base.rows[0][col]) + 2.0, abs=0.01)

    def test_single_stage_row_has_blank_loss(self):
        text = SMALL.replace("k = 2 3", "k = 1").replace("m = 3 6", "m = 6")
        table = run_sweep(parse_scenario(text))
        row = dict(zip(SWEEP_COLUMNS, table.rows[0]))
        assert row["el"] == ""
        assert row["ess"] == row["ess_delay"]


def oracle_assessment(design, model, m, m_interim):
    """The documented formulas for one delay, in plain floats.

    Returns (pipeline, ess_delay, eg_delay, el, et, et_single); el is None when eg <= 0.
    """
    n_max, stage_n, stop = design.max_n, design.stage_n, design.exit.stop_per_stage
    if model.pattern == "uniform":
        delta, ramp_end, rate = 0.0, 0.0, n_max / model.t_max
    else:
        l, t_max = model.ramp_fraction, model.t_max
        ramp_end = l * t_max
        delta = n_max / (0.5 * ramp_end * (ramp_end + 1.0) + ramp_end * (1.0 - l) * t_max)
        rate = delta * ramp_end
    capacity = 0.5 * delta * ramp_end * (ramp_end + 1.0)

    def accrued(t):  # N(t)
        if t <= ramp_end:
            return 0.5 * delta * t * (t + 1.0)
        return capacity + rate * (t - ramp_end)

    def recruit_time(n):  # the inverse of N
        if n < capacity:
            return (-1.0 + (1.0 + 8.0 * n / delta) ** 0.5) / 2.0
        return ramp_end + (n - capacity) / rate

    times = [recruit_time(n) for n in stage_n]
    pipeline = [min(accrued(t + m) - accrued(t), n_max - n) for t, n in zip(times, stage_n)]
    pipeline[-1] = 0.0
    ess_delay = float(np.dot(stop, np.asarray(stage_n) + np.asarray(pipeline)))
    eg_delay = (design.n_single - ess_delay) / design.n_single
    el = None if design.eg <= 0 else 100.0 * (design.eg - eg_delay) / design.eg
    et = m + m_interim + sum(t * s for t, s in zip(times, stop))
    et_single = design.n_single * model.t_max / n_max + m
    return pipeline, ess_delay, eg_delay, el, et, et_single


def oracle_sweep_row(design, spacing, model, m, m_interim):
    """One sweep row, formatted cell by cell from ``oracle_assessment``."""
    pipeline, ess_delay, eg_delay, el, et, et_single = oracle_assessment(design, model, m, m_interim)
    return (
        str(design.num_stages), f"{m:.2f}",
        "" if model.pattern == "uniform" else f"{model.ramp_fraction:.2f}",
        spacing, f"{design.max_n:.2f}", f"{design.ess:.2f}", f"{ess_delay:.2f}",
        *[f"{p:.2f}" for p in pipeline], *[""] * (5 - len(pipeline)),
        f"{design.eg:.4f}", f"{eg_delay:.4f}", "" if el is None else f"{el:.2f}",
        f"{et:.2f}", f"{et_single:.2f}",
    )


@st.composite
def sweep_scenarios(draw):
    """A one-design sweep: K 1-5, uniform or mixed recruitment, delays from 0 to past t_max."""
    K = draw(st.integers(1, 5))
    t_max = draw(st.sampled_from((6.0, 12.5, 24.0, 36.0)))
    lines = [
        "[design]", "alpha = 0.05", "beta = 0.1", f"tau = {draw(st.sampled_from((0.4, 0.5)))}",
        f"k = {K}", "family = wang-tsiatis", f"delta = {draw(st.sampled_from((0.0, 0.25, 0.5)))}",
        f"futility = {draw(st.sampled_from(('binding-zero', 'none')))}",
        "[recruitment]", f"t_max = {t_max}",
    ]
    if draw(st.booleans()):
        lines.append("pattern = uniform")
    else:
        ramps = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3))
        lines += ["pattern = mixed", "l = " + " ".join(map(repr, ramps))]
    # 0, t_max and a delay past it, where every cap binds; drawn delays cross the ramp ends
    delays = [0.0, t_max, 2.5 * t_max]
    delays += draw(st.lists(st.floats(0.0, 2.0 * t_max), min_size=1, max_size=12))
    m_interim = draw(st.sampled_from((0.0, 0.5, 1.75)))
    lines += ["[delay]", "m = " + " ".join(map(repr, delays)), f"m_interim = {m_interim!r}"]
    return parse_scenario("\n".join(lines) + "\n")


class TestVectorisedSweep:
    """A sweep assesses all delays of a (design, model) pair in one numpy pass."""

    @settings(max_examples=40, deadline=None)
    @given(sweep_scenarios())
    def test_rows_match_the_per_row_oracle(self, scenario):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # sub-month ramps are in range
            table = run_sweep(scenario)
            (K,), (spacing,) = scenario.stages, scenario.spacings
            design = reports._build_cached(scenario.design_spec(K, spacing))
            expected = [
                oracle_sweep_row(design, spacing, model, m, scenario.m_interim)
                for model in scenario.recruitment_models()
                for m in scenario.delays
            ]
            assert table.rows == expected
            for model in scenario.recruitment_models():
                cols = _delay_columns(design, model, scenario.delays, scenario.m_interim)
                for i, m in enumerate(scenario.delays):
                    # the core's row i is bit for bit the per-row formulas
                    pipeline, essd, eg_delay, el, et, et_single = oracle_assessment(
                        design, model, m, scenario.m_interim
                    )
                    assert cols.pipeline[i].tolist() == pipeline
                    assert (cols.ess_delay[i], cols.eg_delay[i], cols.et[i], cols.et_single[i]) == (
                        essd, eg_delay, et, et_single
                    )
                    assert (None if cols.el is None else cols.el[i]) == el
                    # and the one-delay views are that row
                    one = assess_delay(design, DelayQuery(m=m, model=model, m_interim=scenario.m_interim))
                    assert one.profile == pipeline_counts(design, model, m)
                    assert one.profile.pipeline == tuple(pipeline)
                    assert one.profile.recruit_times == cols.recruit_times
                    assert (one.ess_delay, one.eg_delay, one.el, one.et, one.et_single) == (
                        essd, eg_delay, el, et, et_single
                    )
                    assert one.t_single == cols.t_single

    def test_single_stage_loss_column_is_blank(self):
        text = SMALL.replace("k = 2 3", "k = 1")
        cols = _delay_columns(
            reports._build_cached(parse_scenario(text).design_spec(1, "equal")),
            RecruitmentModel.uniform(24.0), (3.0, 6.0), 0.0,
        )
        assert cols.el is None
        assert [row[SWEEP_COLUMNS.index("el")] for row in run_sweep(parse_scenario(text)).rows] == ["", ""]

    @pytest.mark.parametrize("ms, m_interim", [
        ((3.0, -1.0), 0.0), ((math.nan,), 0.0), ((3.0,), -0.5), ((3.0,), math.nan),
    ])
    def test_core_checks_every_delay(self, table_design, ms, m_interim):
        with pytest.raises(ConfigError, match="finite and non-negative"):
            _delay_columns(table_design(2), RecruitmentModel.uniform(24.0), ms, m_interim)


class TestRoundTrip:
    def test_csv_round_trip_is_byte_identical(self, small_table, tmp_path):
        path = tmp_path / "out.csv"
        small_table.write(path)
        text = path.read_text(encoding="utf-8")
        assert text == small_table.to_csv()
        comments = [line for line in text.splitlines() if line.startswith("# ")]
        parameters = dict(line[2:].split(" = ", 1) for line in comments)
        header, *rows = csv.reader(text.splitlines()[len(comments):])
        rebuilt = ResultTable(columns=tuple(header), rows=[tuple(r) for r in rows], parameters=parameters)
        assert rebuilt.to_csv() == text
        assert rebuilt.rows == small_table.rows
        assert rebuilt.parameters == small_table.parameters

    def test_json_mirrors_rows(self, small_table):
        payload = json.loads(small_table.to_json())
        assert payload["columns"] == list(SWEEP_COLUMNS)
        assert len(payload["rows"]) == len(small_table.rows)
        first = payload["rows"][0]
        assert first["K"] == 2
        assert first["n_max"] == pytest.approx(145.05)
        assert first["pipeline_3"] is None

    def test_json_deterministic(self, small_table):
        assert small_table.to_json() == small_table.to_json()


class TestCaseStudy:
    def test_calibrated_effect(self):
        assert case_study_tau() == pytest.approx(0.400, abs=0.001)

    def test_twelve_rows(self):
        table = case_study_table()
        assert table.columns == CASE_STUDY_COLUMNS
        assert len(table.rows) == 12
        boundaries = {row[0] for row in table.rows}
        assert boundaries == {"pocock", "obf", "wt"}

    def test_obf_three_stage_row(self):
        table = case_study_table()
        row = dict(
            zip(CASE_STUDY_COLUMNS, next(r for r in table.rows if r[:2] == ("obf", "3")))
        )
        assert int(row["n_1"]) == pytest.approx(74, abs=1)
        assert int(row["n_2"]) == pytest.approx(147, abs=1)
        assert int(row["n_3"]) == pytest.approx(220, abs=1)
        assert float(row["ess_delay"]) == pytest.approx(219.42, abs=0.3)
        assert float(row["el"]) == pytest.approx(110.00, abs=1.5)


@pytest.fixture(scope="module")
def uniform_report():
    return next(r for r in verify_all() if r.name == "uniform-recruitment")


class TestVerify:
    def test_uniform_reference_table_passes(self, uniform_report):
        report = uniform_report
        assert report.ok, [f"{c.row} {c.column}" for c in report.failures]
        assert len(report.checks) == 180
        assert "180/180" in report.summary()

    def test_summary_reports_the_largest_relative_deviation(self, uniform_report):
        report = uniform_report
        largest = max(abs(c.computed - c.expected) / abs(c.expected) for c in report.checks if c.expected)
        assert 0.0 < largest < 0.03
        assert report.summary().endswith(f"[ok], max dev {largest:.2%}")



def test_sweep_pool_is_capped_at_cpu_count(monkeypatch, recording_pool, small_table):
    pool, seen = recording_pool
    monkeypatch.setattr(reports, "ThreadPoolExecutor", pool)
    monkeypatch.setattr(reports.os, "cpu_count", lambda: 3)
    assert run_sweep(parse_scenario(SMALL), threads=1000).rows == small_table.rows
    assert seen == [3]
