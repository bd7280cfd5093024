import csv
import hashlib
import json
import math
import re
import tomllib
import warnings
from collections import Counter
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdelay import reports
from gsdelay.cli import main
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
from gsdelay.recruitment import PipelineProfile, RecruitmentModel, pipeline_counts
from gsdelay.scenario import load_scenario, parse_scenario

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


# Scenarios that set every optional key, and one that sets none, with the
# full parameter echo a sweep writes for each.
ECHOES = [
    (
        "[design]\nalpha = 0.025\nbeta = 0.2\ntau = 0.4\nmu = 0.3\nk = 3 4\nspacing = late equal\n"
        "family = wang-tsiatis\ndelta = 0.1\nfutility = symmetric\nallocation = 2\n"
        "[recruitment]\npattern = linear\nt_max = 18\n[delay]\nm = 2 4\nm_interim = 0.5\n",
        "allocation = 2.0|alpha = 0.025|beta = 0.2|delta = 0.1|family = wang-tsiatis|"
        "futility = symmetric|l = 1.0|m = 2.0 4.0|m_interim = 0.5|mu = 0.3|pattern = mixed|"
        "spacing = late equal|stages = 3 4|t_max = 18.0|tau = 0.4",
    ),
    (
        "[design]\nalpha = 0.025\nbeta = 0.2\ntau = 0.4\nmu = 0.3\nk = 3\nspacing = late\n"
        "family = hsd\ngamma = -2\nfutility = none\nallocation = 0.5\n"
        "[recruitment]\npattern = mixed\nt_max = 18\nl = 0.25 1/2\n[delay]\nm = 2 4\nm_interim = 1\n",
        "allocation = 0.5|alpha = 0.025|beta = 0.2|family = hsd|futility = none|gamma = -2.0|"
        "l = 0.25 0.5|m = 2.0 4.0|m_interim = 1.0|mu = 0.3|pattern = mixed|spacing = late|"
        "stages = 3|t_max = 18.0|tau = 0.4",
    ),
    (
        "[design]\nalpha = 0.05\nbeta = 0.1\ntau = 0.5\nk = 2\nfamily = wang-tsiatis\n"
        "[recruitment]\npattern = uniform\nt_max = 24\n[delay]\nm = 3\n",
        "allocation = 1.0|alpha = 0.05|beta = 0.1|family = wang-tsiatis|futility = binding-zero|"
        "m = 3.0|m_interim = 0.0|mu = 0.5|pattern = uniform|spacing = equal|stages = 2|"
        "t_max = 24.0|tau = 0.5",
    ),
]


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

    @pytest.mark.parametrize("text, echo", ECHOES)
    def test_full_parameter_echo(self, text, echo):
        lines = run_sweep(parse_scenario(text)).to_csv().splitlines()
        assert [line for line in lines if line.startswith("#")] == [f"# {kv}" for kv in echo.split("|")]

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
    stage_time = 0.0
    for t, s in zip(times, stop):  # stage by stage, in order
        stage_time += t * s
    et = m + m_interim + stage_time
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
        ramps = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3, unique=True))
        lines += ["pattern = mixed", "l = " + " ".join(map(repr, ramps))]
    # 0, t_max and a delay past it, where every cap binds; drawn delays cross the
    # ramp ends. A scenario lists each delay and ramp fraction once.
    delays = [0.0, t_max, 2.5 * t_max]
    delays += draw(st.lists(
        st.floats(0.0, 2.0 * t_max).filter(lambda m: m not in delays), min_size=1, max_size=12, unique=True
    ))
    m_interim = draw(st.sampled_from((0.0, 0.5, 1.75)))
    lines += ["[delay]", "m = " + " ".join(map(repr, delays)), f"m_interim = {m_interim!r}"]
    return parse_scenario("\n".join(lines) + "\n")


class TestVectorisedSweep:
    """A sweep assesses all models and delays of a design in one numpy pass."""

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
                cols = _delay_columns(design, (model,), scenario.delays, scenario.m_interim)
                for i, m in enumerate(scenario.delays):
                    # the core's row i is bit for bit the per-row formulas
                    pipeline, essd, eg_delay, el, et, et_single = oracle_assessment(
                        design, model, m, scenario.m_interim
                    )
                    assert cols.pipeline[0, i].tolist() == pipeline
                    row = (cols.ess_delay[0, i], cols.eg_delay[0, i], cols.et[0, i], cols.et_single[0, i])
                    assert row == (essd, eg_delay, et, et_single)
                    assert (None if cols.el is None else cols.el[0, i]) == el
                    # and the one-delay views are that row
                    one = assess_delay(design, DelayQuery(m=m, model=model, m_interim=scenario.m_interim))
                    assert one.profile == pipeline_counts(design, model, m)
                    assert one.profile.pipeline == tuple(pipeline)
                    assert one.profile.recruit_times == tuple(cols.recruit_times[0].tolist())
                    assert (one.ess_delay, one.eg_delay, one.el, one.et, one.et_single) == (
                        essd, eg_delay, el, et, et_single
                    )
                    assert one.t_single == cols.t_single[0]

    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
    def test_each_model_is_its_own_one_model_pass(self, table_design, K):
        design = table_design(K)
        t_max, m_interim = 24.0, 0.5
        models = (
            RecruitmentModel.mixed(t_max, 0.3), RecruitmentModel.uniform(t_max),
            RecruitmentModel.mixed(t_max, 0.04), RecruitmentModel.linear(t_max),
            RecruitmentModel.mixed(t_max, 0.6),
        )
        # the ramp ends are 7.2, 0.96, 24 and 14.4 months; the caps bind past
        # t_max, and the window of the largest delay overflows to inf
        ms = (0.0, 0.5, 0.96, 3.0, 7.2, 9.75, 14.4, 20.0, 24.0, 36.0, 1e300, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the sub-month ramp of l = 0.04 is in range
            cols = _delay_columns(design, models, ms, m_interim)
            for p, model in enumerate(models):
                one = _delay_columns(design, (model,), ms, m_interim)
                for name in ("pipeline", "recruit_times", "ess_delay", "eg_delay", "el", "et",
                             "t_single", "et_single"):
                    block, alone = getattr(cols, name), getattr(one, name)
                    if block is None:
                        assert alone is None and design.eg <= 0
                    else:
                        assert block[p].tobytes() == alone[0].tobytes(), name
                for i, m in enumerate(ms):
                    # the one-delay views are row (p, i) of the block
                    row = assess_delay(design, DelayQuery(m=m, model=model, m_interim=m_interim))
                    assert row.profile == pipeline_counts(design, model, m) == PipelineProfile(
                        tuple(cols.pipeline[p, i].tolist()), tuple(cols.recruit_times[p].tolist())
                    )
                    scalars = [row.ess_delay, row.eg_delay, row.et, row.t_single, row.et_single]
                    block = [cols.ess_delay[p, i], cols.eg_delay[p, i], cols.et[p, i], cols.t_single[p],
                             cols.et_single[p, i]]
                    assert np.array(scalars).tobytes() == np.array(block).tobytes()
                    assert row.el == (None if cols.el is None else cols.el[p, i])

    def test_single_stage_loss_column_is_blank(self):
        text = SMALL.replace("k = 2 3", "k = 1")
        cols = _delay_columns(
            reports._build_cached(parse_scenario(text).design_spec(1, "equal")),
            (RecruitmentModel.uniform(24.0),), (3.0, 6.0), 0.0,
        )
        assert cols.el is None
        assert [row[SWEEP_COLUMNS.index("el")] for row in run_sweep(parse_scenario(text)).rows] == ["", ""]

    @pytest.mark.parametrize("ms, m_interim, name", [
        ((3.0, -1.0), 0.0, "m = -1.0"), ((math.nan,), 0.0, "m = nan"),
        ((3.0, math.inf, -1.0), 0.0, "m = inf"), ((-2, 3.0), 0.0, "m = -2"),
        ((3.0,), -0.5, "m_interim = -0.5"), ((3.0,), math.nan, "m_interim = nan"),
    ])
    def test_core_checks_every_delay(self, table_design, ms, m_interim, name):
        # the first bad value is named as given
        with pytest.raises(ConfigError, match=f"^{name} must be finite and non-negative$"):
            _delay_columns(table_design(2), (RecruitmentModel.uniform(24.0),), ms, m_interim)

    def test_one_core_call_per_design(self, monkeypatch):
        calls = []

        def counting(design, models, ms, m_interim):
            calls.append(len(models))
            return _delay_columns(design, models, ms, m_interim)

        monkeypatch.setattr(reports, "_delay_columns", counting)
        text = SMALL.replace("k = 2 3", "k = 2 3 4").replace("uniform", "mixed\nl = 0.2 0.4 0.6 1")
        assert len(run_sweep(parse_scenario(text)).rows) == 3 * 4 * 2
        assert calls == [4, 4, 4]
        calls.clear()
        case_study_table()
        assert calls == [1] * 12
        # the reference tables: one call per design of each, over its rows' models
        calls.clear()
        verify_all()
        assert calls == [1] * 8 + [4] * 3 + [1] * 7 + [1] * 12


class TestColumnFormat:
    """A column is one %-format call; its cells are the f-string's, value for value."""

    @staticmethod
    def assert_cells_match(values):
        array = np.array(values, dtype=float)
        assert reports._column(array) == [f"{v:.2f}" for v in values]
        assert reports._column(array, "%.4f") == [f"{v:.4f}" for v in values]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    def test_finite_doubles(self, values):
        self.assert_cells_match(values)

    def test_ties_zeros_and_extremes(self):
        # binary ties and near-ties of the last decimal, signed zero, the
        # smallest subnormal, a huge value and the infinities
        values = [-0.0, 0.125, 0.375, 1.005, 2.675, 5e-324, 1e300, math.inf]
        self.assert_cells_match(values + [-v for v in values] + [math.nan])

    def test_a_block_is_formatted_row_major(self):
        block = np.arange(6.0).reshape(2, 3) / 8.0
        assert reports._column(block) == [f"{v:.2f}" for v in block.ravel().tolist()]
        assert reports._column(block[:, 1:]) == ["0.12", "0.25", "0.50", "0.62"]


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


OFF_GRID = " is not a cell of its grid, or repeats one"


class TestReferenceGrids:
    """Each delay table is the sweep grid of its bundled scenarios, one row per cell."""

    @staticmethod
    def grid(scenario_files):
        scenarios = [parse_scenario(reports._read_reference(name), name) for name in scenario_files]
        return [
            (K, spacing, model.ramp_fraction, m)
            for scenario in scenarios
            for K, spacing in scenario.designs
            for model in scenario.models
            for m in scenario.delays
        ]

    def test_package_data_ships_every_reference_file(self):
        pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
        globs = pyproject["tool"]["setuptools"]["package-data"]["gsdelay"]
        package = Path(reports.__file__).parent
        files = [p.relative_to(package).as_posix() for p in (package / "reference").rglob("*") if p.is_file()]
        assert any(f.endswith(".ini") for f in files)
        assert [f for f in files if not any(fnmatch(f, glob) for glob in globs)] == []

    @pytest.mark.parametrize("table", [t for t in reports._REFERENCE_TABLES if t[2]], ids=lambda t: t[0])
    def test_rows_and_grid_cells_match_one_to_one(self, table):
        _, filename, scenario_files = table
        text = reports._read_reference(filename).splitlines()
        rows = csv.DictReader(line for line in text if line.strip() and line[0] != "#")
        rows, cells = Counter(map(reports._row_key, rows)), Counter(self.grid(scenario_files))
        assert max(rows.values()) == max(cells.values()) == 1
        assert rows == cells

    def test_table_design_is_each_scenarios_design(self, table_design):
        for _, _, scenario_files in reports._REFERENCE_TABLES:
            for name in scenario_files:
                scenario = parse_scenario(reports._read_reference(name), name)
                for K, spacing in scenario.designs:
                    design = reports._build_cached(scenario.design_spec(K, spacing))
                    assert table_design(K, spacing) is design

    @pytest.mark.parametrize("edit, message", [
        (lambda data: data[1:], "no row for the grid cell (2, 'equal', 1.0, 3.0)"),
        (lambda data: data[:-1], "no row for the grid cell (5, 'equal', 1.0, 24.0)"),
        # a repeated row, a delay and a stage count off the grid
        (lambda data: data + data[:1], "row (2, 'equal', 1.0, 3.0)" + OFF_GRID),
        (lambda data: data + ["2,4" + data[0][3:]], "row (2, 'equal', 1.0, 4.0)" + OFF_GRID),
        (lambda data: data + ["6" + data[0][1:]], "row (6, 'equal', 1.0, 3.0)" + OFF_GRID),
    ])
    def test_a_table_off_its_grid_is_refused(self, monkeypatch, capsys, edit, message):
        read = reports._read_reference

        def patched(name):
            """uniform_equal.csv with its data lines edited."""
            if name != "uniform_equal.csv":
                return read(name)
            lines = read(name).splitlines()
            start = next(i for i, line in enumerate(lines) if line[0].isdigit())
            return "\n".join(lines[:start] + edit(lines[start:])) + "\n"

        monkeypatch.setattr(reports, "_read_reference", patched)
        with pytest.raises(ScenarioError, match=f"^uniform_equal\\.csv: {re.escape(message)}$"):
            verify_all()
        # the command exits 2 with that one line and no traceback
        assert main(["verify-tables"]) == 2
        assert capsys.readouterr() == ("", f"error: uniform_equal.csv: {message}\n")


def test_sweep_pool_is_capped_at_cpu_count(monkeypatch, recording_pool, small_table):
    pool, seen = recording_pool
    monkeypatch.setattr(reports, "ThreadPoolExecutor", pool)
    monkeypatch.setattr(reports.os, "cpu_count", lambda: 3)
    assert run_sweep(parse_scenario(SMALL), threads=1000).rows == small_table.rows
    assert seen == [3]


ROOT = Path(__file__).resolve().parent.parent


def test_bundled_outputs_match_the_golden_digests():
    """The bundled scenario sweeps and the case study, byte for byte, as the benchmark checks them."""
    golden = json.loads((ROOT / "benchmarks" / "reference" / "golden.json").read_text(encoding="utf-8"))
    produced = {
        f"scenarios/{path.name}": run_sweep(load_scenario(path)).to_csv()
        for path in sorted((ROOT / "scenarios").glob("*.ini"))
    }
    produced["case-study"] = case_study_table().to_csv()
    digests = {name: hashlib.sha256(text.encode("utf-8")).hexdigest() for name, text in produced.items()}
    assert digests == golden
