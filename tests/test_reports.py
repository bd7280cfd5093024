import csv
import json

import pytest

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
from gsdelay.errors import ScenarioError
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
