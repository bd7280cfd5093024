import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsdelay
from gsdelay import reports
from gsdelay.cli import main
from gsdelay.scenario import load_scenario

DESIGN_SCENARIO = """\
[design]
alpha = 0.05
beta = 0.1
tau = 0.5
k = 2
family = wang-tsiatis
delta = 0.25
futility = binding-zero
"""

SWEEP_SCENARIO = DESIGN_SCENARIO + """
[recruitment]
pattern = uniform
t_max = 24

[delay]
m = 3 6
"""


@pytest.fixture
def scenario_file(tmp_path):
    def write(text, name="scenario.ini"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


class TestDesignCommand:
    def test_text_report(self, scenario_file, capsys):
        assert main(["design", "--scenario", scenario_file(DESIGN_SCENARIO)]) == 0
        out = capsys.readouterr().out
        assert "145.05" in out
        assert "n_single = 137.02" in out

    def test_json_report(self, scenario_file, capsys):
        assert main(["design", "--scenario", scenario_file(DESIGN_SCENARIO), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_max"] == pytest.approx(145.05, abs=0.2)
        assert payload["eg"] == pytest.approx(0.2276, abs=0.002)

    @pytest.mark.parametrize("style", ["binding-zero", "symmetric", "none"])
    def test_json_is_standard(self, scenario_file, capsys, style):
        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        path = scenario_file(DESIGN_SCENARIO.replace("binding-zero", style).replace("k = 2", "k = 3"))
        assert main(["design", "--scenario", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
        interim = payload["futility"][:-1]
        # an absent futility bound is null
        assert (interim == [None, None]) == (style == "none")

    def test_single_stage_reports_zero_gain(self, scenario_file, capsys):
        path = scenario_file(DESIGN_SCENARIO.replace("k = 2", "k = 1"))
        assert main(["design", "--scenario", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["eg"] == pytest.approx(0.0, abs=1e-9)

    def test_single_look_prints_no_negative_zero(self, scenario_file, capsys):
        text = SWEEP_SCENARIO.replace("beta = 0.1", "beta = 0.05").replace("tau = 0.5", "tau = 0.3")
        path = scenario_file(text.replace("k = 2", "k = 1"))
        assert main(["design", "--scenario", path]) == 0
        assert "EG = 0.0000" in capsys.readouterr().out
        assert main(["sweep", "--scenario", path]) == 0
        header, *rows = capsys.readouterr().out.splitlines()[-3:]
        columns = header.split(",")
        for row in rows:
            cells = dict(zip(columns, row.split(",")))
            assert cells["eg"] == cells["eg_delay"] == "0.0000"

    @pytest.mark.parametrize("delta", ["-1000", "1000", "1e308"])
    def test_shape_that_overflows_the_bounds(self, scenario_file, capsys, delta):
        text = DESIGN_SCENARIO.replace("delta = 0.25", f"delta = {delta}").replace("k = 2", "k = 3")
        assert main(["design", "--scenario", scenario_file(text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "outside the float range" in err

    @pytest.mark.parametrize("futility", ["none", "symmetric"])
    @pytest.mark.parametrize("tau", ["0.5", "0.0001"])
    def test_stage_table_keeps_its_width(self, scenario_file, capsys, futility, tau):
        def stage_rows(text):
            assert main(["design", "--scenario", scenario_file(text)]) == 0
            lines = capsys.readouterr().out.splitlines()
            start = next(i for i, line in enumerate(lines) if line.startswith("stage")) + 1
            return lines[start:-1]

        widths = {len(row) for row in stage_rows(DESIGN_SCENARIO)}
        # shape -600 puts e_1 at 5.3e286; tau = 1e-4 puts the stage sizes above 1e9
        text = (DESIGN_SCENARIO.replace("k = 2", "k = 3").replace("delta = 0.25", "delta = -600")
                .replace("binding-zero", futility).replace("tau = 0.5", f"tau = {tau}"))
        rows = stage_rows(text)
        assert len(rows) == 3 and {len(row) for row in rows} == widths
        assert "5.34e+286" in rows[0]

    def test_intro_example_rounding(self, scenario_file, capsys):
        text = (
            "[design]\nalpha = 0.025\nbeta = 0.2\ntau = 0.4\nk = 3\n"
            "family = wang-tsiatis\ndelta = 0\nfutility = none\n"
        )
        assert main(["design", "--scenario", scenario_file(text), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for got, want in zip(payload["stage_n_rounded"], (66, 134, 200)):
            assert abs(got - want) <= 1

    def test_config_error_exit_code(self, scenario_file, capsys):
        path = scenario_file(DESIGN_SCENARIO.replace("alpha = 0.05", "alpha = 0.9"))
        assert main(["design", "--scenario", path]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["design", "--scenario", "/nonexistent/path.ini"]) == 2

    def test_grid_scenario_rejected(self, scenario_file, capsys):
        path = scenario_file(DESIGN_SCENARIO.replace("k = 2", "k = 2 3"))
        assert main(["design", "--scenario", path]) == 2


class TestSweepCommand:
    def test_writes_csv(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = main(["sweep", "--scenario", scenario_file(SWEEP_SCENARIO), "--out", str(out)])
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert text.splitlines()[-1].startswith("2,6.00")
        assert "# alpha = 0.05" in text

    def test_byte_identical_runs(self, scenario_file, tmp_path):
        path = scenario_file(SWEEP_SCENARIO)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--scenario", path, "--out", str(out_a)]) == 0
        assert main(["sweep", "--scenario", path, "--out", str(out_b), "--threads", "2"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_json_format(self, scenario_file, tmp_path):
        out = tmp_path / "table.json"
        code = main(
            ["sweep", "--scenario", scenario_file(SWEEP_SCENARIO), "--out", str(out), "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert len(payload["rows"]) == 2

    def test_missing_delay_section_is_config_error(self, scenario_file, capsys):
        path = scenario_file(DESIGN_SCENARIO)
        assert main(["sweep", "--scenario", path, "--out", "x.csv"]) == 2

    def test_unwritable_path_is_config_error(self, scenario_file, capsys):
        path = scenario_file(SWEEP_SCENARIO)
        assert main(["sweep", "--scenario", path, "--out", "/nonexistent-dir/t.csv"]) == 2


class TestCaseStudyCommand:
    def test_stdout_csv(self, capsys):
        assert main(["case-study"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(lines) == 13  # header + 12 rows
        assert any(line.startswith("obf,3,74,147,220") for line in lines)


class TestSimulateCommand:
    def test_runs_with_delay(self, scenario_file, capsys):
        path = scenario_file(SWEEP_SCENARIO.replace("m = 3 6", "m = 3"))
        code = main(
            ["simulate", "--scenario", path, "--replicates", "20000", "--seed", "7"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean sample size" in out
        assert "mean duration" in out

    def test_prints_the_exact_value_beside_each_mean(self, scenario_file, capsys):
        design = gsdelay.build_design(gsdelay.DesignSpec(alpha=0.05, beta=0.1, tau=0.5, num_stages=2))
        query = gsdelay.DelayQuery(m=3.0, model=gsdelay.RecruitmentModel.uniform(24.0))
        exact = gsdelay.assess_delay(design, query)
        mean = r"= \d+\.\d{3} \(se \d+\.\d{3}\)   exact"
        args = ["--replicates", "20000", "--seed", "7"]
        assert main(["simulate", "--scenario", scenario_file(DESIGN_SCENARIO), *args]) == 0
        out = capsys.readouterr().out
        assert re.search(rf"^mean sample size {mean} {design.ess:.3f}$", out, re.M)
        path = scenario_file(SWEEP_SCENARIO.replace("m = 3 6", "m = 3"))
        assert main(["simulate", "--scenario", path, *args]) == 0
        out = capsys.readouterr().out
        assert re.search(rf"^mean sample size {mean} {exact.ess_delay:.3f}$", out, re.M)
        assert re.search(rf"^mean duration    {mean} {exact.et:.3f}$", out, re.M)

    def test_deterministic_output(self, scenario_file, capsys):
        path = scenario_file(DESIGN_SCENARIO)
        assert main(["simulate", "--scenario", path, "--replicates", "20000", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["simulate", "--scenario", path, "--replicates", "20000", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first


class TestVerifyTablesCommand:
    def test_report_and_exit_code(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["verify-tables", "--out", str(out)])
        output = capsys.readouterr().out
        assert "uniform-recruitment: 180/180 cells ok [ok]" in output
        assert "linear-recruitment: 180/180 cells ok [ok]" in output
        assert "unequal-spacing: 312/312 cells ok [ok]" in output
        assert "case-study: 54/54 cells ok [ok]" in output
        # five mixed-recruitment cells are outside tolerance (see the fixture
        # header and the mismatch listing), so the command signals failure
        assert code == 3
        assert output.count("FAIL K=") == 5
        report = out.read_text(encoding="utf-8")
        assert report.count("\n") == 798 + 1  # header + one line per cell


REFERENCE = Path(gsdelay.__file__).parent / "reference"


def _data_rows(text):
    return list(csv.DictReader(line for line in text.splitlines() if line.strip() and line[0] != "#"))


@pytest.mark.parametrize("ini", sorted(path.name for path in REFERENCE.glob("*.ini")))
def test_sweeping_a_reference_scenario_gives_the_verified_numbers(capsys, ini):
    """A table re-run the way users run it prints the values verify-tables checks."""
    name, filename, _ = next(table for table in reports._REFERENCE_TABLES if ini in table[2])
    computed = {}
    for check in next(report for report in reports.verify_all() if report.name == name).checks:
        computed.setdefault(check.row, {})[check.column] = check.computed
    # verify_all checks the rows in file order, each under its own label
    rows = _data_rows((REFERENCE / filename).read_text(encoding="utf-8"))
    assert len(rows) == len(computed)
    by_cell = {reports._row_key(row): cells for row, cells in zip(rows, computed.values())}

    assert main(["sweep", "--scenario", str(REFERENCE / ini)]) == 0
    swept = _data_rows(capsys.readouterr().out)
    stages = load_scenario(REFERENCE / ini).stages
    assert len(swept) == sum(int(row["K"]) in stages for row in rows)
    compared = 0
    for row in swept:
        cells = by_cell[reports._row_key(row)]
        for column in ("n_max", "el"):
            if column in cells:
                assert row[column] == f"{cells[column]:.2f}", (row, column)
                compared += 1
    assert compared >= len(swept)


class TestBadInputsExitCleanly:
    @pytest.mark.parametrize(
        "design_line, delay_line",
        [
            ("tau = 0.5\nfamily = hsd\ngamma = -1000", "m = 3"),
            # the spend schedule reaches alpha by the first look
            ("tau = 0.5\nfamily = hsd\ngamma = 700", "m = 3"),
            ("tau = 0.5\nfamily = wang-tsiatis", "m = inf"),
            ("tau = 0.5\nfamily = wang-tsiatis", "m = nan"),
            ("tau = 1e-300\nfamily = wang-tsiatis", "m = 3"),
        ],
    )
    def test_config_error(self, scenario_file, capsys, design_line, delay_line):
        text = (
            f"[design]\nalpha = 0.05\nbeta = 0.1\nk = 2\n{design_line}\n"
            f"[recruitment]\npattern = uniform\nt_max = 24\n[delay]\n{delay_line}\n"
        )
        assert main(["sweep", "--scenario", scenario_file(text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_unattainable_power_is_a_numerical_failure(scenario_file, capsys):
    # a power of 0.04 is below the level 0.05, so no size attains it
    path = scenario_file(DESIGN_SCENARIO.replace("beta = 0.1", "beta = 0.96"))
    assert main(["design", "--scenario", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert "below the attainable floor" in err


def test_simulate_refuses_several_recruitment_models(scenario_file, capsys):
    text = SWEEP_SCENARIO.replace("pattern = uniform", "pattern = mixed\nl = 0.2 0.4")
    assert main(["simulate", "--scenario", scenario_file(text)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith(": simulate needs a single recruitment model\n")


def test_sweep_echoes_explicit_fractions(scenario_file, capsys):
    text = SWEEP_SCENARIO.replace("k = 2", "k = 3\nrho = 1/3 2/3 1")
    assert main(["sweep", "--scenario", scenario_file(text)]) == 0
    out = capsys.readouterr().out
    assert "# rho = 0.3333333333333333 0.6666666666666666 1.0\n" in out
    # each row and the spacing echo point at the echoed fractions
    assert "# spacing = rho\n" in out
    assert [line.split(",")[3] for line in out.splitlines()[-2:]] == ["rho", "rho"]


def test_module_entry_point_exits_with_the_command_code():
    src = Path(gsdelay.__file__).parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "gsdelay", "verify-tables"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=False,
    )
    assert result.returncode == 3
    assert result.stdout.splitlines()[-1] == "verified 793/798 reference cells"


@pytest.mark.parametrize("beta", ["5e-324", "1e-310"])
def test_underflowing_beta_names_its_line(scenario_file, capsys, beta):
    path = scenario_file(DESIGN_SCENARIO.replace("beta = 0.1", f"beta = {beta}"))
    assert main(["design", "--scenario", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line 3: beta = {beta} must lie in") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["sweep", "simulate"])
@pytest.mark.parametrize("threads", ["0", "-3", "two"])
def test_threads_must_be_a_positive_integer(scenario_file, capsys, command, threads):
    path = scenario_file(SWEEP_SCENARIO)
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--scenario", path, "--threads", threads])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err == f"error: argument --threads: must be a positive integer, got {threads!r}\n"


def test_warnings_are_one_line_each(scenario_file, capsys):
    # a 0.6-month ramp warns once per accrual curve; the sweep reports it once
    text = SWEEP_SCENARIO.replace("pattern = uniform", "pattern = mixed\nl = 0.025")
    assert main(["sweep", "--scenario", scenario_file(text)]) == 0
    assert capsys.readouterr().err == "warning: ramp phase shorter than one month (l*t_max = 0.6)\n"


def test_infinite_delta_names_its_line(scenario_file, capsys):
    path = scenario_file(DESIGN_SCENARIO.replace("delta = 0.25", "delta = inf"))
    assert main(["design", "--scenario", path]) == 2
    assert capsys.readouterr().err == "error: line 7: Wang-Tsiatis shape must be finite\n"


@pytest.mark.parametrize("command", ["sweep", "simulate"])
@pytest.mark.parametrize(
    "recruitment, line",
    [("pattern = mixed\nt_max = 6\nl = 1e-308", 13), ("pattern = uniform\nt_max = 1e-307", 12)],
)
def test_overflowing_accrual_rate_names_its_line(scenario_file, capsys, command, recruitment, line):
    # one participant's rate is finite, so the scenario parses and design runs;
    # the rate for n_max participants overflows once the design is built
    path = scenario_file(SWEEP_SCENARIO.replace("pattern = uniform\nt_max = 24", recruitment))
    assert main(["design", "--scenario", path]) == 0
    capsys.readouterr()
    assert main([command, "--scenario", path]) == 2
    errors = [e for e in capsys.readouterr().err.splitlines() if not e.startswith("warning: ")]
    assert len(errors) == 1
    assert errors[0].startswith(f"error: line {line}: the accrual rate of RecruitmentModel(")
    assert errors[0].endswith("is outside the float range")


# Scenario values: a typical draw, or one of these edge tokens.
EDGE_TOKENS = ("0", "-1", "5e-324", "1e-300", "1e300", "inf", "nan", "-1000", "1/0", "x")


def _value(lo, hi):
    return st.one_of(st.floats(lo, hi).map(repr), st.sampled_from(EDGE_TOKENS))


def _number(token):
    """A token's float value, so "0" and "0.0" are one delay; the token when float() refuses it."""
    try:
        return float(token)
    except ValueError:
        return token


@st.composite
def scenario_texts(draw):
    lines = [
        "[design]",
        f"alpha = {draw(_value(0.01, 0.499))}",
        f"beta = {draw(_value(0.05, 0.3))}",
        f"tau = {draw(_value(0.2, 1.0))}",
        f"k = {draw(st.sampled_from(('1', '2', '3')))}",
        f"futility = {draw(st.sampled_from(('binding-zero', 'symmetric', 'none')))}",
        f"allocation = {draw(_value(0.5, 2.0))}",
    ]
    if draw(st.booleans()):
        lines += ["family = hsd", f"gamma = {draw(_value(-700.0, 2.0))}"]
    else:
        lines += ["family = wang-tsiatis", f"delta = {draw(_value(-3.0, 3.0))}"]
    pattern = draw(st.sampled_from(("uniform", "mixed", "linear")))
    lines += ["[recruitment]", f"pattern = {pattern}", f"t_max = {draw(_value(6.0, 48.0))}"]
    if pattern == "mixed" or draw(st.booleans()):
        lines.append(f"l = {draw(_value(0.0, 1.0))}")
    lines += [
        "[delay]",
        # two distinct delays: a repeated one is refused (test_scenario covers it)
        "m = " + " ".join(draw(st.lists(_value(0.0, 30.0), min_size=2, max_size=2, unique_by=_number))),
        f"m_interim = {draw(_value(0.0, 2.0))}",
    ]
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(scenario_texts())
def test_generated_scenarios_exit_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.ini"
        path.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["sweep", "--scenario", str(path)])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code:
        # one error line; any other line is a warning
        lines = err.getvalue().splitlines()
        failures = [line for line in lines if line.startswith(("error: ", "numerical failure: "))]
        assert len(failures) == 1
        assert all(line.startswith("warning: ") for line in lines if line not in failures)
