import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdelay.cli import main

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

    def test_single_stage_reports_zero_gain(self, scenario_file, capsys):
        path = scenario_file(DESIGN_SCENARIO.replace("k = 2", "k = 1"))
        assert main(["design", "--scenario", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["eg"] == pytest.approx(0.0, abs=1e-9)

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


class TestBadInputsExitCleanly:
    @pytest.mark.parametrize(
        "design_line, delay_line",
        [
            ("tau = 0.5\nfamily = hsd\ngamma = -1000", "m = 3"),
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


# Scenario values: a typical draw, or one of these edge tokens.
EDGE_TOKENS = ("0", "-1", "5e-324", "1e-300", "1e300", "inf", "nan", "-1000", "1/0", "x")


def _value(lo, hi):
    return st.one_of(st.floats(lo, hi).map(repr), st.sampled_from(EDGE_TOKENS))


@st.composite
def scenario_texts(draw):
    lines = [
        "[design]",
        f"alpha = {draw(_value(0.01, 0.1))}",
        f"beta = {draw(_value(0.05, 0.3))}",
        f"tau = {draw(_value(0.2, 1.0))}",
        f"k = {draw(st.sampled_from(('1', '2')))}",
        f"futility = {draw(st.sampled_from(('binding-zero', 'symmetric', 'none')))}",
        f"allocation = {draw(_value(0.5, 2.0))}",
    ]
    if draw(st.booleans()):
        lines += ["family = hsd", f"gamma = {draw(_value(-4.0, 2.0))}"]
    else:
        lines += ["family = wang-tsiatis", f"delta = {draw(_value(0.0, 0.5))}"]
    pattern = draw(st.sampled_from(("uniform", "mixed", "linear")))
    lines += ["[recruitment]", f"pattern = {pattern}", f"t_max = {draw(_value(6.0, 48.0))}"]
    if pattern == "mixed":
        lines.append(f"l = {draw(_value(0.0, 1.0))}")
    lines += [
        "[delay]",
        f"m = {draw(_value(0.0, 30.0))} {draw(_value(0.0, 30.0))}",
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
