import pytest

from gsdelay.boundaries import FutilityStyle, WangTsiatis
from gsdelay.cli import main
from gsdelay.design import DesignSpec
from gsdelay.errors import ScenarioError
from gsdelay.recruitment import RecruitmentModel
from gsdelay.scenario import parse_scenario, spacing_for

FULL = """\
[design]
alpha = 0.05
beta = 0.1
tau = 0.5
k = 2 3 4 5
family = wang-tsiatis
delta = 0.25
futility = binding-zero

[recruitment]
pattern = uniform
t_max = 24

[delay]
m = 3 6 9 12 18 24

[output]
format = csv
"""


class TestParsing:
    def test_full_document(self):
        sc = parse_scenario(FULL)
        spec = sc.design_spec(2, "equal")
        assert spec.alpha == 0.05 and spec.beta == 0.1 and spec.tau == 0.5
        assert sc.stages == (2, 3, 4, 5)
        assert sc.spacings == ("equal",)
        assert list(sc.designs) == [(k, "equal") for k in (2, 3, 4, 5)]
        assert sc.parameters["family"] == "wang-tsiatis" and spec.family.shape == 0.25
        assert spec.futility is FutilityStyle.BINDING_ZERO
        assert sc.models[0].pattern == "uniform" and sc.t_max == 24.0
        # equal to a spec written out in full, as the design cache and the benchmark key on it
        assert spec == DesignSpec(
            alpha=0.05, beta=0.1, tau=0.5, num_stages=2, family=WangTsiatis(0.25),
            futility=FutilityStyle.BINDING_ZERO, info_fractions=(0.5, 1.0),
        )
        assert sc.delays == (3.0, 6.0, 9.0, 12.0, 18.0, 24.0)
        assert sc.out_format == "csv"

    def test_grid_axes_are_read_off_the_designs(self):
        sc = parse_scenario(FULL.replace("k = 2 3 4 5", "k = 4 3\nspacing = late equal early"))
        assert sc.stages == (4, 3)
        assert sc.spacings == ("late", "equal", "early")
        assert list(sc.designs) == [(k, s) for k in (4, 3) for s in ("late", "equal", "early")]

    def test_fractions_and_comments(self):
        sc = parse_scenario(
            "[design]\n"
            "alpha = 0.05\nbeta = 0.1\ntau = 0.5\n"
            "k = 3\n"
            "rho = 1/3, 2/3, 1   # equally spaced\n"
            "family = wt\n"
        )
        assert sc.design_spec(3, "rho").info_fractions == pytest.approx((1 / 3, 2 / 3, 1.0))

    def test_mu_defaults_to_tau_downstream(self):
        sc = parse_scenario("[design]\nalpha=0.05\nbeta=0.1\ntau=0.5\nk=2\nfamily=wt\n")
        assert sc.design_spec(2, "equal").mu_eval is None
        assert sc.design_spec(2, "equal").evaluation_effect == 0.5
        assert sc.parameters["mu"] == "0.5"

    def test_hsd_family(self):
        sc = parse_scenario(
            "[design]\nalpha=0.05\nbeta=0.1\ntau=0.5\nk=3\nfamily=hsd\ngamma=-2\n"
            "spacing = latest\n"
        )
        spec = sc.design_spec(3, "latest")
        assert spec.info_fractions == (0.6, 0.9, 1.0)

    def test_linear_pattern_is_full_ramp(self):
        sc = parse_scenario(
            FULL.replace("pattern = uniform", "pattern = linear")
        )
        (model,) = sc.recruitment_models()
        assert model.pattern == "mixed" and model.ramp_fraction == 1.0

    def test_a_grid_point_outside_the_grid(self):
        with pytest.raises(ScenarioError) as info:
            parse_scenario(FULL, source="s.ini").design_spec(3, "late")
        assert str(info.value) == "s.ini: k = 3, spacing = late is outside the grid k = 2 3 4 5 x spacing = equal"

    def test_no_recruitment_section_means_no_models(self):
        sc = parse_scenario(FULL.split("[recruitment]")[0], source="s.ini")
        assert sc.models == () and sc.t_max is None
        with pytest.raises(ScenarioError, match=r"^s\.ini: a \[recruitment\] section is required$"):
            sc.recruitment_models()

    def test_mixed_ramp_list(self):
        text = FULL.replace("pattern = uniform", "pattern = mixed\nl = 0.2 0.4 0.6 0.8")
        sc = parse_scenario(text)
        assert tuple(model.ramp_fraction for model in sc.models) == (0.2, 0.4, 0.6, 0.8)
        assert len(sc.recruitment_models()) == 4


class TestErrors:
    def test_unknown_key_carries_line_number(self):
        text = "[design]\nalpha = 0.05\nbogus = 1\n"
        with pytest.raises(ScenarioError, match="line 3.*bogus"):
            parse_scenario(text)

    def test_unknown_section(self):
        with pytest.raises(ScenarioError, match="line 1"):
            parse_scenario("[misc]\nx = 1\n")

    def test_out_of_range_value_carries_line_number(self):
        text = "[design]\nalpha = 0.75\nbeta = 0.1\ntau = 0.5\nk = 2\nfamily = wt\n"
        with pytest.raises(ScenarioError, match="line 2.*alpha"):
            parse_scenario(text)

    def test_duplicate_key(self):
        with pytest.raises(ScenarioError, match="line 3.*duplicate"):
            parse_scenario("[design]\nalpha = 0.05\nalpha = 0.04\n")

    def test_missing_required_key(self):
        with pytest.raises(ScenarioError, match="missing required key 'alpha'"):
            parse_scenario("[design]\nbeta = 0.1\ntau = 0.5\nk = 2\nfamily = wt\n")

    def test_missing_design_section(self):
        with pytest.raises(ScenarioError, match="design"):
            parse_scenario("[delay]\nm = 3\n")

    def test_rho_conflicts_with_stage_list(self):
        text = (
            "[design]\nalpha=0.05\nbeta=0.1\ntau=0.5\nk = 2 3\n"
            "rho = 0.5 1\nfamily = wt\n"
        )
        with pytest.raises(ScenarioError, match="line 6"):
            parse_scenario(text)

    @pytest.mark.parametrize("rho", ["0.5 0.4 1", "0 0.5 1", "0.3 0.6 0.9", "nan 0.5 1"])
    def test_bad_rho_carries_line_number(self, rho):
        text = f"[design]\nalpha=0.05\nbeta=0.1\ntau=0.5\nk = 3\nrho = {rho}\nfamily = wt\n"
        with pytest.raises(ScenarioError, match="line 6: rho: .*fraction"):
            parse_scenario(text)

    def test_hsd_gamma_that_overflows_the_spend(self):
        text = "[design]\nalpha=0.05\nbeta=0.1\ntau=0.5\nk=2\nfamily=hsd\ngamma=-1000\n"
        with pytest.raises(ScenarioError, match="line 7: spending parameter gamma"):
            parse_scenario(text)

    @pytest.mark.parametrize("m", ["inf", "nan", "-1"])
    def test_delay_must_be_finite_and_non_negative(self, m):
        text = FULL.replace("m = 3 6 9 12 18 24", f"m = 3 {m}")
        with pytest.raises(ScenarioError, match="line 15: m = "):
            parse_scenario(text)

    def test_unknown_spacing_label(self):
        text = "[design]\nalpha=0.05\nbeta=0.1\ntau=0.5\nk = 5\nspacing = latest\nfamily = wt\n"
        with pytest.raises(ScenarioError, match="latest.*k = 5"):
            parse_scenario(text)

    def test_hsd_requires_gamma(self):
        with pytest.raises(ScenarioError, match="gamma"):
            parse_scenario("[design]\nalpha=0.05\nbeta=0.1\ntau=0.5\nk=2\nfamily=hsd\n")

    def test_gamma_rejected_for_wt(self):
        text = "[design]\nalpha=0.05\nbeta=0.1\ntau=0.5\nk=2\nfamily=wt\ngamma=-2\n"
        with pytest.raises(ScenarioError, match="line 7"):
            parse_scenario(text)

    def test_linear_rejects_explicit_ramp(self):
        text = FULL.replace("pattern = uniform", "pattern = linear\nl = 0.5")
        with pytest.raises(ScenarioError, match="implied"):
            parse_scenario(text)

    def test_empty_delay_list(self):
        text = FULL.replace("m = 3 6 9 12 18 24", "m =")
        with pytest.raises(ScenarioError, match="at least one delay"):
            parse_scenario(text)

    def test_not_a_number(self):
        text = "[design]\nalpha = fast\n"
        with pytest.raises(ScenarioError, match="line 2.*not a number"):
            parse_scenario(text)

    def test_key_outside_section(self):
        with pytest.raises(ScenarioError, match="line 1"):
            parse_scenario("alpha = 0.05\n")


# Every ranged key on its own line: the line number is the list index + 1.
RANGED = [
    "[design]", "alpha = 0.05", "beta = 0.1", "tau = 0.5", "k = 3", "family = wt", "delta = 0.25",
    "allocation = 1", "[recruitment]", "pattern = mixed", "t_max = 24", "l = 0.5", "[delay]",
    "m = 3", "m_interim = 0",
]


class TestLibraryRulesWithLineNumbers:
    """The parser applies the library's range rules and adds the line number."""

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "0"])
    @pytest.mark.parametrize(
        "key", ["alpha", "beta", "tau", "k", "allocation", "t_max", "l", "m", "m_interim"]
    )
    def test_non_finite_or_zero(self, key, token):
        line = next(i for i, text in enumerate(RANGED, start=1) if text.startswith(f"{key} ="))
        lines = list(RANGED)
        lines[line - 1] = f"{key} = {token}"
        text = "\n".join(lines) + "\n"
        if token == "0" and key in ("m", "m_interim"):
            # a zero delay or overhead is valid
            sc = parse_scenario(text)
            assert (sc.delays, sc.m_interim) == ((0.0,) if key == "m" else (3.0,), 0.0)
            return
        with pytest.raises(ScenarioError, match=rf"(?i)^line {line}: .*\b{key}\b"):
            parse_scenario(text)

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
    def test_non_finite_delta_carries_line_number(self, token):
        text = "\n".join(RANGED).replace("delta = 0.25", f"delta = {token}")
        with pytest.raises(ScenarioError, match="^line 7: Wang-Tsiatis shape must be finite"):
            parse_scenario(text)

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
    def test_non_finite_mu_carries_line_number(self, token):
        lines = list(RANGED)
        lines.insert(4, f"mu = {token}")
        with pytest.raises(ScenarioError, match=f"^line 5: mu = {token} must be finite"):
            parse_scenario("\n".join(lines) + "\n")

    def test_wrong_rho_count_carries_line_number(self):
        text = "[design]\nalpha=0.05\nbeta=0.1\ntau=0.5\nk = 3\nrho = 0.5 1\nfamily = wt\n"
        with pytest.raises(ScenarioError, match="line 6: rho: expected 3 information fractions, got 2"):
            parse_scenario(text)

    @pytest.mark.parametrize("value", ["text", "xml"])
    def test_output_format_other_than_csv_or_json_carries_line_number(self, value):
        text = FULL.replace("format = csv", f"format = {value}")
        line = text.splitlines().index(f"format = {value}") + 1
        with pytest.raises(ScenarioError, match=f"^line {line}: format must be csv or json, got '{value}'"):
            parse_scenario(text)

    @pytest.mark.parametrize("command", ["design", "sweep"])
    def test_cli_exits_2_on_an_output_format_other_than_csv_or_json(self, tmp_path, capsys, command):
        path = tmp_path / "scenario.ini"
        path.write_text(FULL.replace("k = 2 3 4 5", "k = 2").replace("format = csv", "format = text"))
        assert main([command, "--scenario", str(path)]) == 2
        assert "format must be csv or json" in capsys.readouterr().err


# A single design with mixed recruitment: [design] keys on lines 2-6,
# [recruitment] keys on lines 8-10, the delay on line 12.
SINGLE = """\
[design]
alpha = 0.05
beta = 0.1
tau = 0.5
k = 2
family = wang-tsiatis
[recruitment]
pattern = mixed
t_max = 24
l = 0.5
[delay]
m = 3
"""


def _without(text, key):
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith(f"{key} ="))


class TestOneMessagePerKind:
    @pytest.mark.parametrize(
        "text, key, section",
        [
            (_without(SINGLE, "alpha"), "alpha", "design"),
            (_without(SINGLE, "beta"), "beta", "design"),
            (_without(SINGLE, "tau"), "tau", "design"),
            (_without(SINGLE, "k"), "k", "design"),
            (_without(SINGLE, "family"), "family", "design"),
            (SINGLE.replace("family = wang-tsiatis", "family = hsd"), "gamma", "design"),
            (_without(SINGLE, "pattern"), "pattern", "recruitment"),
            (_without(SINGLE, "t_max"), "t_max", "recruitment"),
            (_without(SINGLE, "l"), "l", "recruitment"),
        ],
    )
    def test_missing_required_key(self, text, key, section):
        with pytest.raises(ScenarioError) as info:
            parse_scenario(text, source="s.ini")
        assert str(info.value) == f"s.ini: missing required key {key!r} in [{section}]"

    @pytest.mark.parametrize(
        "key, line, names",
        [
            ("family", 6, "wang-tsiatis or hsd"),
            ("futility", 7, "binding-zero, symmetric or none"),
            ("pattern", 9, "uniform, mixed or linear"),
            ("format", 15, "csv or json"),
        ],
    )
    def test_bad_choice(self, key, line, names):
        lines = SINGLE.splitlines()
        lines.insert(6, "futility = none")
        lines += ["[output]", "format = csv"]
        index = line - 1
        assert lines[index].startswith(f"{key} =")
        lines[index] = f"{key} = Other"
        with pytest.raises(ScenarioError) as info:
            parse_scenario("\n".join(lines) + "\n")
        assert str(info.value) == f"line {line}: {key} must be {names}, got 'Other'"

    @pytest.mark.parametrize(
        "key, line, what", [("k", 5, "stage count"), ("l", 10, "value"), ("m", 12, "delay length")]
    )
    def test_empty_list(self, key, line, what):
        lines = SINGLE.splitlines()
        assert lines[line - 1].startswith(f"{key} =")
        lines[line - 1] = f"{key} ="
        with pytest.raises(ScenarioError) as info:
            parse_scenario("\n".join(lines) + "\n")
        assert str(info.value) == f"line {line}: {key}: at least one {what} is required"

    def test_choices_ignore_case(self):
        sc = parse_scenario(SINGLE.replace("wang-tsiatis", "WT").replace("mixed", "Mixed"))
        assert (sc.parameters["family"], sc.models[0].pattern) == ("wang-tsiatis", "mixed")

    @pytest.mark.parametrize(
        "old, new, line, message",
        [
            ("k = 2", "k = 2 2", 5, "k: 2 is listed more than once"),
            ("k = 2", "k = 3\nspacing = late late", 6, "spacing: late is listed more than once"),
            ("l = 0.5", "l = 0.2 0.2", 10, "l: 0.2 is listed more than once"),
            ("m = 3", "m = 3 3", 12, "m: 3.0 is listed more than once"),
            ("m = 3", "m = 6 3 6/2", 12, "m: 3.0 is listed more than once"),
        ],
    )
    def test_a_grid_entry_listed_twice(self, tmp_path, capsys, old, new, line, message):
        # the grid holds one design per (k, spacing) and one row per (l, m)
        # under it; a repeat would repeat its rows
        text = SINGLE.replace(old, new)
        with pytest.raises(ScenarioError, match=f"^line {line}: {message}$"):
            parse_scenario(text)
        path = tmp_path / "scenario.ini"
        path.write_text(text)
        assert main(["sweep", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == f"error: line {line}: {message}\n"

    def test_uniform_rejects_a_ramp_fraction(self):
        with pytest.raises(ScenarioError, match="^line 10: l only applies to mixed recruitment$"):
            parse_scenario(SINGLE.replace("pattern = mixed", "pattern = uniform"))

    @pytest.mark.parametrize(
        "family, message",
        [
            ("family = hsd\ndelta = 0.25\ngamma = -2", "delta only applies to the wang-tsiatis family"),
            ("family = wang-tsiatis\ngamma = -2", "gamma only applies to the hsd family"),
        ],
    )
    def test_a_shape_parameter_belongs_to_one_family(self, family, message):
        with pytest.raises(ScenarioError, match=f"^line 7: {message}$"):
            parse_scenario(SINGLE.replace("family = wang-tsiatis", family))


# Inputs whose rules span keys; each fails at parse on the line it names.
SPANNING = [
    ("tau = 0.5", "tau = 1e-300", 4, "tau is too small for the allocation: sizes overflow"),
    ("l = 0.5", "l = 5e-324", 10, "the accrual rate of .* is outside the float range"),
    ("t_max = 24\nl = 0.5", "t_max = 1e308\nl = 1", 10, "the accrual rate of .* is outside"),
    ("pattern = mixed\nt_max = 24\nl = 0.5", "pattern = uniform\nt_max = 1e-310", 9,
     "the accrual rate of .* is outside"),
    ("pattern = mixed", "pattern = uniform", 10, "l only applies to mixed recruitment"),
    ("k = 2", "k = 2\nrho = 0.5 1\nspacing = equal", 7, "spacing cannot be combined with an explicit rho"),
]


class TestRulesThatSpanKeys:
    @pytest.mark.parametrize("old, new, line, message", SPANNING)
    def test_parse_names_the_line(self, old, new, line, message):
        with pytest.raises(ScenarioError, match=f"^line {line}: {message}"):
            parse_scenario(SINGLE.replace(old, new))

    @pytest.mark.parametrize("command", ["design", "sweep", "simulate"])
    @pytest.mark.parametrize("old, new, line, message", SPANNING)
    def test_every_command_exits_2_on_one_line(self, tmp_path, capsys, command, old, new, line, message):
        path = tmp_path / "scenario.ini"
        path.write_text(SINGLE.replace(old, new))
        assert main([command, "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line}: ") and err.count("\n") == 1

    def test_a_slope_that_overflows_only_at_n_max_fails_at_sweep_time(self, tmp_path, capsys):
        # n_max is unknown at parse, so l = 1e-308 parses; its design's curve overflows
        path = tmp_path / "scenario.ini"
        path.write_text(SINGLE.replace("t_max = 24\nl = 0.5", "t_max = 6\nl = 1e-308"))
        assert main(["design", "--scenario", str(path)]) == 0
        capsys.readouterr()
        assert main(["sweep", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: line 10: the accrual rate of ")


class TestSpacings:
    def test_equal_for_any_count(self):
        assert spacing_for(4, "equal") == (0.25, 0.5, 0.75, 1.0)

    def test_named_three_stage(self):
        assert spacing_for(3, "early") == (0.25, 0.5, 1.0)
        assert spacing_for(3, "late") == (0.5, 0.75, 1.0)
        assert spacing_for(3, "latest") == (0.6, 0.9, 1.0)

    def test_named_four_stage(self):
        assert spacing_for(4, "early") == (0.2, 0.4, 0.6, 1.0)
        assert spacing_for(4, "late") == (0.4, 0.6, 0.8, 1.0)

    def test_unknown_label(self):
        with pytest.raises(ScenarioError):
            spacing_for(2, "early")
