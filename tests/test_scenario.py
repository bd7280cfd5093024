import pytest

from gsdelay.boundaries import FutilityStyle
from gsdelay.errors import ScenarioError
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
        assert sc.alpha == 0.05 and sc.beta == 0.1 and sc.tau == 0.5
        assert sc.stages == (2, 3, 4, 5)
        assert sc.spacings == ("equal",)
        assert sc.family == "wang-tsiatis" and sc.shape == 0.25
        assert sc.futility is FutilityStyle.BINDING_ZERO
        assert sc.pattern == "uniform" and sc.t_max == 24.0
        assert sc.delays == (3.0, 6.0, 9.0, 12.0, 18.0, 24.0)
        assert sc.out_format == "csv"

    def test_fractions_and_comments(self):
        sc = parse_scenario(
            "[design]\n"
            "alpha = 0.05\nbeta = 0.1\ntau = 0.5\n"
            "k = 3\n"
            "rho = 1/3, 2/3, 1   # equally spaced\n"
            "family = wt\n"
        )
        assert sc.rho == pytest.approx((1 / 3, 2 / 3, 1.0))

    def test_mu_defaults_to_tau_downstream(self):
        sc = parse_scenario("[design]\nalpha=0.05\nbeta=0.1\ntau=0.5\nk=2\nfamily=wt\n")
        assert sc.mu is None
        assert sc.design_spec(2, "equal").evaluation_effect == 0.5

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

    def test_mixed_ramp_list(self):
        text = FULL.replace("pattern = uniform", "pattern = mixed\nl = 0.2 0.4 0.6 0.8")
        sc = parse_scenario(text)
        assert sc.ramp_fractions == (0.2, 0.4, 0.6, 0.8)
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
