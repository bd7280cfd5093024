"""Plain-text scenario files.

A scenario is an INI-like document with [design], [recruitment], [delay] and
[output] sections holding `key = value` lines. Values may be scalars or
space/comma-separated lists; fractions like 1/3 are accepted wherever a real
number is. The parser checks syntax, keys and cross-key rules; each value's
range is checked by the library rule that owns it, whose message is re-raised
with the line number: ``line 2: alpha = 0.75 must lie in (0, 0.5)``.

Example::

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

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .boundaries import (
    FutilityStyle,
    HwangShihDeCani,
    WangTsiatis,
    _check_alpha,
    _check_fractions,
    _check_stages,
)
from .design import DesignSpec, _check_beta, _check_finite, _check_positive
from .errors import ConfigError, ScenarioError
from .recruitment import RecruitmentModel, _check_delay, _check_ramp_fraction

__all__ = ["Scenario", "parse_scenario", "load_scenario", "INTERIM_SPACINGS", "spacing_for"]

# Named interim spacings; "equal" is available for every stage count.
INTERIM_SPACINGS: dict[int, dict[str, tuple[float, ...]]] = {
    3: {
        "early": (0.25, 0.5, 1.0),
        "late": (0.5, 0.75, 1.0),
        "latest": (0.6, 0.9, 1.0),
    },
    4: {
        "early": (0.2, 0.4, 0.6, 1.0),
        "late": (0.4, 0.6, 0.8, 1.0),
    },
}

_KNOWN_KEYS = {
    "design": {
        "alpha", "beta", "tau", "mu", "k", "rho", "spacing",
        "family", "delta", "gamma", "futility", "allocation",
    },
    "recruitment": {"pattern", "t_max", "l"},
    "delay": {"m", "m_interim"},
    "output": {"format", "path"},
}


def spacing_for(num_stages: int, label: str) -> tuple[float, ...]:
    """Information fractions for a named spacing at a given stage count."""
    if label == "equal":
        return tuple((k + 1) / num_stages for k in range(num_stages))
    named = INTERIM_SPACINGS.get(num_stages, {})
    if label not in named:
        raise ScenarioError(f"no spacing named {label!r} for k = {num_stages}")
    return named[label]


@dataclass
class Scenario:
    """A parsed, validated scenario."""

    alpha: float
    beta: float
    tau: float
    mu: float | None
    stages: tuple[int, ...]
    spacings: tuple[str, ...]
    rho: tuple[float, ...] | None
    family: str
    shape: float | None
    gamma: float | None
    futility: FutilityStyle
    allocation: float
    pattern: str | None
    t_max: float | None
    ramp_fractions: tuple[float, ...]
    delays: tuple[float, ...]
    m_interim: float
    out_format: str | None
    out_path: str | None
    source: str = "<scenario>"

    def design_spec(self, num_stages: int, spacing: str) -> DesignSpec:
        if self.family == "wang-tsiatis":
            family = WangTsiatis(self.shape if self.shape is not None else 0.25)
        else:
            family = HwangShihDeCani(self.gamma)
        rho = self.rho if self.rho is not None else spacing_for(num_stages, spacing)
        return DesignSpec(
            alpha=self.alpha,
            beta=self.beta,
            tau=self.tau,
            num_stages=num_stages,
            family=family,
            futility=self.futility,
            mu_eval=self.mu,
            info_fractions=rho,
            allocation=self.allocation,
        )

    def recruitment_models(self) -> tuple[RecruitmentModel, ...]:
        if self.pattern is None or self.t_max is None:
            raise ScenarioError(f"{self.source}: a [recruitment] section is required")
        if self.pattern == "uniform":
            return (RecruitmentModel.uniform(self.t_max),)
        return tuple(RecruitmentModel.mixed(self.t_max, l) for l in self.ramp_fractions)

    def parameter_echo(self) -> dict[str, str]:
        """Flat, deterministic parameter listing for report provenance."""
        echo = {
            "alpha": repr(self.alpha),
            "beta": repr(self.beta),
            "tau": repr(self.tau),
            "mu": repr(self.mu if self.mu is not None else self.tau),
            "stages": " ".join(map(str, self.stages)),
            "spacing": " ".join(self.spacings),
            "family": self.family,
            "futility": self.futility.value,
            "allocation": repr(self.allocation),
        }
        if self.rho is not None:
            echo["rho"] = " ".join(repr(r) for r in self.rho)
        if self.shape is not None:
            echo["delta"] = repr(self.shape)
        if self.gamma is not None:
            echo["gamma"] = repr(self.gamma)
        if self.pattern is not None:
            echo["pattern"] = self.pattern
            echo["t_max"] = repr(self.t_max)
        if self.ramp_fractions:
            echo["l"] = " ".join(repr(l) for l in self.ramp_fractions)
        echo["m"] = " ".join(repr(m) for m in self.delays)
        echo["m_interim"] = repr(self.m_interim)
        return echo


class _Entry(NamedTuple):
    value: str
    line: int


def _tokenize(raw: str) -> list[str]:
    return raw.replace(",", " ").split()


def _real(token: str, line: int, key: str) -> float:
    try:
        if "/" in token:
            return float(Fraction(token))
        return float(token)
    except (ValueError, ZeroDivisionError):
        raise ScenarioError(f"{key}: {token!r} is not a number", line) from None


def _parse_sections(text: str, source: str) -> dict[str, dict[str, _Entry]]:
    sections: dict[str, dict[str, _Entry]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _KNOWN_KEYS:
                raise ScenarioError(f"unknown section [{name}]", lineno)
            current = name
            sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ScenarioError("expected 'key = value'", lineno)
        if current is None:
            raise ScenarioError("key outside of any section", lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in _KNOWN_KEYS[current]:
            raise ScenarioError(f"unknown key {key!r} in [{current}]", lineno)
        if key in sections[current]:
            raise ScenarioError(f"duplicate key {key!r} in [{current}]", lineno)
        sections[current][key] = _Entry(value.strip(), lineno)
    if "design" not in sections:
        raise ScenarioError(f"{source}: a [design] section is required")
    return sections


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    """Parse and validate a scenario document."""
    sections = _parse_sections(text, source)
    design = sections["design"]

    def need(section: dict[str, _Entry], key: str) -> _Entry:
        if key not in section:
            raise ScenarioError(f"{source}: missing required key {key!r} in [design]")
        return section[key]

    def checked(entry: _Entry, rule, *args):
        """Apply a library rule, re-raising its ConfigError with the entry's line."""
        try:
            return rule(*args)
        except ConfigError as exc:
            raise ScenarioError(str(exc), entry.line) from None

    def real(entry: _Entry, key: str, rule, *names) -> float:
        return checked(entry, rule, *names, _real(entry.value, entry.line, key))

    alpha = real(need(design, "alpha"), "alpha", _check_alpha)
    beta = real(need(design, "beta"), "beta", _check_beta)
    tau = real(need(design, "tau"), "tau", _check_positive, "tau")
    mu = None
    if "mu" in design:
        mu = real(design["mu"], "mu", _check_finite, "mu")

    e = need(design, "k")
    stages = []
    for token in _tokenize(e.value):
        try:
            k = int(token)
        except ValueError:
            raise ScenarioError(f"k: {token!r} is not an integer", e.line) from None
        stages.append(checked(e, _check_stages, k))
    if not stages:
        raise ScenarioError("k: at least one stage count is required", e.line)

    rho = None
    if "rho" in design:
        e = design["rho"]
        values = tuple(_real(t, e.line, "rho") for t in _tokenize(e.value))
        if len(stages) != 1:
            raise ScenarioError("rho cannot be combined with a list of stage counts", e.line)
        try:
            _check_fractions(values, stages[0])
        except ConfigError as exc:
            raise ScenarioError(f"rho: {exc}", e.line) from None
        rho = values

    spacings: tuple[str, ...] = ("equal",)
    if "spacing" in design:
        e = design["spacing"]
        if rho is not None:
            raise ScenarioError("spacing cannot be combined with an explicit rho", e.line)
        labels = tuple(t.lower() for t in _tokenize(e.value))
        if not labels:
            raise ScenarioError("spacing: at least one label is required", e.line)
        for label in labels:
            for k in stages:
                checked(e, spacing_for, k, label)
        spacings = labels

    e = need(design, "family")
    family = e.value.lower()
    if family in ("wang-tsiatis", "wt"):
        family = "wang-tsiatis"
    elif family != "hsd":
        raise ScenarioError(f"family must be wang-tsiatis or hsd, got {e.value!r}", e.line)

    shape = gamma = None
    if "delta" in design:
        e = design["delta"]
        if family != "wang-tsiatis":
            raise ScenarioError("delta only applies to the wang-tsiatis family", e.line)
        shape = real(e, "delta", WangTsiatis).shape
    if "gamma" in design:
        e = design["gamma"]
        if family != "hsd":
            raise ScenarioError("gamma only applies to the hsd family", e.line)
        gamma = real(e, "gamma", HwangShihDeCani).gamma
    if family == "hsd" and gamma is None:
        raise ScenarioError(f"{source}: the hsd family requires a gamma value")

    futility = FutilityStyle.BINDING_ZERO
    if "futility" in design:
        e = design["futility"]
        try:
            futility = FutilityStyle(e.value.lower())
        except ValueError:
            valid = ", ".join(s.value for s in FutilityStyle)
            raise ScenarioError(f"futility must be one of {valid}", e.line) from None

    allocation = 1.0
    if "allocation" in design:
        allocation = real(design["allocation"], "allocation", _check_positive, "allocation")

    pattern = t_max = None
    ramp_fractions: tuple[float, ...] = ()
    if "recruitment" in sections:
        rec = sections["recruitment"]
        if "pattern" not in rec:
            raise ScenarioError(f"{source}: [recruitment] requires a pattern")
        e = rec["pattern"]
        pattern = e.value.lower()
        if pattern not in ("uniform", "mixed", "linear"):
            raise ScenarioError(f"pattern must be uniform, mixed or linear, got {e.value!r}", e.line)
        if "t_max" not in rec:
            raise ScenarioError(f"{source}: [recruitment] requires t_max")
        t_max = real(rec["t_max"], "t_max", _check_positive, "t_max")
        if pattern == "mixed":
            if "l" not in rec:
                raise ScenarioError(f"{source}: mixed recruitment requires l")
            e = rec["l"]
            ramp_fractions = tuple(
                checked(e, _check_ramp_fraction, _real(t, e.line, "l")) for t in _tokenize(e.value)
            )
            if not ramp_fractions:
                raise ScenarioError("l: at least one value is required", e.line)
        elif pattern == "linear":
            if "l" in rec:
                raise ScenarioError("l is implied by the linear pattern", rec["l"].line)
            pattern = "mixed"
            ramp_fractions = (1.0,)

    delays: tuple[float, ...] = ()
    m_interim = 0.0
    if "delay" in sections:
        dly = sections["delay"]
        if "m" in dly:
            e = dly["m"]
            delays = tuple(
                checked(e, _check_delay, "m", _real(t, e.line, "m")) for t in _tokenize(e.value)
            )
            if not delays:
                raise ScenarioError("m: at least one delay length is required", e.line)
        if "m_interim" in dly:
            m_interim = real(dly["m_interim"], "m_interim", _check_delay, "m_interim")

    out_format = out_path = None
    if "output" in sections:
        out = sections["output"]
        if "format" in out:
            e = out["format"]
            out_format = e.value.lower()
            if out_format not in ("csv", "json", "text"):
                raise ScenarioError(f"format must be csv, json or text, got {e.value!r}", e.line)
        if "path" in out:
            out_path = out["path"].value

    return Scenario(
        alpha=alpha,
        beta=beta,
        tau=tau,
        mu=mu,
        stages=tuple(stages),
        spacings=spacings,
        rho=rho,
        family=family,
        shape=shape,
        gamma=gamma,
        futility=futility,
        allocation=allocation,
        pattern=pattern,
        t_max=t_max,
        ramp_fractions=ramp_fractions,
        delays=delays,
        m_interim=m_interim,
        out_format=out_format,
        out_path=out_path,
        source=source,
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from None
    return parse_scenario(text, source=str(path))
