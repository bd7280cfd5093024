"""Plain-text scenario files.

A scenario is an INI-like document with [design], [recruitment], [delay] and
[output] sections holding `key = value` lines. Values may be scalars or
space/comma-separated lists; fractions like 1/3 are accepted wherever a real
number is. The parser checks syntax and keys, then reads every key through
one of three readers: a number, a list (each token in turn) or a choice among
names. Each reader applies the library rule that owns the value and
re-raises its message with the line number:
``line 2: alpha = 0.75 must lie in (0, 0.5)``. A missing required key, an
empty list and a name outside a choice each have one message. The rules that
span keys are checked last, as each library object is built once: the sizes
of the DesignSpec at every grid point (K x spacing), on the line of tau, and
the accrual rate of one participant under every RecruitmentModel, on the
line of l (mixed) or t_max. A key the file leaves out is not passed on, so
its default is the library's. A k, spacing, l or m listed twice is refused
on its line, as it would repeat sweep rows; with an explicit rho the one
spacing label is "rho".

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

from contextlib import contextmanager
from dataclasses import dataclass, field
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
from .recruitment import RecruitmentModel, _check_delay, _check_ramp_fraction, _check_unit_rate

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

# Spellings a choice accepts beside the names its message lists.
_ALIASES = {"wt": "wang-tsiatis"}


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
    """A parsed, validated scenario: the library objects its grid is made of.

    ``designs`` maps each grid point (K, spacing label) to its DesignSpec, K
    outer and spacing inner; with an explicit rho the one label is "rho".
    ``stages`` and ``spacings`` are read off its keys.
    ``models`` holds one RecruitmentModel per ramp fraction (none without a
    [recruitment] section). ``parameters`` is the ``# key = value`` echo a
    sweep writes above its table.
    """

    designs: dict[tuple[int, str], DesignSpec]
    models: tuple[RecruitmentModel, ...]
    delays: tuple[float, ...]
    m_interim: float
    parameters: dict[str, str]
    out_format: str | None
    out_path: str | None
    source: str = "<scenario>"
    # the line the accrual-rate rule reports on: l (mixed) or t_max
    rate_line: int | None = field(default=None, compare=False, repr=False)

    @property
    def stages(self) -> tuple[int, ...]:
        """The stage counts of the grid, in the order given."""
        return tuple(dict.fromkeys(k for k, _ in self.designs))

    @property
    def spacings(self) -> tuple[str, ...]:
        """The spacing labels of the grid, in the order given."""
        return tuple(dict.fromkeys(label for _, label in self.designs))

    @property
    def t_max(self) -> float | None:
        """The recruitment period; None without a [recruitment] section."""
        return self.models[0].t_max if self.models else None

    def design_spec(self, num_stages: int, spacing: str) -> DesignSpec:
        try:
            return self.designs[num_stages, spacing]
        except KeyError:
            raise ScenarioError(
                f"{self.source}: k = {num_stages}, spacing = {spacing} is outside the grid "
                f"k = {' '.join(map(str, self.stages))} x spacing = {' '.join(self.spacings)}"
            ) from None

    def recruitment_models(self) -> tuple[RecruitmentModel, ...]:
        if not self.models:
            raise ScenarioError(f"{self.source}: a [recruitment] section is required")
        return self.models

    @contextmanager
    def rate_errors_on_line(self):
        """Re-raise a ConfigError from an accrual curve on the line of l or t_max.

        The rate for n_max participants is known only once a design is built,
        so this part of the accrual-rate rule is checked where curves are made.
        """
        try:
            yield
        except ConfigError as exc:
            raise ScenarioError(str(exc), self.rate_line) from None


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


def _integer(token: str, line: int, key: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ScenarioError(f"{key}: {token!r} is not an integer", line) from None


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

    def get(section: str, key: str, required: bool = False) -> _Entry | None:
        """A key's entry; None when it is absent and not required."""
        entry = sections.get(section, {}).get(key)
        if entry is None and required:
            raise ScenarioError(f"{source}: missing required key {key!r} in [{section}]")
        return entry

    def checked(entry: _Entry, rule, *args, **kwargs):
        """Apply a library rule, re-raising its ConfigError with the entry's line."""
        try:
            return rule(*args, **kwargs)
        except ConfigError as exc:
            raise ScenarioError(str(exc), entry.line) from None

    def number(section: str, key: str, rule, *names, required=False, default=None):
        """A real value through its library rule; default when the key is absent."""
        entry = get(section, key, required)
        if entry is None:
            return default
        return checked(entry, rule, *names, _real(entry.value, entry.line, key))

    def listed(section: str, key: str, what: str, rule, *names, required=False, read=_real):
        """Each token of a list through its library rule; () when the key is absent.

        Every list is a grid axis (k, spacing, l or m), so a value listed
        twice is refused: it would repeat a design or sweep rows.
        """
        entry = get(section, key, required)
        if entry is None:
            return ()
        values = tuple(
            checked(entry, rule, *names, read(t, entry.line, key)) for t in _tokenize(entry.value)
        )
        if not values:
            raise ScenarioError(f"{key}: at least one {what} is required", entry.line)
        seen = set()
        for value in values:
            if value in seen:
                raise ScenarioError(f"{key}: {value} is listed more than once", entry.line)
            seen.add(value)
        return values

    def choice(section: str, key: str, options: tuple[str, ...], required=False) -> str | None:
        """The lower-cased value, one of options; None when the key is absent."""
        entry = get(section, key, required)
        if entry is None:
            return None
        value = _ALIASES.get(entry.value.lower(), entry.value.lower())
        if value not in options:
            names = f"{', '.join(options[:-1])} or {options[-1]}"
            raise ScenarioError(f"{key} must be {names}, got {entry.value!r}", entry.line)
        return value

    alpha = number("design", "alpha", _check_alpha, required=True)
    beta = number("design", "beta", _check_beta, required=True)
    tau = number("design", "tau", _check_positive, "tau", required=True)
    mu = number("design", "mu", _check_finite, "mu")
    stages = listed("design", "k", "stage count", _check_stages, required=True, read=_integer)

    rho = None
    if (e := get("design", "rho")) is not None:
        rho = tuple(_real(t, e.line, "rho") for t in _tokenize(e.value))
        if len(stages) != 1:
            raise ScenarioError("rho cannot be combined with a list of stage counts", e.line)
        try:
            _check_fractions(rho, stages[0])
        except ConfigError as exc:
            raise ScenarioError(f"rho: {exc}", e.line) from None

    def spacing_rule(label: str) -> str:
        for k in stages:
            spacing_for(k, label)
        return label

    if rho is not None and (e := get("design", "spacing")) is not None:
        raise ScenarioError("spacing cannot be combined with an explicit rho", e.line)
    spacings = listed("design", "spacing", "label", spacing_rule, read=lambda t, *_: t.lower())
    spacings = ("rho",) if rho is not None else spacings or ("equal",)

    family = choice("design", "family", ("wang-tsiatis", "hsd"), required=True)
    for key, owner in (("delta", "wang-tsiatis"), ("gamma", "hsd")):
        if (e := get("design", key)) is not None and family != owner:
            raise ScenarioError(f"{key} only applies to the {owner} family", e.line)
    if family == "hsd":
        boundary = number("design", "gamma", HwangShihDeCani, required=True)
    else:
        boundary = number("design", "delta", WangTsiatis)
    futility = choice("design", "futility", tuple(s.value for s in FutilityStyle))
    allocation = number("design", "allocation", _check_positive, "allocation")
    # only the keys the file sets: DesignSpec holds the defaults
    given = {"mu_eval": mu, "family": boundary, "allocation": allocation,
             "futility": futility and FutilityStyle(futility)}
    given = {name: value for name, value in given.items() if value is not None}

    models: tuple[RecruitmentModel, ...] = ()
    if "recruitment" in sections:
        pattern = choice("recruitment", "pattern", ("uniform", "mixed", "linear"), required=True)
        t_max = number("recruitment", "t_max", _check_positive, "t_max", required=True)
        e = get("recruitment", "l", required=pattern == "mixed")
        if e is not None and pattern == "linear":
            raise ScenarioError("l is implied by the linear pattern", e.line)
        if e is not None and pattern == "uniform":
            raise ScenarioError("l only applies to mixed recruitment", e.line)
        if pattern == "uniform":
            models = (RecruitmentModel.uniform(t_max),)
        else:
            # linear is one full ramp
            ramps = listed("recruitment", "l", "value", _check_ramp_fraction) or (1.0,)
            models = tuple(RecruitmentModel.mixed(t_max, l) for l in ramps)

    delays = listed("delay", "m", "delay length", _check_delay, "m")
    m_interim = number("delay", "m_interim", _check_delay, "m_interim", default=0.0)
    out_format = choice("output", "format", ("csv", "json"))
    out_path = get("output", "path")

    # the rules that span keys: the sizes each design implies, on the line of
    # tau, and the accrual rate of one participant, on the line of l or t_max
    designs = {
        (k, label): checked(
            get("design", "tau"), DesignSpec, alpha, beta, tau, k,
            info_fractions=rho or spacing_for(k, label), **given,
        )
        for k in stages
        for label in spacings
    }
    rate_entry = get("recruitment", "l") or get("recruitment", "t_max")
    for model in models:
        checked(rate_entry, _check_unit_rate, model)

    spec = next(iter(designs.values()))
    parameters = {name: repr(getattr(spec, name)) for name in ("alpha", "beta", "tau", "allocation")}
    parameters.update(
        mu=repr(spec.evaluation_effect),
        futility=spec.futility.value,
        family=family,
        stages=" ".join(map(str, stages)),
        spacing=" ".join(spacings),
        m=" ".join(map(repr, delays)),
        m_interim=repr(m_interim),
    )
    if rho is not None:
        parameters["rho"] = " ".join(map(repr, rho))
    if isinstance(boundary, WangTsiatis):
        parameters["delta"] = repr(boundary.shape)
    elif boundary is not None:
        parameters["gamma"] = repr(boundary.gamma)
    if models:
        parameters.update(pattern=models[0].pattern, t_max=repr(models[0].t_max))
    if models and models[0].pattern == "mixed":
        parameters["l"] = " ".join(repr(model.ramp_fraction) for model in models)
    return Scenario(
        designs=designs,
        models=models,
        delays=delays,
        m_interim=m_interim,
        parameters=parameters,
        out_format=out_format,
        out_path=out_path.value if out_path is not None else None,
        source=source,
        rate_line=rate_entry.line if rate_entry is not None else None,
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from None
    return parse_scenario(text, source=str(path))
