"""Result tables, parameter sweeps, the case-study replica and reference checks.

The sweep table is the canonical interchange format: a fixed 17-column schema
with sample sizes, pipeline counts and efficiency metrics formatted to two
decimals (gain fractions to four). A sweep assesses all delays of one
(design, recruitment model) pair in one call of ``delay._delay_columns`` and
formats each column of that block at once; the cells are the same strings as
per-row evaluation gives. CSV files carry the full parameter echo in
``# key = value`` comment lines so any output can be traced back to its
scenario; the JSON format mirrors the CSV one object per row. Output is fully
deterministic for a given scenario.

Bundled reference tables (``reference/*.csv``) hold the expected operating
characteristics for a battery of designs; ``verify_all`` walks one list of
them, recomputes every cell and compares at per-table tolerances.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import repeat
from pathlib import Path

import numpy as np

from .boundaries import FutilityStyle, WangTsiatis
from .delay import DelayQuery, _delay_columns, assess_delay
from .design import DesignSpec, GroupSequentialDesign, build_design, round_for_report, single_stage_n
from .errors import ScenarioError
from .recruitment import RecruitmentModel
from .scenario import Scenario, spacing_for

__all__ = [
    "SWEEP_COLUMNS",
    "CASE_STUDY_COLUMNS",
    "ResultTable",
    "run_sweep",
    "case_study_table",
    "case_study_tau",
    "CellCheck",
    "TableReport",
    "verify_all",
]

MAX_TABLE_STAGES = 5

SWEEP_COLUMNS = (
    "K", "m", "l", "spacing", "n_max", "ess", "ess_delay",
    "pipeline_1", "pipeline_2", "pipeline_3", "pipeline_4", "pipeline_5",
    "eg", "eg_delay", "el", "et", "et_single",
)

CASE_STUDY_COLUMNS = (
    "boundary", "K", "n_1", "n_2", "n_3", "n_4", "n_5",
    "pipeline_1", "pipeline_2", "pipeline_3", "pipeline_4", "pipeline_5",
    "ess", "ess_delay", "el",
)

# Case-study constants: one-sided level, power, recruitment window and delay of
# the motivating trial; the target effect is calibrated so the single-stage
# design needs exactly 214 participants.
_CASE_ALPHA = 0.05
_CASE_BETA = 0.1
_CASE_N_SINGLE = 214.0
_CASE_T_MAX = 7.0
_CASE_M = 6.0
_CASE_FAMILIES = (("pocock", 0.5), ("obf", 0.0), ("wt", 0.25))

# Enough for every design behind the bundled reference tables (21) and the
# sweeps of a few scenarios besides.
_DESIGN_CACHE_SIZE = 64
_build_cached = lru_cache(maxsize=_DESIGN_CACHE_SIZE)(build_design)


def _column(values) -> list[str]:
    """A column of floats (a numpy array) formatted to two decimals."""
    return [f"{v:.2f}" for v in values.tolist()]


def _pipeline_columns(pipeline) -> list:
    """The pipeline columns of a (M, K) block: two decimals up to stage K, blank after."""
    num_stages = pipeline.shape[1]
    return [_column(pipeline[:, k]) for k in range(num_stages)] + [repeat("")] * (
        MAX_TABLE_STAGES - num_stages
    )


def _el_column(cols):
    """The efficiency-loss column: blank throughout when the design gains nothing."""
    return repeat("") if cols.el is None else _column(cols.el)


@dataclass
class ResultTable:
    """An ordered grid of result rows under a fixed column schema."""

    columns: tuple[str, ...]
    rows: list[tuple[str, ...]]
    parameters: dict[str, str]

    def to_csv(self) -> str:
        buf = io.StringIO()
        for key in sorted(self.parameters):
            buf.write(f"# {key} = {self.parameters[key]}\n")
        buf.write(",".join(self.columns) + "\n")
        for row in self.rows:
            buf.write(",".join(row) + "\n")
        return buf.getvalue()

    def to_json(self) -> str:
        def cell(value: str):
            if value == "":
                return None
            try:
                return int(value)
            except ValueError:
                pass
            try:
                return float(value)
            except ValueError:
                return value

        payload = {
            "parameters": self.parameters,
            "columns": list(self.columns),
            "rows": [
                {col: cell(val) for col, val in zip(self.columns, row)} for row in self.rows
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def write(self, path: str | Path, fmt: str = "csv") -> None:
        text = self.to_csv() if fmt == "csv" else self.to_json()
        Path(path).write_text(text, encoding="utf-8", newline="")


def _sweep_block(design, spacing, model, ms, m_cells, m_interim) -> zip:
    """The sweep rows of one (design, recruitment model) pair, one per delay in ms."""
    cols = _delay_columns(design, model, ms, m_interim)
    return zip(
        repeat(str(design.num_stages)),
        m_cells,
        repeat("" if model.pattern == "uniform" else f"{model.ramp_fraction:.2f}"),
        repeat(spacing),
        repeat(f"{design.max_n:.2f}"),
        repeat(f"{design.ess:.2f}"),
        _column(cols.ess_delay),
        *_pipeline_columns(cols.pipeline),
        repeat(f"{design.eg:.4f}"),
        [f"{v:.4f}" for v in cols.eg_delay.tolist()],
        _el_column(cols),
        _column(cols.et),
        _column(cols.et_single),
    )


def run_sweep(scenario: Scenario, threads: int = 1) -> ResultTable:
    """Evaluate the scenario grid (K x spacing x l x m) into a ResultTable.

    Rows come out in deterministic grid order regardless of how many worker
    threads build the designs.
    """
    if not scenario.delays:
        raise ScenarioError(f"{scenario.source}: a [delay] section with m values is required")
    for k in scenario.stages:
        if k > MAX_TABLE_STAGES:
            raise ScenarioError(
                f"{scenario.source}: the sweep table schema supports up to {MAX_TABLE_STAGES} stages"
            )
    models = scenario.recruitment_models()
    keys = [(k, spacing) for k in scenario.stages for spacing in scenario.spacings]

    def build(key):
        k, spacing = key
        return _build_cached(scenario.design_spec(k, spacing))

    if threads > 1 and len(keys) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, os.cpu_count() or 1)) as pool:
            designs = dict(zip(keys, pool.map(build, keys)))
    else:
        designs = {key: build(key) for key in keys}

    ms = scenario.delays
    m_cells = _column(np.asarray(ms, dtype=float))
    rows = []
    for key in keys:
        for model in models:
            rows += _sweep_block(designs[key], key[1], model, ms, m_cells, scenario.m_interim)
    return ResultTable(columns=SWEEP_COLUMNS, rows=rows, parameters=scenario.parameter_echo())


def case_study_tau() -> float:
    """Target effect making the single-stage design need 214 participants."""
    base = single_stage_n(_CASE_ALPHA, _CASE_BETA, 1.0)
    return math.sqrt(base / _CASE_N_SINGLE)


def _case_design(shape: float, num_stages: int) -> GroupSequentialDesign:
    spec = DesignSpec(
        alpha=_CASE_ALPHA,
        beta=_CASE_BETA,
        tau=case_study_tau(),
        num_stages=num_stages,
        family=WangTsiatis(shape),
        futility=FutilityStyle.NONE,
    )
    return _build_cached(spec)


def case_study_table() -> ResultTable:
    """The built-in case study: twelve designs under a six-month delay.

    Boundaries are Pocock, O'Brien-Fleming and Wang-Tsiatis(0.25) without a
    futility bound, K = 2..5, with the maximum size recruited uniformly over
    seven months.
    """
    rows = []
    model = RecruitmentModel.uniform(_CASE_T_MAX)
    for name, shape in _CASE_FAMILIES:
        for num_stages in (2, 3, 4, 5):
            design = _case_design(shape, num_stages)
            cols = _delay_columns(design, model, (_CASE_M,), 0.0)
            stage_cells = [str(n) for n in round_for_report(design)]
            stage_cells += [""] * (MAX_TABLE_STAGES - num_stages)
            rows += zip(
                [name],
                repeat(str(num_stages)),
                *(repeat(cell) for cell in stage_cells),
                *_pipeline_columns(cols.pipeline),
                repeat(f"{design.ess:.2f}"),
                _column(cols.ess_delay),
                _el_column(cols),
            )
    parameters = {
        "alpha": repr(_CASE_ALPHA),
        "beta": repr(_CASE_BETA),
        "tau": f"{case_study_tau():.6f}",
        "n_single": repr(_CASE_N_SINGLE),
        "t_max": repr(_CASE_T_MAX),
        "m": repr(_CASE_M),
        "futility": FutilityStyle.NONE.value,
        "pattern": "uniform",
    }
    return ResultTable(columns=CASE_STUDY_COLUMNS, rows=rows, parameters=parameters)


# --------------------------------------------------------------------------
# reference verification


@dataclass
class CellCheck:
    table: str
    row: str
    column: str
    expected: float
    computed: float
    tolerance: str
    ok: bool


@dataclass
class TableReport:
    name: str
    checks: list[CellCheck]

    @property
    def failures(self) -> list[CellCheck]:
        return [c for c in self.checks if not c.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL"
        max_dev = max(
            (abs(c.computed - c.expected) / abs(c.expected) for c in self.checks if c.expected),
            default=0.0,
        )
        return (
            f"{self.name}: {len(self.checks) - len(self.failures)}/{len(self.checks)} cells ok "
            f"[{status}], max dev {max_dev:.2%}"
        )


def _read_reference(name: str) -> list[dict[str, str]]:
    text = resources.files("gsdelay.reference").joinpath(name).read_text(encoding="utf-8")
    return list(csv.DictReader(line for line in text.splitlines() if line.strip() and line[0] != "#"))


def _check(table, row_key, column, expected, computed, tol, relative=False) -> CellCheck:
    bound, label = (tol * abs(expected), f"rel {tol:.0%}") if relative else (tol, f"abs {tol}")
    return CellCheck(table, row_key, column, expected, computed, label, abs(computed - expected) <= bound)


def _table_design(row: dict[str, str]) -> GroupSequentialDesign:
    """The Wang-Tsiatis(0.25) design behind a row of the delay tables."""
    num_stages = int(row["K"])
    spec = DesignSpec(
        alpha=0.05,
        beta=0.1,
        tau=0.5,
        num_stages=num_stages,
        family=WangTsiatis(0.25),
        futility=FutilityStyle.BINDING_ZERO,
        info_fractions=spacing_for(num_stages, row.get("spacing", "equal")),
    )
    return _build_cached(spec)


def _case_row_design(row: dict[str, str]) -> GroupSequentialDesign:
    return _case_design(dict(_CASE_FAMILIES)[row["boundary"]], int(row["K"]))


# (table name, reference file, recruitment model for a row, design for a row),
# in report order
_REFERENCE_TABLES = (
    ("uniform-recruitment", "uniform_equal.csv", lambda row: RecruitmentModel.uniform(24.0), _table_design),
    ("linear-recruitment", "linear_equal.csv", lambda row: RecruitmentModel.linear(24.0), _table_design),
    (
        "mixed-recruitment",
        "mixed.csv",
        lambda row: RecruitmentModel.mixed(24.0, float(row["l"])),
        _table_design,
    ),
    ("unequal-spacing", "unequal.csv", lambda row: RecruitmentModel.uniform(24.0), _table_design),
    ("case-study", "case_study.csv", lambda row: RecruitmentModel.uniform(_CASE_T_MAX), _case_row_design),
)


def _row_checks(table: str, row: dict[str, str], design, assessment) -> list[CellCheck]:
    """Compare the cells one reference row holds; its columns say which, and how."""
    K = design.num_stages
    el = assessment.el
    if "boundary" in row:
        # the case study: whole-participant stage sizes and the loss
        key = f"{row['boundary']} K={K}"
        cells = [(f"n_{k + 1}", float(n), 1.0) for k, n in enumerate(round_for_report(design))]
        cells.append(("el", el, 1.5))
    else:
        spacing = row.get("spacing", "equal")
        key = f"K={K} m={row['m']}" + (f" {spacing}" if spacing != "equal" else "")
        key += f" l={row['l']}" if "l" in row else ""
        if "n_max" in row:
            cells = [("n_max", design.max_n, 0.3), ("ess", design.ess, 0.3)]
            cells.append(("ess_delay", assessment.ess_delay, 0.3))
            cells += [(f"pipeline_{k + 1}", p, 0.3) for k, p in enumerate(assessment.profile.pipeline)]
            cells.append(("el", el, 1.0))
        elif abs(float(row["ess_delay"]) - design.max_n) <= 0.1:
            # efficiency loss only; a row whose delayed size saturates at the
            # maximum is an exact plateau and gets the absolute tolerance
            cells = [("el", el, 1.0)]
        else:
            # efficiency loss only, at a relaxed relative tolerance
            return [_check(table, key, "el", float(row["el"]), el, 0.03, relative=True)]
    return [_check(table, key, column, float(row[column]), value, tol) for column, value, tol in cells]


def verify_all() -> list[TableReport]:
    """Recompute every bundled reference table and compare cell by cell."""
    reports = []
    for name, filename, model_for_row, design_for_row in _REFERENCE_TABLES:
        checks: list[CellCheck] = []
        for row in _read_reference(filename):
            design = design_for_row(row)
            # the case-study table has no m column: its one delay is six months
            query = DelayQuery(m=float(row.get("m", _CASE_M)), model=model_for_row(row))
            checks += _row_checks(name, row, design, assess_delay(design, query))
        reports.append(TableReport(name=name, checks=checks))
    return reports
