"""Result tables, parameter sweeps, the case-study replica and reference checks.

The sweep table is the canonical interchange format: a fixed 17-column schema
with sample sizes, pipeline counts and efficiency metrics formatted to two
decimals (gain fractions to four). A sweep assesses each design once, under
all of its recruitment models and delays, in one call of
``delay._delay_columns``, and formats each column of that block with one
%-format call; the case study builds its rows the same way, one model and
one delay per design. The cells are the same strings as per-row evaluation
gives. CSV files carry the full parameter echo in
``# key = value`` comment lines so any output can be traced back to its
scenario; the JSON format mirrors the CSV one object per row. Output is fully
deterministic for a given scenario.

Bundled reference tables (``reference/*.csv``) hold the expected operating
characteristics for a battery of designs. ``verify_all`` computes each as a
grid, the sweep of its bundled scenarios (``reference/*.ini``) or the case
study's designs, matches every row to one cell and compares at per-table
tolerances.
"""

from __future__ import annotations

import csv
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
from .delay import _delay_columns
from .design import DesignSpec, build_design, round_for_report, single_stage_n
from .errors import ScenarioError
from .recruitment import RecruitmentModel
from .scenario import Scenario, parse_scenario

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


def _column(values, fmt: str = "%.2f") -> list[str]:
    """A numpy array of floats as text to two decimals (or by fmt), one cell per entry in C order.

    One %-format call makes the whole column; it formats each value with the
    same routine as ``f"{v:.2f}"``, so the cells are the same strings.
    """
    values = values.ravel().tolist()
    return (f"{fmt}\n" * len(values) % tuple(values)).split("\n")[:-1]


def _block(design, models, ms, m_interim) -> dict:
    """The delay columns of one design under each recruitment model, keyed by column name.

    A column holds one cell per (model, delay) pair, model outer and delay
    inner, or repeats one cell when it depends on neither. Pipeline columns
    past stage K and the efficiency loss of a design that gains nothing are
    blank.
    """
    cols = _delay_columns(design, models, ms, m_interim)
    num_stages = design.num_stages
    ramps = ["" if model.pattern == "uniform" else f"{model.ramp_fraction:.2f}" for model in models]
    cells = {
        "K": repeat(str(num_stages)),
        "l": [cell for cell in ramps for _ in ms],
        "n_max": repeat(f"{design.max_n:.2f}"),
        "ess": repeat(f"{design.ess:.2f}"),
        "ess_delay": _column(cols.ess_delay),
        "eg": repeat(f"{design.eg:.4f}"),
        "eg_delay": _column(cols.eg_delay, "%.4f"),
        "el": repeat("") if cols.el is None else _column(cols.el),
        "et": _column(cols.et),
        "et_single": _column(cols.et_single),
    }
    for k in range(MAX_TABLE_STAGES):
        cells[f"pipeline_{k + 1}"] = _column(cols.pipeline[..., k]) if k < num_stages else repeat("")
    return cells


@dataclass
class ResultTable:
    """An ordered grid of result rows under a fixed column schema."""

    columns: tuple[str, ...]
    rows: list[tuple[str, ...]]
    parameters: dict[str, str]

    def to_csv(self) -> str:
        lines = [f"# {key} = {self.parameters[key]}" for key in sorted(self.parameters)]
        lines.append(",".join(self.columns))
        lines += map(",".join, self.rows)
        return "\n".join(lines) + "\n"

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


def run_sweep(scenario: Scenario, threads: int = 1) -> ResultTable:
    """Evaluate the scenario grid (K x spacing x l x m) into a ResultTable.

    Rows come out in deterministic grid order regardless of how many worker
    threads build the designs.
    """
    if not scenario.delays:
        raise ScenarioError(f"{scenario.source}: a [delay] section with m values is required")
    if max(scenario.stages) > MAX_TABLE_STAGES:
        raise ScenarioError(
            f"{scenario.source}: the sweep table schema supports up to {MAX_TABLE_STAGES} stages"
        )
    models = scenario.recruitment_models()
    specs = scenario.designs.values()
    if threads > 1 and len(specs) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, os.cpu_count() or 1)) as pool:
            designs = list(pool.map(_build_cached, specs))
    else:
        designs = list(map(_build_cached, specs))

    ms = scenario.delays
    m_cells = _column(np.asarray(ms, dtype=float)) * len(models)
    rows = []
    with scenario.rate_errors_on_line():
        for (_, spacing), design in zip(scenario.designs, designs):
            cells = _block(design, models, ms, scenario.m_interim)
            cells.update(m=m_cells, spacing=repeat(spacing))
            rows += zip(*(cells[c] for c in SWEEP_COLUMNS))
    return ResultTable(columns=SWEEP_COLUMNS, rows=rows, parameters=dict(scenario.parameters))


def case_study_tau() -> float:
    """Target effect making the single-stage design need 214 participants."""
    base = single_stage_n(_CASE_ALPHA, _CASE_BETA, 1.0)
    return math.sqrt(base / _CASE_N_SINGLE)


def _case_designs():
    """The case study's twelve designs, keyed by (boundary name, K), in table order."""
    for name, shape in _CASE_FAMILIES:
        for num_stages in (2, 3, 4, 5):
            spec = DesignSpec(
                alpha=_CASE_ALPHA,
                beta=_CASE_BETA,
                tau=case_study_tau(),
                num_stages=num_stages,
                family=WangTsiatis(shape),
                futility=FutilityStyle.NONE,
            )
            yield (name, num_stages), _build_cached(spec)


def case_study_table() -> ResultTable:
    """The built-in case study: twelve designs under a six-month delay.

    Boundaries are Pocock, O'Brien-Fleming and Wang-Tsiatis(0.25) without a
    futility bound, K = 2..5, with the maximum size recruited uniformly over
    seven months.
    """
    rows = []
    model = RecruitmentModel.uniform(_CASE_T_MAX)
    for (name, num_stages), design in _case_designs():
        cells = _block(design, (model,), (_CASE_M,), 0.0)
        stage_cells = [str(n) for n in round_for_report(design)]
        stage_cells += [""] * (MAX_TABLE_STAGES - num_stages)
        cells.update({f"n_{k + 1}": repeat(n) for k, n in enumerate(stage_cells)}, boundary=[name])
        rows += zip(*(cells[c] for c in CASE_STUDY_COLUMNS))
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


def _read_reference(name: str) -> str:
    """The text of a bundled reference file: a table or a scenario."""
    return resources.files("gsdelay.reference").joinpath(name).read_text(encoding="utf-8")


def _check(table, row_key, column, expected, computed, tol, relative=False) -> CellCheck:
    bound, label = (tol * abs(expected), f"rel {tol:.0%}") if relative else (tol, f"abs {tol}")
    return CellCheck(table, row_key, column, expected, computed, label, abs(computed - expected) <= bound)


# (table name, reference file, the scenarios of its grid), in report order;
# the case study's grid is the designs of case_study_table()
_REFERENCE_TABLES = (
    ("uniform-recruitment", "uniform_equal.csv", ("uniform_equal.ini",)),
    ("linear-recruitment", "linear_equal.csv", ("linear_equal.ini",)),
    ("mixed-recruitment", "mixed.csv", ("mixed.ini",)),
    ("unequal-spacing", "unequal.csv", ("unequal_k3.ini", "unequal_k4.ini")),
    ("case-study", "case_study.csv", ()),
)


def _sweep_cells(scenario: Scenario):
    """Each cell of a sweep grid by (K, spacing, l, m): its design, delay columns and their index."""
    models = scenario.recruitment_models()
    for (num_stages, spacing), spec in scenario.designs.items():
        design = _build_cached(spec)
        cols = _delay_columns(design, models, scenario.delays, scenario.m_interim)
        for p, model in enumerate(models):
            for j, m in enumerate(scenario.delays):
                yield (num_stages, spacing, model.ramp_fraction, m), (design, cols, (p, j))


def _row_key(row: dict[str, str]) -> tuple:
    """The grid cell a reference or sweep row holds: (boundary, K) in the case study."""
    if "boundary" in row:
        return row["boundary"], int(row["K"])
    # uniform and linear models both carry ramp fraction 1
    return int(row["K"]), row.get("spacing") or "equal", float(row.get("l") or 1.0), float(row["m"])


def _row_checks(table: str, row: dict[str, str], design, cols, at) -> list[CellCheck]:
    """Compare the cells one reference row holds, at index at of the delay columns."""
    K = design.num_stages
    el = float(cols.el[at])
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
            cells.append(("ess_delay", float(cols.ess_delay[at]), 0.3))
            cells += [(f"pipeline_{k + 1}", p, 0.3) for k, p in enumerate(cols.pipeline[at].tolist())]
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
    """Recompute every bundled reference table and compare cell by cell.

    Each row must hold one cell of its table's grid, and each cell have a
    row; either miss is a ScenarioError naming the file and the cell.
    """
    case_model = RecruitmentModel.uniform(_CASE_T_MAX)
    reports = []
    for name, filename, scenario_files in _REFERENCE_TABLES:
        scenarios = [parse_scenario(_read_reference(f), source=f) for f in scenario_files]
        cells = dict(cell for scenario in scenarios for cell in _sweep_cells(scenario))
        if not scenarios:
            cells = {
                key: (design, _delay_columns(design, (case_model,), (_CASE_M,), 0.0), (0, 0))
                for key, design in _case_designs()
            }
        text = _read_reference(filename).splitlines()
        checks = []
        for row in csv.DictReader(line for line in text if line.strip() and line[0] != "#"):
            key = _row_key(row)
            if key not in cells:
                raise ScenarioError(f"{filename}: row {key} is not a cell of its grid, or repeats one")
            checks += _row_checks(name, row, *cells.pop(key))
        if cells:
            raise ScenarioError(f"{filename}: no row for the grid cell {next(iter(cells))}")
        reports.append(TableReport(name=name, checks=checks))
    return reports
