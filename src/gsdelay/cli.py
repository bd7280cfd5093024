"""Command-line interface.

Subcommands: design | sweep | case-study | simulate | verify-tables.
Exit codes: 0 on success, 2 for configuration errors, 3 for numerical
failures (including reference-table mismatches).
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from .delay import DelayQuery
from .design import build_design, round_for_report
from .errors import ConfigError, SolveError
from .reports import (
    ResultTable,
    case_study_table,
    run_sweep,
    verify_all,
)
from .scenario import Scenario, load_scenario
from .simulate import SimConfig, simulate

__all__ = ["main"]


def _single_design(scenario: Scenario):
    if len(scenario.stages) != 1 or len(scenario.spacings) != 1:
        raise ConfigError(
            f"{scenario.source}: this command needs a single design "
            "(one stage count, one spacing)"
        )
    spec = scenario.design_spec(scenario.stages[0], scenario.spacings[0])
    return build_design(spec)


def _cmd_design(args) -> int:
    scenario = load_scenario(args.scenario)
    design = _single_design(scenario)
    rounded = round_for_report(design)
    if args.format == "json":
        payload = {
            "alpha": design.spec.alpha,
            "beta": design.spec.beta,
            "tau": design.spec.tau,
            "mu": design.spec.evaluation_effect,
            "futility_style": design.spec.futility.value,
            "achieved_alpha": design.boundaries.achieved_alpha,
            "info_fractions": list(design.spec.fractions),
            "efficacy": list(design.boundaries.efficacy),
            "futility": list(design.boundaries.futility),
            "n_single": design.n_single,
            "n_max": design.max_n,
            "stage_n": list(design.stage_n),
            "stage_n_rounded": list(rounded),
            "stop_per_stage": list(design.exit.stop_per_stage),
            "ess": design.ess,
            "eg": design.eg,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    spec = design.spec
    print(
        f"design: K={spec.num_stages} family={spec.family} "
        f"futility={spec.futility.value} alpha={spec.alpha} beta={spec.beta} tau={spec.tau}"
    )
    print(f"n_single = {design.n_single:.2f}   n_max = {design.max_n:.2f} "
          f"(inflation {design.max_n / design.n_single:.4f})")
    print("stage    rho      n        n(report)  efficacy  futility   stop prob")
    for k in range(spec.num_stages):
        f_val = design.boundaries.futility[k]
        f_txt = f"{f_val:8.4f}" if f_val > float("-inf") else "    -inf"
        print(
            f"{k + 1:>5} {spec.fractions[k]:>7.4f} {design.stage_n[k]:>9.2f} "
            f"{rounded[k]:>9d} {design.boundaries.efficacy[k]:>9.4f} {f_txt:>9} "
            f"{design.exit.stop_per_stage[k]:>10.4f}"
        )
    print(f"ESS(mu={spec.evaluation_effect}) = {design.ess:.2f}   EG = {design.eg:.4f}")
    return 0


def _write_or_print(table: ResultTable, out: str | None, fmt: str) -> None:
    if out is None:
        sys.stdout.write(table.to_csv() if fmt == "csv" else table.to_json())
        return
    try:
        table.write(out, fmt)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from None


def _cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    fmt = args.format or scenario.out_format or "csv"
    out = args.out or scenario.out_path
    table = run_sweep(scenario, threads=args.threads)
    _write_or_print(table, out, fmt)
    return 0


def _cmd_case_study(args) -> int:
    _write_or_print(case_study_table(), args.out, args.format)
    return 0


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    design = _single_design(scenario)
    queries: list[DelayQuery | None] = [None]
    if scenario.delays:
        models = scenario.recruitment_models()
        if len(models) != 1:
            raise ConfigError(f"{scenario.source}: simulate needs a single recruitment model")
        queries = [
            DelayQuery(m=m, model=models[0], m_interim=scenario.m_interim)
            for m in scenario.delays
        ]

    print(f"simulate: replicates={args.replicates} seed={args.seed} threads={args.threads}")
    analytic = design.exit
    for query in queries:
        config = SimConfig(
            design=design, replicates=args.replicates, seed=args.seed, delay=query
        )
        result = simulate(config, threads=args.threads)
        if query is None:
            print("no delay: expected sample size vs analytic ESS")
        else:
            print(f"delay m={query.m}:")
        print("stage   accept(mc)  reject(mc)  accept(exact)  reject(exact)")
        for k in range(design.num_stages):
            print(
                f"{k + 1:>5} {result.accept_per_stage[k]:>11.5f} "
                f"{result.reject_per_stage[k]:>11.5f} "
                f"{analytic.accept_per_stage[k]:>14.5f} "
                f"{analytic.reject_per_stage[k]:>14.5f}"
            )
        print(
            f"mean sample size = {result.mean_sample_size:.3f} "
            f"(se {result.se_sample_size:.3f})"
        )
        if result.mean_duration is not None:
            print(
                f"mean duration    = {result.mean_duration:.3f} "
                f"(se {result.se_duration:.3f})"
            )
    return 0


def _cmd_verify_tables(args) -> int:
    reports = verify_all()
    for report in reports:
        print(report.summary())
        for check in report.failures:
            print(
                f"  FAIL {check.row} {check.column}: expected {check.expected:.2f}, "
                f"computed {check.computed:.2f} ({check.tolerance})"
            )
    if args.out:
        table = ResultTable(
            columns=("table", "row", "column", "expected", "computed", "tolerance", "status"),
            rows=[
                (c.table, c.row, c.column, f"{c.expected:.4f}", f"{c.computed:.4f}", c.tolerance,
                 "ok" if c.ok else "fail")
                for report in reports
                for c in report.checks
            ],
            parameters={},
        )
        _write_or_print(table, args.out, "csv")
    failed = sum(len(r.failures) for r in reports)
    total = sum(len(r.checks) for r in reports)
    print(f"verified {total - failed}/{total} reference cells")
    return 0 if failed == 0 else 3


def _positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 2 with one line, like the other errors."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gsdelay",
        description="Group-sequential design and the efficiency cost of delayed outcomes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="build one design and print its characteristics")
    p.add_argument("--scenario", required=True, help="scenario file path")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=_cmd_design)

    p = sub.add_parser("sweep", help="evaluate a scenario grid into a result table")
    p.add_argument("--scenario", required=True, help="scenario file path")
    p.add_argument("--out", help="output path (defaults to the scenario's output path)")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--threads", type=_positive_int, default=1)
    p.set_defaults(run=_cmd_sweep)

    p = sub.add_parser("case-study", help="emit the built-in case-study table")
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(run=_cmd_case_study)

    p = sub.add_parser("simulate", help="Monte Carlo check of one design")
    p.add_argument("--scenario", required=True, help="scenario file path")
    p.add_argument("--replicates", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=20240814)
    p.add_argument("--threads", type=_positive_int, default=1)
    p.set_defaults(run=_cmd_simulate)

    p = sub.add_parser("verify-tables", help="recompute the bundled reference tables")
    p.add_argument("--out", help="write the full cell-by-cell report as CSV")
    p.set_defaults(run=_cmd_verify_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # warnings (a sub-month ramp, say) are reported once each, on one line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = args.run(args)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        except SolveError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            code = 3
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
