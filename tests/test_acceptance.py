"""Acceptance suite.

Each test prints one ``criterion NN [...]: PASS/FAIL`` line (run pytest with
``-s`` to see them as they execute) and then asserts, so a red test always
names every offending cell in its failure message.
"""

import time

import numpy as np
import pytest

from gsdelay.boundaries import FutilityStyle, HwangShihDeCani, WangTsiatis
from gsdelay.delay import DelayQuery, assess_delay
from gsdelay.design import DesignSpec, build_design, round_for_report, single_stage_n
from gsdelay.recruitment import RecruitmentModel, pipeline_counts
from gsdelay.reports import _build_cached, case_study_tau, verify_all
from gsdelay.simulate import SimConfig, simulate
from conftest import exit_at

SEED = 20240814


def report(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num:02d} [{name}]: {status}")
    for line in failures[:25]:
        print(f"    {line}")
    assert not failures, f"criterion {num} [{name}]: {len(failures)} failure(s): {failures[:25]}"


def check_failures(table_report):
    return [
        f"{c.row} {c.column}: expected {c.expected:.2f}, computed {c.computed:.2f} ({c.tolerance})"
        for c in table_report.failures
    ]


@pytest.fixture(scope="module")
def reference_tables():
    """Every reference table's report by name, computed once from a cold design cache, and the time taken."""
    _build_cached.cache_clear()
    start = time.perf_counter()
    reports = {r.name: r for r in verify_all()}
    return reports, time.perf_counter() - start


def test_criterion_01_uniform_recruitment_table(reference_tables):
    # cold-cache timing: every reference table must reproduce in under ten seconds
    reports, elapsed = reference_tables
    failures = check_failures(reports["uniform-recruitment"])
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    report(1, f"uniform recruitment, {elapsed:.1f}s", failures)


def test_criterion_02_linear_recruitment_table(reference_tables):
    report(2, "linear recruitment", check_failures(reference_tables[0]["linear-recruitment"]))


def test_criterion_03_mixed_recruitment_tables(reference_tables):
    report(3, "mixed recruitment", check_failures(reference_tables[0]["mixed-recruitment"]))


def test_criterion_04_unequal_spacing_tables(reference_tables):
    report(4, "unequal spacing", check_failures(reference_tables[0]["unequal-spacing"]))


def test_criterion_05_case_study(reference_tables):
    failures = check_failures(reference_tables[0]["case-study"])
    tau = case_study_tau()
    if abs(tau - 0.400) > 0.001:
        failures.append(f"calibrated effect {tau:.4f} not within 0.001 of 0.400")
    report(5, "case study", failures)


def test_criterion_06_motivating_example():
    failures = []
    spec = DesignSpec(
        alpha=0.025,
        beta=0.2,
        tau=0.4,
        num_stages=3,
        family=WangTsiatis(0.0),
        futility=FutilityStyle.NONE,
    )
    design = build_design(spec)
    rounded = round_for_report(design)
    for got, want in zip(rounded, (66, 134, 200)):
        if abs(got - want) > 1:
            failures.append(f"stage size {got} not within 1 of {want}")
    n_single = single_stage_n(0.025, 0.2, 0.4)
    if abs(round(n_single) - 196) > 1:
        failures.append(f"single-stage size {n_single:.2f} not within 1 of 196")
    report(6, "motivating example", failures)


def test_criterion_07_level_and_power_identities(table_design):
    failures = []
    battery = [table_design(K) for K in (2, 3, 4, 5)]
    for family in (WangTsiatis(0.25), WangTsiatis(0.0), WangTsiatis(0.5), HwangShihDeCani(-2.0)):
        for style in FutilityStyle:
            spec = DesignSpec(
                alpha=0.05, beta=0.1, tau=0.5, num_stages=3, family=family, futility=style
            )
            battery.append(build_design(spec))
    for design in battery:
        spec = design.spec
        label = f"K={spec.num_stages} {spec.family} {spec.futility.value}"
        null = exit_at(design, 0.0)
        alt = exit_at(design, spec.tau)
        if abs(null.total_reject - spec.alpha) > 1e-6:
            failures.append(f"{label}: level {null.total_reject:.8f} != {spec.alpha}")
        if abs(alt.total_reject - (1 - spec.beta)) > 1e-6:
            failures.append(f"{label}: power {alt.total_reject:.8f} != {1 - spec.beta}")
        for probs, drift in ((null, 0.0), (alt, spec.tau)):
            if abs(sum(probs.stop_per_stage) - 1.0) > 1e-8:
                failures.append(f"{label}: conservation off at drift {drift}")
    report(7, "level/power identities", failures)


def test_criterion_08_oracle_equivalence(table_design):
    failures = []
    design = table_design(3)
    replicates = 1_000_000

    config = SimConfig(design=design, replicates=replicates, seed=SEED)
    result = simulate(config)
    for k in range(3):
        pairs = (
            ("accept", result.accept_per_stage[k], design.exit.accept_per_stage[k], result.se_accept[k]),
            ("reject", result.reject_per_stage[k], design.exit.reject_per_stage[k], result.se_reject[k]),
        )
        for name, mc, exact, se in pairs:
            if abs(mc - exact) > 3 * max(se, 1e-9):
                failures.append(f"stage {k + 1} {name}: mc {mc:.5f} vs exact {exact:.5f}")
    if abs(result.mean_sample_size - design.ess) > 3 * result.se_sample_size:
        failures.append(f"ESS: mc {result.mean_sample_size:.2f} vs exact {design.ess:.2f}")

    query = DelayQuery(m=3.0, model=RecruitmentModel.uniform(24.0))
    delayed = simulate(SimConfig(design=design, replicates=replicates, seed=SEED, delay=query))
    expected = assess_delay(design, query).ess_delay
    if abs(delayed.mean_sample_size - expected) > 3 * delayed.se_sample_size:
        failures.append(
            f"delayed ESS: mc {delayed.mean_sample_size:.2f} vs exact {expected:.2f}"
        )

    if simulate(config) != result:
        failures.append("repeat run with the same seed differs")
    if simulate(config, threads=4) != result:
        failures.append("thread count changes the estimates")
    report(8, "Monte Carlo oracle equivalence", failures)


def test_criterion_09_property_suite(table_design):
    failures = []
    designs = {K: table_design(K) for K in (2, 3, 4, 5)}
    uniform = RecruitmentModel.uniform(24.0)
    linear = RecruitmentModel.linear(24.0)

    for K, design in designs.items():
        for model, tag in ((uniform, "uniform"), (linear, "linear")):
            zero = assess_delay(design, DelayQuery(m=0.0, model=model))
            if zero.el != 0.0:
                failures.append(f"K={K} {tag}: EL(0) = {zero.el!r} is not exactly 0")

            els, capped = [], []
            for m in range(0, 25):
                a = assess_delay(design, DelayQuery(m=float(m), model=model))
                els.append(a.el)
                caps = [
                    a.profile.pipeline[k] == design.max_n - design.stage_n[k]
                    for k in range(K - 1)
                ]
                capped.append(all(caps))
                if not (design.ess - 1e-9 <= a.ess_delay <= design.max_n + 1e-9):
                    failures.append(f"K={K} {tag} m={m}: ess_delay outside [ess, n_max]")
                if a.profile.pipeline[-1] != 0.0:
                    failures.append(f"K={K} {tag} m={m}: final-stage pipeline not zero")
            if any(b < a - 1e-9 for a, b in zip(els, els[1:])):
                failures.append(f"K={K} {tag}: EL not non-decreasing in m")
            for m in range(25):
                if capped[m] and els[m] != els[-1]:
                    failures.append(f"K={K} {tag}: EL not constant after all caps (m={m})")

        # uniform loss depends on the delay only through m / t_max
        for m, c in ((12.0, 1.5), (12.0, 2.0), (5.0, 3.0)):
            a = assess_delay(design, DelayQuery(m=m, model=uniform))
            b = assess_delay(design, DelayQuery(m=m * c, model=RecruitmentModel.uniform(24.0 * c)))
            if abs(a.el - b.el) > 1e-9:
                failures.append(f"K={K}: uniform EL not scale invariant (m={m}, c={c})")

        for m in range(0, 25):
            a = assess_delay(design, DelayQuery(m=float(m), model=uniform))
            identity = m + 24.0 / design.max_n * design.ess
            if abs(a.et - identity) > 1e-9:
                failures.append(f"K={K} m={m}: ET identity off by {a.et - identity:.2e}")
            if not a.et < a.et_single:
                failures.append(f"K={K} m={m}: ET {a.et:.2f} not below single-stage {a.et_single:.2f}")
    report(9, "property suite", failures)


def test_criterion_10_qualitative_claims(table_design):
    failures = []
    uniform = RecruitmentModel.uniform(24.0)
    linear = RecruitmentModel.linear(24.0)

    for K in (2, 3, 4, 5):
        design = table_design(K)
        for m in range(0, 13):
            lin = assess_delay(design, DelayQuery(m=float(m), model=linear)).el
            uni = assess_delay(design, DelayQuery(m=float(m), model=uniform)).el
            if lin < uni - 1e-9:
                failures.append(f"K={K} m={m}: linear EL {lin:.2f} below uniform {uni:.2f}")
        for m in (3.0, 6.0, 9.0, 12.0, 18.0, 24.0):
            els = [
                assess_delay(design, DelayQuery(m=m, model=RecruitmentModel.mixed(24.0, l))).el
                for l in (0.2, 0.4, 0.6, 0.8)
            ]
            if any(b < a - 1e-9 for a, b in zip(els, els[1:])):
                failures.append(f"K={K} m={m}: EL not non-decreasing in the ramp fraction")

    spec = DesignSpec(
        alpha=0.05,
        beta=0.1,
        tau=0.5,
        num_stages=3,
        family=HwangShihDeCani(-2.0),
        futility=FutilityStyle.SYMMETRIC,
        info_fractions=(0.6, 0.9, 1.0),
    )
    design = build_design(spec)
    first = next(
        (
            m
            for m in range(0, 25)
            if assess_delay(design, DelayQuery(m=float(m), model=uniform)).el > 100.0
        ),
        None,
    )
    if first is None or abs(first - 8) > 1:
        failures.append(f"symmetric spending design first exceeds 100% at m={first}, expected 8+/-1")
    report(10, "qualitative claims", failures)
