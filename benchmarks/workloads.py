"""The benchmark's three workloads: inputs from a seed, one op, its output check.

Every workload is a closed loop with one client: op i+1 is issued only after
op i has returned. Inputs come from ``random.Random(seed)``, so a seed fixes
them on any platform; the library sees only the generated DesignSpecs,
scenario text and simulation requests.

A workload exposes ``setup()`` (parse its scenario text and warm up, which
set-up time includes), ``input(i)`` (op i's input, built outside the timed
region), ``run(x)`` (the timed op), ``check(x, out)`` (True when the output
is correct), ``fingerprint(out)`` (an exactly comparable form of the
output) and ``ends_block(i)`` (True when a timed stretch may stop after op
i, so that every run holds whole blocks of the workload's mix). Library
functions are looked up on their modules at call time, so the tracer's
wrappers see them.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

from scipy.special import bdtr, bdtrc, ndtri

FUTILITY_STYLES = ("binding-zero", "symmetric", "none")


def _design_section(rng: random.Random, stages: str) -> str:
    """A seeded [design] section: WT shape in [0, 0.5], or HSD gamma in [-4, 1] a third of the time."""
    lines = [
        "[design]",
        f"alpha = {rng.choice((0.025, 0.05))}",
        f"beta = {rng.choice((0.1, 0.2))}",
        f"tau = {round(rng.uniform(0.3, 0.8), 3)}",
        f"k = {stages}",
    ]
    if rng.random() < 1 / 3:
        lines += ["family = hsd", f"gamma = {round(rng.uniform(-4.0, 1.0), 3)}"]
    else:
        lines += ["family = wang-tsiatis", f"delta = {round(rng.uniform(0.0, 0.5), 3)}"]
    lines.append(f"futility = {rng.choice(FUTILITY_STYLES)}")
    return "\n".join(lines) + "\n"


class ColdSolve:
    """One op = one cold build_design: boundary solve, power search, exit probabilities.

    The battery opens with the 22 distinct specs behind the bundled reference
    tables, the case study and the bundled scenarios, then draws specs in
    blocks of 21: every K in 2..8 once with HSD boundaries and twice with WT,
    in seeded order. Each block carries the same mix of work whatever the
    seed, and a timed stretch stops only after a whole block, so the per-seed
    spread of op time stays small: a partial block would leave a varying
    number of the slowest ops (HSD at K = 7, 8) in the run, next to p90. The
    seed picks the order, shapes, gammas, effects, futility styles and error
    levels.
    """

    name = "cold-solve"
    threads = 1
    trace_ops = 64  # the 22 fixed specs and two drawn blocks

    def __init__(self, seed: int, gs, root: Path):
        self.gs = gs
        self.root = root
        self.rng = random.Random(seed)
        self.specs: list = []

    def setup(self) -> None:
        gs = self.gs
        # the reference tables' designs: alpha 0.05, beta 0.1, tau 0.5, WT 0.25, binding futility
        table = [(k, "equal") for k in (2, 3, 4, 5)]
        table += [(3, "early"), (3, "late"), (3, "latest"), (4, "early"), (4, "late")]
        specs = [
            gs.DesignSpec(alpha=0.05, beta=0.1, tau=0.5, num_stages=k,
                          family=gs.WangTsiatis(0.25), futility=gs.FutilityStyle.BINDING_ZERO,
                          info_fractions=gs.spacing_for(k, label))
            for k, label in table
        ]
        # the case study: Pocock, OBF and WT 0.25, K = 2..5, alpha 0.05, beta 0.1, no futility bound
        tau = gs.reports.case_study_tau()
        specs += [
            gs.DesignSpec(alpha=0.05, beta=0.1, tau=tau, num_stages=k,
                          family=gs.WangTsiatis(shape), futility=gs.FutilityStyle.NONE)
            for shape in (0.5, 0.0, 0.25) for k in (2, 3, 4, 5)
        ]
        for path in sorted((self.root / "scenarios").glob("*.ini")):
            scenario = gs.load_scenario(path)
            specs += [scenario.design_spec(k, s) for k in scenario.stages for s in scenario.spacings]
        self.specs = list(dict.fromkeys(specs))
        self.fixed = len(self.specs)
        gs.build_design(gs.DesignSpec(alpha=0.05, beta=0.1, tau=0.5, num_stages=3))

    def _draw_block(self) -> None:
        gs, rng = self.gs, self.rng
        block = [(k, family) for k in range(2, 9) for family in ("wt", "wt", "hsd")]
        rng.shuffle(block)
        for k, family in block:
            if family == "wt":
                boundary = gs.WangTsiatis(round(rng.uniform(0.0, 0.5), 4))
            else:
                boundary = gs.HwangShihDeCani(round(rng.uniform(-4.0, 1.0), 4))
            self.specs.append(gs.DesignSpec(
                alpha=rng.choice((0.025, 0.05)),
                beta=rng.choice((0.1, 0.2)),
                tau=round(rng.uniform(0.2, 1.0), 4),
                num_stages=k,
                family=boundary,
                futility=gs.FutilityStyle(rng.choice(FUTILITY_STYLES)),
            ))

    def input(self, i: int):
        while i >= len(self.specs):
            self._draw_block()
        return self.specs[i]

    def ends_block(self, i: int) -> bool:
        return i + 1 >= self.fixed and (i + 1 - self.fixed) % 21 == 0

    def run(self, spec):
        return self.gs.build_design(spec)

    def check(self, spec, design) -> bool:
        """Attained level within 1e-6 of alpha and power at n_max within 1e-6 of 1 - beta."""
        return (abs(design.boundaries.achieved_alpha - spec.alpha) <= 1e-6
                and abs(design.exit.total_reject - (1.0 - spec.beta)) <= 1e-6)

    @staticmethod
    def fingerprint(design):
        return design.max_n, design.ess, design.boundaries, design.exit


class DelayGrid:
    """One op = run_sweep plus to_csv on a mixed and on a uniform scenario, 600 rows each.

    All scenarios of a run share one seeded [design] section with K = 2..5,
    so its four designs are built once, during warm-up, and every op then
    reads them from the sweep's design cache: the op is pure delay
    assessment and report formatting. The mixed scenario has 5 ramp
    fractions x 30 delays, the uniform one 150 delays. Each op sweeps one of
    each, so both recruitment paths weigh equally in every op, as in the
    bundled scenarios, and op cost has a single mode.
    """

    name = "delay-grid"
    threads = 1
    trace_ops = 16
    pool = 4  # pairs of scenarios

    def __init__(self, seed: int, gs, root: Path):
        self.gs = gs
        rng = random.Random(seed)
        design = _design_section(rng, "2 3 4 5")
        self.texts = []
        for _ in range(self.pool):
            t_max = rng.randint(12, 36)
            ramp = sorted(rng.sample(range(10, 101), 5))
            recruitments = (
                (f"pattern = mixed\nt_max = {t_max}\nl = " + " ".join(f"{l / 100}" for l in ramp), 30),
                (f"pattern = uniform\nt_max = {t_max}", 150),
            )
            for recruitment, delays in recruitments:
                m = sorted(rng.sample(range(1, 100 * t_max + 1), delays))
                self.texts.append(
                    f"{design}\n[recruitment]\n{recruitment}\n\n[delay]\n"
                    f"m = {' '.join(f'{v / 100}' for v in m)}\n"
                    f"m_interim = {rng.choice((0.0, 0.5, 1.0))}\n"
                )

    def setup(self) -> None:
        gs = self.gs
        scenarios = [gs.parse_scenario(t, source=f"{self.name}-{i}") for i, t in enumerate(self.texts)]
        self.pairs = list(zip(scenarios[::2], scenarios[1::2]))
        self.run(self.pairs[0])

    def input(self, i: int):
        return self.pairs[i % self.pool]

    @staticmethod
    def ends_block(i: int) -> bool:
        return True

    def run(self, pair):
        out = []
        for scenario in pair:
            table = self.gs.reports.run_sweep(scenario, threads=self.threads)
            out.append((table, table.to_csv()))
        return out

    def check(self, pair, out) -> bool:
        """Row counts, and ess <= ess_delay <= n_max and pipeline_k <= n_max - n_k on every row.

        Cells carry two decimals, so the pipeline bound allows 0.01 for rounding.
        """
        return all(self._check_table(scenario, table) for scenario, (table, _) in zip(pair, out))

    def _check_table(self, scenario, table) -> bool:
        expected_rows = (len(scenario.stages) * len(scenario.spacings)
                         * len(scenario.recruitment_models()) * len(scenario.delays))
        if len(table.rows) != expected_rows:
            return False
        col = {name: j for j, name in enumerate(table.columns)}
        for row in table.rows:
            k = int(row[col["K"]])
            n_max, ess, ess_delay = (float(row[col[c]]) for c in ("n_max", "ess", "ess_delay"))
            if not ess <= ess_delay <= n_max:
                return False
            rho = self.gs.spacing_for(k, row[col["spacing"]])
            for j in range(k):
                if float(row[col[f"pipeline_{j + 1}"]]) > n_max - rho[j] * n_max + 0.01:
                    return False
        return True

    @staticmethod
    def fingerprint(out):
        return tuple(csv for _, csv in out)


class MonteCarlo:
    """One op = one simulate call: 5e5 replicates with a delay query, threads=2.

    Designs for K = 2..5 come from one seeded scenario and are built during
    warm-up; op i simulates design i mod 4, so every run carries the same mix
    of stage counts, with a seeded simulation seed, delay and recruitment.
    """

    name = "monte-carlo"
    threads = 2
    trace_ops = 40
    replicates = 500_000

    def __init__(self, seed: int, gs, root: Path):
        self.gs = gs
        self.rng = random.Random(seed)
        t_max = self.rng.randint(12, 36)
        ramp = sorted(self.rng.sample(range(10, 101), 3))
        self.text = (
            _design_section(self.rng, "2 3 4 5")
            + f"\n[recruitment]\npattern = mixed\nt_max = {t_max}\n"
            + "l = " + " ".join(f"{l / 100}" for l in ramp) + "\n"
        )
        self.configs: list = []

    def setup(self) -> None:
        gs = self.gs
        scenario = gs.parse_scenario(self.text, source=self.name)
        self.designs = [gs.build_design(scenario.design_spec(k, "equal")) for k in scenario.stages]
        self.models = (gs.RecruitmentModel.uniform(scenario.t_max),) + scenario.recruitment_models()
        self.run(gs.SimConfig(design=self.designs[-1], replicates=20_000, seed=0))

    def input(self, i: int):
        gs, rng = self.gs, self.rng
        while i >= len(self.configs):
            j = len(self.configs)
            query = gs.DelayQuery(m=round(rng.uniform(0.0, 12.0), 2),
                                  model=self.models[j % len(self.models)],
                                  m_interim=rng.choice((0.0, 0.5)))
            self.configs.append(gs.SimConfig(design=self.designs[j % len(self.designs)],
                                             replicates=self.replicates,
                                             seed=rng.randrange(2**31), delay=query))
        return self.configs[i]

    @staticmethod
    def ends_block(i: int) -> bool:
        return True

    def run(self, config, threads: int | None = None):
        return self.gs.simulate(config, threads=self.threads if threads is None else threads)

    # Two-sided false-alarm level of one estimate's test. A run makes a few
    # thousand such tests, so a correct simulator fails a run with
    # probability below 1e-5; for a mean this is a bound of 6.1 SEs.
    level = 1e-9

    def check(self, config, result) -> bool:
        """Every estimate agrees with its exact value at the level above.

        A stage's stop count is tested against Binomial(R, p) with its exact
        tails: a stop with p of order 1/R is seen a handful of times, where a
        bound in normal SEs would flag a correct simulator. The means are
        tested against their reported SEs.
        """
        design, R = config.design, config.replicates
        exact = self.gs.assess_delay(design, config.delay)
        half = self.level / 2.0

        def count_ok(estimate, p):
            k, p = round(estimate * R), min(max(p, 1e-12), 1.0)
            return bdtr(k, R, p) >= half and (k == 0 or bdtrc(k - 1, R, p) >= half)

        def mean_ok(estimate, value, se):
            return abs(estimate - value) <= -ndtri(half) * se

        for est, ref in ((result.accept_per_stage, design.exit.accept_per_stage),
                         (result.reject_per_stage, design.exit.reject_per_stage)):
            if not all(count_ok(e, p) for e, p in zip(est, ref)):
                return False
        return (mean_ok(result.mean_sample_size, exact.ess_delay,
                        max(result.se_sample_size, 1e-9 * exact.ess_delay))
                and mean_ok(result.mean_duration, exact.et, max(result.se_duration, 1e-9 * exact.et)))

    @staticmethod
    def fingerprint(result):
        return result


WORKLOADS = {w.name: w for w in (ColdSolve, DelayGrid, MonteCarlo)}
