import importlib

import numpy as np
import pytest

from gsdelay.delay import DelayQuery, assess_delay
from gsdelay.boundaries import FutilityStyle, WangTsiatis
from gsdelay.design import DesignSpec, build_design
from gsdelay.errors import ConfigError
from gsdelay.recruitment import RecruitmentModel, pipeline_counts
from gsdelay.simulate import SimConfig, simulate

# the package exports the function simulate under the module's name
sim = importlib.import_module("gsdelay.simulate")

SEED = 20240814


class TestDeterminism:
    def test_same_seed_bit_identical(self, table_design):
        config = SimConfig(design=table_design(3), replicates=200_000, seed=SEED)
        first = simulate(config)
        second = simulate(config)
        assert first == second

    def test_independent_of_thread_count(self, table_design):
        config = SimConfig(design=table_design(3), replicates=400_000, seed=SEED)
        serial = simulate(config, threads=1)
        parallel = simulate(config, threads=4)
        assert serial == parallel

    def test_different_seeds_differ(self, table_design):
        config_a = SimConfig(design=table_design(2), replicates=50_000, seed=1)
        config_b = SimConfig(design=table_design(2), replicates=50_000, seed=2)
        assert simulate(config_a) != simulate(config_b)


class TestAgainstAnalytic:
    def test_single_stage_null_rejection(self):
        design = build_design(DesignSpec(alpha=0.05, beta=0.1, tau=0.5, num_stages=1))
        config = SimConfig(design=design, replicates=1_000_000, seed=SEED, mu=0.0)
        result = simulate(config)
        se = np.sqrt(0.05 * 0.95 / config.replicates)
        assert abs(result.total_reject - 0.05) <= 3 * se

    def test_three_stage_exit_probabilities(self, table_design):
        design = table_design(3)
        result = simulate(SimConfig(design=design, replicates=1_000_000, seed=SEED))
        for k in range(3):
            for mc, exact, se in (
                (result.accept_per_stage[k], design.exit.accept_per_stage[k], result.se_accept[k]),
                (result.reject_per_stage[k], design.exit.reject_per_stage[k], result.se_reject[k]),
            ):
                assert abs(mc - exact) <= 3 * max(se, 1e-9)

    def test_mean_sample_size_matches_ess(self, table_design):
        design = table_design(3)
        result = simulate(SimConfig(design=design, replicates=1_000_000, seed=SEED))
        assert abs(result.mean_sample_size - design.ess) <= 3 * result.se_sample_size

    def test_delay_sample_size_and_duration(self, table_design):
        design = table_design(3)
        query = DelayQuery(m=3.0, model=RecruitmentModel.uniform(24.0))
        result = simulate(
            SimConfig(design=design, replicates=1_000_000, seed=SEED, delay=query)
        )
        assessment = assess_delay(design, query)
        assert abs(result.mean_sample_size - assessment.ess_delay) <= 3 * result.se_sample_size
        assert abs(result.mean_duration - assessment.et) <= 3 * result.se_duration


@pytest.mark.parametrize("style", list(FutilityStyle))
def test_tally_matches_a_per_path_replay(style):
    """One block's exit-stage tally gives what replaying every path gives."""
    design = build_design(
        DesignSpec(alpha=0.05, beta=0.1, tau=0.5, num_stages=4, family=WangTsiatis(0.0), futility=style)
    )
    query = DelayQuery(m=5.0, model=RecruitmentModel.mixed(24.0, 0.3), m_interim=0.5)
    R, mu = 4000, 0.3
    result = simulate(SimConfig(design=design, replicates=R, seed=SEED, delay=query, mu=mu))

    # the block's draws, as simulate makes them
    info = np.asarray(design.info_levels)
    d_info = np.diff(np.concatenate(([0.0], info)))
    rng = np.random.default_rng(np.random.SeedSequence(SEED).spawn(1)[0])
    z = np.cumsum(rng.standard_normal((R, 4)) * np.sqrt(d_info) + mu * d_info, axis=1) / np.sqrt(info)

    profile = pipeline_counts(design, query.model, query.m)
    e, f = design.boundaries.efficacy, design.boundaries.futility
    accept, reject = [0] * 4, [0] * 4
    sizes, durations = [], []
    for path in z:
        for k in range(4):
            if path[k] > e[k] or path[k] <= f[k]:
                break
        (reject if path[k] > e[k] else accept)[k] += 1
        sizes.append(design.stage_n[k] + profile.pipeline[k])
        durations.append(profile.recruit_times[k] + query.m + query.m_interim)

    assert result.accept_per_stage == tuple(np.array(accept) / R)
    assert result.reject_per_stage == tuple(np.array(reject) / R)
    for mean, se, values in (
        (result.mean_sample_size, result.se_sample_size, sizes),
        (result.mean_duration, result.se_duration, durations),
    ):
        assert mean == pytest.approx(np.mean(values), rel=1e-12, abs=0)
        assert se == pytest.approx(np.std(values, ddof=0) / np.sqrt(R), rel=1e-12, abs=0)


class TestValidation:
    def test_rejects_bad_config(self, table_design):
        with pytest.raises(ConfigError):
            SimConfig(design=table_design(2), replicates=0, seed=1)
        with pytest.raises(ConfigError):
            SimConfig(design=table_design(2), replicates=10, seed=-1)


def test_pool_is_capped_at_cpu_count(monkeypatch, recording_pool, table_design):
    pool, seen = recording_pool
    monkeypatch.setattr(sim, "ThreadPoolExecutor", pool)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 3)
    config = SimConfig(design=table_design(2), replicates=300_000, seed=SEED)
    assert simulate(config, threads=1000) == simulate(config, threads=1)
    assert seen == [3]
