import importlib

import numpy as np
import pytest

from gsdelay.delay import DelayQuery, assess_delay
from gsdelay.design import DesignSpec, build_design
from gsdelay.errors import ConfigError
from gsdelay.recruitment import RecruitmentModel
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
