import functools
import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdelay.delay import DelayQuery, assess_delay
from gsdelay.boundaries import FutilityStyle, HwangShihDeCani, WangTsiatis
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


def _path_major_z(seed_seq, size, info, mu):
    """A block's z-paths, path-major: the whole (size, K) array by np.cumsum."""
    rng = np.random.default_rng(seed_seq)
    d_info = np.diff(np.concatenate(([0.0], info)))
    increments = rng.standard_normal((size, info.size)) * np.sqrt(d_info) + mu * d_info
    return np.cumsum(increments, axis=1) / np.sqrt(info)


def _path_major_counts(z, e, f):
    """Counts by exit stage, found by argmax over each path's stop mask."""
    size, K = z.shape
    rejects = z > e
    exit_stage = (rejects | (z <= f)).argmax(axis=1)
    rejected = rejects[np.arange(size), exit_stage]
    return np.bincount(exit_stage, minlength=K), np.bincount(exit_stage[rejected], minlength=K)


def _bounds_on_paths(z, pick):
    """Bounds that paths sit on exactly: e_k and f_k are z_k of two paths.

    Random draws almost never land on a bound, so a tally that compares with
    >= for > or rounds z differently would agree with the oracle on them.
    The two paths are taken among those still running while any are.
    """
    size, K = z.shape
    e, f = np.empty(K), np.empty(K)
    running = np.ones(size, dtype=bool)
    for k in range(K):
        live = np.flatnonzero(running)
        if live.size == 0:
            live = np.arange(size)
        lo, hi = sorted(z[live[[pick % live.size, -1 - pick % live.size]], k])
        e[k], f[k] = hi, (hi if k == K - 1 else lo)
        running &= (z[:, k] <= e[k]) & (z[:, k] > f[k])
    return e, f


_FAMILIES = (WangTsiatis(0.0), WangTsiatis(0.5), HwangShihDeCani(-2.0))


@functools.cache
def _oracle_design(K, family, style):
    return build_design(
        DesignSpec(alpha=0.05, beta=0.1, tau=0.5, num_stages=K, family=family, futility=style)
    )


@settings(max_examples=150, deadline=None)
@given(
    K=st.integers(1, 8),
    family=st.sampled_from(_FAMILIES),
    style=st.sampled_from(list(FutilityStyle)),
    mu=st.one_of(st.sampled_from((0.0, 0.4, -0.3, 1.5)), st.floats(-3.0, 3.0)),
    size=st.one_of(st.integers(1, 64), st.integers(1, 20_000)),
    seed=st.integers(0, 2**32 - 1),
    pick=st.one_of(st.none(), st.integers(0, 2**16)),
)
def test_tally_matches_the_path_major_oracle(K, family, style, mu, size, seed, pick):
    """Stage-by-stage counts equal the whole-block tally's, bit for bit.

    With pick set, the design's bounds are replaced by ones that paths sit on.
    """
    design = _oracle_design(K, family, style)
    info = np.asarray(design.info_levels)
    z = _path_major_z(np.random.SeedSequence(seed), size, info, mu)
    if pick is None:
        e, f = np.asarray(design.boundaries.efficacy), np.asarray(design.boundaries.futility)
    else:
        e, f = _bounds_on_paths(z, pick)
    stops, rejects = sim._tally(np.random.SeedSequence(seed), size, info, e, f, mu)
    want_stops, want_rejects = _path_major_counts(z, e, f)
    np.testing.assert_array_equal(stops, want_stops)
    np.testing.assert_array_equal(rejects, want_rejects)
    assert stops.sum() == size


@pytest.mark.parametrize("pick", [None, 7])
@pytest.mark.parametrize("K", range(1, 9))
@pytest.mark.parametrize(
    "size", [1, sim._CHUNK - 1, sim._CHUNK, sim._CHUNK + 1, 2 * sim._CHUNK - 1, 3 * sim._CHUNK + 7]
)
def test_chunked_tally_matches_the_path_major_oracle(size, K, pick):
    """Blocks that end inside, at and just past a chunk give the whole-block counts."""
    design = _oracle_design(K, WangTsiatis(0.5), FutilityStyle.BINDING_ZERO)
    info, mu, seed = np.asarray(design.info_levels), 0.4, SEED + size
    z = _path_major_z(np.random.SeedSequence(seed), size, info, mu)
    if pick is None:
        e, f = np.asarray(design.boundaries.efficacy), np.asarray(design.boundaries.futility)
    else:
        e, f = _bounds_on_paths(z, pick)
    stops, rejects = sim._tally(np.random.SeedSequence(seed), size, info, e, f, mu)
    want_stops, want_rejects = _path_major_counts(z, e, f)
    np.testing.assert_array_equal(stops, want_stops)
    np.testing.assert_array_equal(rejects, want_rejects)


def test_a_full_block_is_tallied_in_chunk_sized_memory():
    """A K = 8 block peaks near one (chunk, K) buffer, not a (block, K) one (11.25 MB)."""
    design = _oracle_design(8, WangTsiatis(0.5), FutilityStyle.BINDING_ZERO)
    args = (np.asarray(design.info_levels), np.asarray(design.boundaries.efficacy),
            np.asarray(design.boundaries.futility), 0.4)
    tracemalloc.start()
    try:
        sim._tally(np.random.SeedSequence(SEED), sim._BLOCK_SIZE, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_three_blocks_independent_of_thread_count():
    """Two full blocks and a partial one give the same result on 1 and 2 threads."""
    design = _oracle_design(5, HwangShihDeCani(-2.0), FutilityStyle.NONE)
    config = SimConfig(design=design, replicates=2 * sim._BLOCK_SIZE + 12_345, seed=SEED, mu=-0.3)
    assert simulate(config, threads=1) == simulate(config, threads=2)


class TestValidation:
    def test_rejects_bad_config(self, table_design):
        with pytest.raises(ConfigError):
            SimConfig(design=table_design(2), replicates=0, seed=1)
        with pytest.raises(ConfigError):
            SimConfig(design=table_design(2), replicates=10, seed=-1)


@pytest.mark.parametrize("mu", [float("nan"), float("inf"), -float("inf")])
def test_rejects_a_non_finite_effect(table_design, mu):
    with pytest.raises(ConfigError, match="mu = .* must be finite"):
        SimConfig(design=table_design(2), replicates=10, seed=1, mu=mu)


def test_pool_is_capped_at_cpu_count(monkeypatch, recording_pool, table_design):
    pool, seen = recording_pool
    monkeypatch.setattr(sim, "ThreadPoolExecutor", pool)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 3)
    config = SimConfig(design=table_design(2), replicates=300_000, seed=SEED)
    assert simulate(config, threads=1000) == simulate(config, threads=1)
    assert seen == [3]
