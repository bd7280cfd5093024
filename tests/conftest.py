from dataclasses import replace

import pytest

from gsdelay.reports import _build_cached, _read_reference
from gsdelay.scenario import parse_scenario, spacing_for
from gsdelay.sequential import SequentialProblem, exit_probabilities


def exit_at(design, mu):
    """Exit probabilities of a built design under effect mu, by the density recursion.

    This is independent of the tilted null pass that ``build_design``
    evaluates, so it also checks the design's own exit probabilities.
    """
    bounds = design.boundaries
    problem = SequentialProblem(design.info_levels, mu, bounds.efficacy, bounds.futility)
    return exit_probabilities(problem)


@pytest.fixture(scope="session")
def table_design():
    """Cached builder for the delay-study designs of the bundled reference scenarios.

    The design is uniform_equal.ini's, at any stage count and named spacing;
    on the reference grids that is each scenario's own ``design_spec(K, spacing)``.
    """
    spec = parse_scenario(_read_reference("uniform_equal.ini")).design_spec(2, "equal")

    def build(num_stages: int, spacing: str = "equal"):
        fractions = spacing_for(num_stages, spacing)
        return _build_cached(replace(spec, num_stages=num_stages, info_fractions=fractions))

    return build


@pytest.fixture
def recording_pool():
    """A ThreadPoolExecutor stand-in that records max_workers and maps serially.

    Yields (factory, seen): patch the factory in for ThreadPoolExecutor and
    read the requested worker counts from seen; no thread is started.
    """
    seen = []

    class Pool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    return Pool, seen
