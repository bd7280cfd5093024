import pytest

from gsdelay.reports import _table_design
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
    """Cached builder for the standard delay-study designs.

    (alpha 0.05, beta 0.1, tau 0.5, WT shape 0.25, binding futility 0.)
    """

    def build(num_stages: int, spacing: str = "equal"):
        return _table_design({"K": num_stages, "spacing": spacing})

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
