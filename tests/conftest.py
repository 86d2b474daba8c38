import os

import numpy as np
import pytest

from gtlab.samplers import RngStream, ginibre, gue  # noqa: F401  (test helpers)

TEST_SEED = 987654321


@pytest.fixture
def stream():
    return RngStream(TEST_SEED)


@pytest.fixture
def rng():
    return RngStream(TEST_SEED).generator()


@pytest.fixture
def cores(monkeypatch):
    """``cores(count)`` pretends this process, and the processes it forks,
    may run on ``count`` cores: ``fork_map`` starts that many workers."""
    def pretend(count):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(count)))
    return pretend


def _parts(result):
    """The comparable outputs of a checker or linear-algebra call."""
    from gtlab.reports import GapReport
    if isinstance(result, GapReport):
        return result.lhs, result.rhs, result.passed
    return result if isinstance(result, tuple) else (result,)


def assert_stack_matches_single(fn, *stacks, rel=1e-12):
    """``fn`` called once on stacked arguments agrees, member by member,
    with ``fn`` called on each member alone (arguments are split along
    their first axis)."""
    batched = _parts(fn(*stacks))
    for i in range(len(stacks[0])):
        single = _parts(fn(*(s[i] for s in stacks)))
        for stacked_part, single_part in zip(batched, single):
            if np.asarray(single_part).dtype == bool:
                assert np.array_equal(stacked_part[i], single_part)
            else:
                np.testing.assert_allclose(stacked_part[i], single_part,
                                           rtol=rel, atol=0)
