"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import faulthandler
import os
import sys

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core.blocks import BlockSet


# Per-test hang watchdog (stdlib only; pytest-timeout is not a
# dependency).  A test whose setup, call and teardown together run
# past this many seconds dumps every thread's stack to stderr and
# exits the run with a failure, instead of stalling until an outer CI
# timeout.  The slowest tier-1 test takes seconds, so the bound only
# trips on a real hang (e.g. a worker deadlocked after fork).
TEST_TIMEOUT_SECONDS = 300.0

_watchdog_fd: int | None = None


def pytest_configure(config):
    # Output capture is suspended while pytest configures, so fd 2 is
    # still the terminal: keep a duplicate for the watchdog, because
    # during a test fd 2 points at a capture file that an exiting
    # process never reports.
    global _watchdog_fd
    _watchdog_fd = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config):
    global _watchdog_fd
    if _watchdog_fd is not None:
        os.close(_watchdog_fd)
        _watchdog_fd = None


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(
        TEST_TIMEOUT_SECONDS, exit=True, file=_watchdog_fd
    )
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG for tests that need randomness."""
    return np.random.default_rng(12345)


def trit_strings(min_size: int = 1, max_size: int = 200) -> st.SearchStrategy[str]:
    """Strategy producing 0/1/X test-set strings."""
    return st.text(alphabet="01X", min_size=min_size, max_size=max_size)


def mv_strings(length: int) -> st.SearchStrategy[str]:
    """Strategy producing fixed-length matching-vector strings."""
    return st.text(alphabet="01U", min_size=length, max_size=length)


def random_block_set(
    rng: np.random.Generator,
    n_bits: int,
    block_length: int,
    care_probability: float = 0.5,
    one_bias: float = 0.5,
) -> BlockSet:
    """Build a random block set with the given care-bit density."""
    care = rng.random(n_bits) < care_probability
    values = rng.random(n_bits) < one_bias
    trits = np.where(care, values.astype(np.int8), np.int8(2))
    return BlockSet.from_trit_array(trits.astype(np.int8), block_length)
