"""Shared fixtures.

Unit tests run on the ``toy-64`` parameter set (fast, structurally
identical to the paper's); integration tests can request ``test80_group``;
anything touching the paper-scale 160/512-bit parameters is marked
``slow``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.params import setup
from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running (paper-scale 160/512-bit parameters)")


@pytest.fixture(scope="session")
def group():
    """Session-wide toy type-A group (64-bit order)."""
    return TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])


@pytest.fixture(scope="session")
def test80_group():
    """Mid-size type-A group (80-bit order, 160-bit field)."""
    return TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["test-80"])


@pytest.fixture(scope="session")
def paper_group():
    """The paper's parameterization (160-bit order, 512-bit field)."""
    return TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["paper-160"])


@pytest.fixture()
def rng():
    """Deterministic RNG; reseeded per test for isolation."""
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def params_k4(group):
    return setup(group, k=4)


@pytest.fixture(scope="session")
def params_k1(group):
    return setup(group, k=1)


@pytest.fixture(scope="session")
def params_k8(group):
    return setup(group, k=8)
