"""Shared fixtures for the test suite.

Packet-level tests use the *scaled-down* path from :mod:`repro.testing`
(20 Mbit/s, 40 ms RTT, 20-packet IFQ) so that each test runs in a fraction
of a second while exercising the same code paths and the same qualitative
behaviour (slow-start overshoot of the IFQ, send-stalls, restricted
slow-start regulation) as the full-scale ANL–LBNL configuration used by the
benchmarks.
"""

from __future__ import annotations

import pytest

from repro.core import RestrictedSlowStartConfig
from repro.sim import Simulator
from repro.testing import SMALL_PATH
from repro.workloads import PathConfig, build_dumbbell


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator with a fixed seed."""
    return Simulator(seed=1234)


@pytest.fixture
def small_path() -> PathConfig:
    """Scaled-down path configuration for fast packet-level tests."""
    return SMALL_PATH


@pytest.fixture
def small_scenario(sim, small_path):
    """A single-flow dumbbell on the scaled-down path."""
    return build_dumbbell(sim, small_path, n_flows=1)


@pytest.fixture
def small_rss_config(small_path) -> RestrictedSlowStartConfig:
    """Restricted slow-start configuration tuned for the scaled-down path."""
    return RestrictedSlowStartConfig.for_path(small_path.rtt)

