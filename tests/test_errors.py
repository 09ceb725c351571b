"""Tests for the exception hierarchy."""

from __future__ import annotations

import pytest

from repro import errors


ALL_ERRORS = [
    errors.SimulationError,
    errors.ScheduleInPastError,
    errors.ConfigurationError,
    errors.TopologyError,
    errors.RoutingError,
    errors.TCPStateError,
    errors.ControlError,
    errors.TuningError,
    errors.ExperimentError,
    errors.DocumentError,
]


@pytest.mark.parametrize("exc_type", ALL_ERRORS)
def test_all_errors_derive_from_repro_error(exc_type):
    assert issubclass(exc_type, errors.ReproError)


def test_schedule_in_past_is_simulation_error():
    assert issubclass(errors.ScheduleInPastError, errors.SimulationError)


def test_routing_error_is_topology_error():
    assert issubclass(errors.RoutingError, errors.TopologyError)


def test_tuning_error_is_control_error():
    assert issubclass(errors.TuningError, errors.ControlError)


def test_catching_base_catches_all():
    for exc_type in ALL_ERRORS:
        with pytest.raises(errors.ReproError):
            raise exc_type("boom")


def test_errors_carry_message():
    err = errors.ConfigurationError("bad value")
    assert "bad value" in str(err)
