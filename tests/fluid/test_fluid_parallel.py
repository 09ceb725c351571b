"""Parallel-batch execution of the fluid backend.

The fluid fast path exists for sweeps, and sweeps fan out over a process
pool — so fluid results must pickle cleanly and come back in input order
from both serial and multi-process execution.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.experiments import map_specs
from repro.spec import RunSpec
from repro.testing import SMALL_PATH


def _batch_specs():
    return [
        RunSpec(cc="reno", config=SMALL_PATH, duration=1.5, seed=3, backend="fluid"),
        RunSpec(cc="restricted", config=SMALL_PATH, duration=1.5, seed=3,
                backend="fluid"),
        RunSpec(cc="reno", config=SMALL_PATH.replace(ifq_capacity_packets=60),
                duration=1.5, seed=3, backend="fluid"),
    ]


class TestFluidBatches:
    def test_serial_batch(self):
        results = map_specs(_batch_specs(), max_workers=1)
        assert [r.flow.algorithm for r in results] == ["reno", "restricted", "reno"]
        assert all(r.backend == "fluid" for r in results)

    def test_parallel_batch_matches_serial_and_preserves_order(self):
        serial = map_specs(_batch_specs(), max_workers=1)
        parallel = map_specs(_batch_specs(), max_workers=2)
        assert len(serial) == len(parallel) == 3
        for s, p in zip(serial, parallel):
            assert s.flow.algorithm == p.flow.algorithm
            assert s.config == p.config
            assert s.flow.bytes_acked == p.flow.bytes_acked
            assert np.array_equal(s.cwnd_segments, p.cwnd_segments)

    def test_fluid_results_pickle_round_trip(self):
        result = map_specs(_batch_specs()[:1], max_workers=1)[0]
        clone = pickle.loads(pickle.dumps(result))
        assert clone.flow.bytes_acked == result.flow.bytes_acked
        assert clone.backend == "fluid"
        assert np.array_equal(clone.ifq_occupancy, result.ifq_occupancy)
        assert clone.config == result.config
