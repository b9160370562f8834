"""Tests of the execution log."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ExecutionLog, IterationRecord
from repro.exceptions import AnalysisError


def make_record(iteration: int, noise: float = 0.1) -> IterationRecord:
    centroids = np.full((2, 3), float(iteration))
    return IterationRecord(
        iteration=iteration,
        epsilon_spent=0.25,
        centroids_before=centroids - 1,
        perturbed_means=centroids + noise,
        noise_free_means=centroids,
        displacement=0.5 / iteration,
        tracked_assignments={0: iteration % 2, 7: 1},
        costs={"messages_sent": 10.0 * iteration, "bytes_sent": 100.0},
    )


class TestIterationRecord:
    def test_noise_magnitude(self):
        record = make_record(1, noise=0.1)
        assert record.noise_magnitude() == pytest.approx(np.sqrt(6 * 0.01))

    def test_noise_magnitude_requires_both_sides(self):
        record = IterationRecord(iteration=1, perturbed_means=np.zeros((1, 2)))
        with pytest.raises(AnalysisError):
            record.noise_magnitude()

class TestExecutionLog:
    def test_append_and_views(self):
        log = ExecutionLog(metadata={"dataset": "test"})
        for iteration in (1, 2, 3):
            log.append(make_record(iteration))
        assert len(log) == 3
        assert [record.iteration for record in log] == [1, 2, 3]
        assert len(log.noise_magnitudes()) == 3
        assert log.displacements() == pytest.approx([0.5, 0.25, 0.5 / 3])

    def test_out_of_order_iterations_rejected(self):
        log = ExecutionLog()
        log.append(make_record(2))
        with pytest.raises(AnalysisError):
            log.append(make_record(1))

    def test_tracked_assignment_history(self):
        log = ExecutionLog()
        log.append(make_record(1))
        log.append(make_record(2))
        history = log.tracked_assignment_history()
        assert history[0] == [1, 0]
        assert history[7] == [1, 1]

    def test_iteration_over_records(self):
        log = ExecutionLog()
        log.append(make_record(1))
        assert [record.iteration for record in log] == [1]
