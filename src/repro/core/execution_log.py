"""Execution log of a Chiaroscuro run.

The demonstration stores "the execution log ... in a local MongoDB database"
and the GUI replays it (evolution of the centroids, of the noise, of the
quality and cost measures, slide bars over the iterations).  This module is
the library equivalent: a structured record of everything the
GUI needs, populated by the protocol runner and consumed by the analysis and
benchmark code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

import numpy as np

from ..exceptions import AnalysisError


@dataclass
class IterationRecord:
    """Everything recorded about one protocol iteration.

    Attributes
    ----------
    iteration:
        1-based iteration index.
    epsilon_spent:
        Privacy budget consumed by this iteration's disclosure.
    centroids_before:
        The perturbed centroids the iteration started from.
    perturbed_means:
        The perturbed means disclosed at the end of the iteration (after
        smoothing), which become the next centroids.
    noise_free_means:
        The means the iteration would have produced without any perturbation
        or gossip error (computed by the simulation observer for analysis
        only; a real deployment cannot know them).
    displacement:
        Average centroid displacement between ``centroids_before`` and
        ``perturbed_means``.
    tracked_assignments:
        Cluster assignment of the tracked participants (the demo follows a
        random subset of four participants across iterations).
    costs:
        Message/byte/crypto-operation counters accumulated during the
        iteration.
    """

    iteration: int
    epsilon_spent: float = 0.0
    centroids_before: np.ndarray | None = None
    perturbed_means: np.ndarray | None = None
    noise_free_means: np.ndarray | None = None
    displacement: float = 0.0
    tracked_assignments: dict[int, int] = field(default_factory=dict)
    costs: dict[str, float] = field(default_factory=dict)

    def noise_magnitude(self) -> float:
        """L2 distance between the perturbed and noise-free means.

        This is the quantity behind the demo's "impact of the noise on the
        centroids" panel.
        """
        if self.perturbed_means is None or self.noise_free_means is None:
            raise AnalysisError("both perturbed and noise-free means are required")
        return float(np.linalg.norm(self.perturbed_means - self.noise_free_means))


class ExecutionLog:
    """Ordered collection of :class:`IterationRecord` plus run-level metadata."""

    def __init__(self, metadata: Mapping[str, Any] | None = None) -> None:
        self.metadata: dict[str, Any] = dict(metadata or {})
        self._records: list[IterationRecord] = []

    # ------------------------------------------------------------------ container
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[IterationRecord]:
        return iter(self._records)

    def append(self, record: IterationRecord) -> None:
        """Add a record; iterations must arrive in increasing order."""
        if self._records and record.iteration <= self._records[-1].iteration:
            raise AnalysisError(
                f"iteration {record.iteration} logged after {self._records[-1].iteration}"
            )
        self._records.append(record)

    # ------------------------------------------------------------------ views
    def noise_magnitudes(self) -> list[float]:
        """Per-iteration noise magnitude (perturbed vs noise-free means)."""
        return [
            record.noise_magnitude()
            for record in self._records
            if record.perturbed_means is not None and record.noise_free_means is not None
        ]

    def displacements(self) -> list[float]:
        """Per-iteration centroid displacement."""
        return [record.displacement for record in self._records]

    def tracked_assignment_history(self) -> dict[int, list[int]]:
        """Per-tracked-participant sequence of assigned clusters."""
        history: dict[int, list[int]] = {}
        for record in self._records:
            for participant, cluster in record.tracked_assignments.items():
                history.setdefault(participant, []).append(cluster)
        return history
