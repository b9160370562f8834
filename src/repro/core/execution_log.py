"""Execution log of a Chiaroscuro run.

The demonstration stores "the execution log ... in a local MongoDB database"
and the GUI replays it (evolution of the centroids, of the noise, of the
quality and cost measures, slide bars over the iterations).  This module is
the library equivalent: a structured, serialisable record of everything the
GUI needs, populated by the protocol runner and consumed by the analysis and
benchmark code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

import numpy as np

from ..exceptions import AnalysisError


def _to_jsonable(value: Any) -> Any:
    """Recursively convert numpy containers into plain JSON-compatible types."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, Mapping):
        return {str(key): _to_jsonable(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(entry) for entry in value]
    return value


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

    def to_dict(self) -> dict[str, Any]:
        """Serialise to plain JSON-compatible types."""
        return _to_jsonable({
            "iteration": self.iteration,
            "epsilon_spent": self.epsilon_spent,
            "centroids_before": self.centroids_before,
            "perturbed_means": self.perturbed_means,
            "noise_free_means": self.noise_free_means,
            "displacement": self.displacement,
            "tracked_assignments": self.tracked_assignments,
            "costs": self.costs,
        })

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "IterationRecord":
        """Inverse of :meth:`to_dict`."""
        def _array(key: str) -> np.ndarray | None:
            value = payload.get(key)
            return None if value is None else np.asarray(value, dtype=float)

        return cls(
            iteration=int(payload["iteration"]),
            epsilon_spent=float(payload.get("epsilon_spent", 0.0)),
            centroids_before=_array("centroids_before"),
            perturbed_means=_array("perturbed_means"),
            noise_free_means=_array("noise_free_means"),
            displacement=float(payload.get("displacement", 0.0)),
            tracked_assignments={
                int(key): int(value)
                for key, value in dict(payload.get("tracked_assignments", {})).items()
            },
            costs={str(key): float(value) for key, value in dict(payload.get("costs", {})).items()},
        )


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

    def __getitem__(self, index: int) -> IterationRecord:
        return self._records[index]

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

    # ------------------------------------------------------------------ serialisation
    def to_dict(self) -> dict[str, Any]:
        """Serialise the whole log (metadata + records)."""
        return {
            "metadata": _to_jsonable(self.metadata),
            "records": [record.to_dict() for record in self._records],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExecutionLog":
        """Inverse of :meth:`to_dict`."""
        log = cls(metadata=dict(payload.get("metadata", {})))
        for record in payload.get("records", []):
            log.append(IterationRecord.from_dict(record))
        return log
