"""Step 3 of the Chiaroscuro execution sequence: convergence.

:func:`iteration_policy` builds, from the configuration, the per-iteration
rules every engine applies: the Laplace sensitivity, the budget strategy,
the ε accountant and the termination criteria.
:func:`perturbed_means` is the local rule every participant applies to the
decrypted gossip averages — the object engine per device, the slab engine
once for the whole population.  :class:`TerminationCriteria` then decides
whether the run goes on.  The basic criterion is the one of Section II.A: stop when the distance
between the perturbed centroids and the perturbed means falls below a
threshold, or when the maximum number of iterations is reached.  Footnote 2
of the paper notes that Chiaroscuro "supports the addition of other
termination criteria for coping with the impact of the differentially-private
perturbation on the convergence of centroids (e.g., monitoring centroids
quality)"; the plateau criterion below, always on, implements that idea by
stopping once the displacement between consecutive centroids stops
improving for :data:`QUALITY_PATIENCE` consecutive iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_non_negative_float, check_positive_int
from ..clustering.kmeans import centroid_displacement, reseed_centroid
from ..clustering.smoothing import smooth_centroids
from ..config import ChiaroscuroConfig
from ..privacy.budget import PrivacyAccountant
from ..privacy.laplace import SensitivityModel
from ..privacy.strategies import BudgetStrategy, make_budget_strategy

#: Consecutive iterations without a smaller displacement the plateau
#: criterion tolerates before it stops the run.
QUALITY_PATIENCE = 3


def iteration_policy(
    config: ChiaroscuroConfig, series_length: int
) -> tuple[SensitivityModel, BudgetStrategy, PrivacyAccountant, TerminationCriteria]:
    """Fresh ``(sensitivity, strategy, accountant, termination)`` for a run
    over series of *series_length* points — the same for every device, every
    engine and the packed slot bound."""
    privacy = config.privacy
    kmeans = config.kmeans
    return (
        SensitivityModel(series_length=series_length, value_bound=privacy.value_bound),
        make_budget_strategy(privacy.budget_strategy, privacy.epsilon, kmeans.max_iterations),
        PrivacyAccountant(privacy.epsilon, privacy.delta_slack),
        TerminationCriteria(
            convergence_threshold=kmeans.convergence_threshold,
            max_iterations=kmeans.max_iterations,
        ),
    )


def perturbed_means(
    averages: np.ndarray,
    centroids: np.ndarray,
    n_nodes: int,
    iteration: int,
    config: ChiaroscuroConfig,
) -> tuple[np.ndarray, float]:
    """Rebuild, repair and smooth the perturbed means of one iteration.

    *averages* is the ``(k, T+1)`` block of gossip averages (per cluster:
    the noisy sum of its members' series, then their noisy count, both
    divided by the population size *n_nodes*).  A cluster whose count is
    above half a member becomes ``sum / count``, any other keeps its old
    centroid; everything is clipped to the public value bound.  Empty
    clusters are then repaired by splitting the (noisily) largest one with
    public randomness only, so every participant derives the same
    replacement, and the result is smoothed.  Returns the new centroids and
    their displacement from *centroids*.
    """
    averages = np.asarray(averages, dtype=float)
    sums, counts = averages[:, :-1], averages[:, -1]
    bound = config.privacy.value_bound
    min_count = 1.0 / (2.0 * max(1, n_nodes))
    populated = counts > min_count
    perturbed = np.array(centroids, dtype=float)
    perturbed[populated] = sums[populated] / counts[populated][:, None]
    perturbed = np.clip(perturbed, 0.0, bound)
    donor = int(np.argmax(counts))
    for cluster in range(counts.shape[0]):
        if cluster != donor and counts[cluster] <= min_count:
            perturbed[cluster] = reseed_centroid(
                perturbed[donor], bound, iteration, cluster,
                seed=config.simulation.seed,
            )
    perturbed = smooth_centroids(perturbed, config.smoothing)
    return perturbed, centroid_displacement(centroids, perturbed)


@dataclass
class TerminationCriteria:
    """Stateful termination decision shared by the protocol and baselines.

    Parameters
    ----------
    convergence_threshold:
        Displacement below which the run is declared converged.
    max_iterations:
        Hard cap on the number of iterations.
    quality_patience:
        How many consecutive iterations may fail to beat the smallest
        displacement seen so far before the run stops with
        ``"quality_plateau"``.  This plateau criterion (footnote 2 of the
        paper) is always on; it watches the displacement, not the inertia.
    """

    convergence_threshold: float = 1e-3
    max_iterations: int = 15
    quality_patience: int = QUALITY_PATIENCE

    def __post_init__(self) -> None:
        check_non_negative_float(self.convergence_threshold, "convergence_threshold")
        check_positive_int(self.max_iterations, "max_iterations")
        check_positive_int(self.quality_patience, "quality_patience")
        self._best_displacement: float | None = None
        self._non_improving = 0

    def reset(self) -> None:
        """Forget the patience state (between runs)."""
        self._best_displacement = None
        self._non_improving = 0

    def should_stop(self, iteration: int, displacement: float) -> tuple[bool, str]:
        """Decide whether to stop after *iteration* with the given displacement.

        Returns ``(stop, reason)`` where *reason* is one of ``"converged"``,
        ``"max_iterations"``, ``"quality_plateau"`` or ``""`` (continue).
        """
        displacement = check_non_negative_float(displacement, "displacement")
        if displacement <= self.convergence_threshold:
            return True, "converged"
        if iteration >= self.max_iterations:
            return True, "max_iterations"
        if self._best_displacement is None or displacement < self._best_displacement:
            self._best_displacement = displacement
            self._non_improving = 0
        else:
            self._non_improving += 1
            if self._non_improving >= self.quality_patience:
                return True, "quality_plateau"
        return False, ""
