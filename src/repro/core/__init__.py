"""Chiaroscuro core: diptych, participant state machine, runner and results."""

from .collaborative import (
    DecryptionOutcome,
    collaborative_decrypt,
    collaborative_decrypt_many,
    share_holder_ids,
    share_index_of,
)
from .convergence import TerminationCriteria
from .diptych import Diptych, build_contribution, merge_diptychs
from .execution_log import ExecutionLog, IterationRecord
from .participant import ChiaroscuroParticipant, Phase
from .result import ChiaroscuroResult, CostSummary
from .runner import denormalize_profiles, normalize_collection, run_chiaroscuro

__all__ = [
    "Diptych",
    "build_contribution",
    "merge_diptychs",
    "ChiaroscuroParticipant",
    "Phase",
    "TerminationCriteria",
    "DecryptionOutcome",
    "collaborative_decrypt",
    "collaborative_decrypt_many",
    "share_holder_ids",
    "share_index_of",
    "ExecutionLog",
    "IterationRecord",
    "ChiaroscuroResult",
    "CostSummary",
    "run_chiaroscuro",
    "normalize_collection",
    "denormalize_profiles",
]
