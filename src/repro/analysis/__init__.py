"""Analysis layer: quality comparisons, cost model, profile search, reporting."""

from .costs import (
    ByteAccounting,
    CostEstimate,
    CostModel,
    ProtocolWorkload,
    measure_crypto_costs,
    sweep_crypto_costs,
)
from .envelope import align_profiles, nondeterminism_envelope
from .profiles import ProfileMatch, closest_profiles, match_subsequence, profile_recall
from .quality import (
    centralized_reference,
    compare_with_baselines,
    evaluate_result,
    heuristics_ablation,
)
from .reporting import format_comparison, format_series, format_table, format_value

__all__ = [
    "ByteAccounting",
    "CostModel",
    "CostEstimate",
    "ProtocolWorkload",
    "measure_crypto_costs",
    "sweep_crypto_costs",
    "align_profiles",
    "nondeterminism_envelope",
    "ProfileMatch",
    "match_subsequence",
    "closest_profiles",
    "profile_recall",
    "centralized_reference",
    "evaluate_result",
    "compare_with_baselines",
    "heuristics_ablation",
    "format_table",
    "format_series",
    "format_comparison",
    "format_value",
]
