"""Dataset generators: CER-like electricity, NUMED-like tumor growth, synthetic."""

from .cer import (
    DEFAULT_ARCHETYPES,
    CERConfig,
    HouseholdArchetype,
    generate_cer_like,
)
from .numed import (
    DEFAULT_RESPONSE_ARCHETYPES,
    NUMEDConfig,
    ResponseArchetype,
    claret_tumor_size,
    generate_numed_like,
)
from .registry import (
    DatasetEntry,
    available_datasets,
    dataset_population_defaults,
    dataset_size_parameter,
    load_dataset,
    load_dataset_for_population,
    register_dataset,
)
from .synthetic import (
    GaussianClustersConfig,
    generate_gaussian_clusters,
)

__all__ = [
    "CERConfig",
    "HouseholdArchetype",
    "DEFAULT_ARCHETYPES",
    "generate_cer_like",
    "NUMEDConfig",
    "ResponseArchetype",
    "DEFAULT_RESPONSE_ARCHETYPES",
    "claret_tumor_size",
    "generate_numed_like",
    "GaussianClustersConfig",
    "generate_gaussian_clusters",
    "available_datasets",
    "dataset_population_defaults",
    "dataset_size_parameter",
    "DatasetEntry",
    "load_dataset",
    "load_dataset_for_population",
    "register_dataset",
]
