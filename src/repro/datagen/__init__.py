"""Synthetic data: DBLP/XMark-like generators and query workloads."""

from .text import (CorrelatedGroup, PlantedTerm, PlantingPlan, TextSource,
                   frequency_ladder)
from .dblp import DBLPGenerator
from .xmark import XMarkGenerator
from .workload import QuerySpec, WorkloadBuilder, random_terms_in_range

__all__ = [
    "CorrelatedGroup",
    "PlantedTerm",
    "PlantingPlan",
    "TextSource",
    "frequency_ladder",
    "DBLPGenerator",
    "XMarkGenerator",
    "QuerySpec",
    "WorkloadBuilder",
    "random_terms_in_range",
]
