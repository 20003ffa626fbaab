"""Semantic soundness checks: NonCrossing, Growing, and their prover."""

from .classify import (
    ActionClass,
    Classification,
    classify_action,
    classify_profile,
    is_growing_action,
)
from .growing import GrowingCheckViolation, check_growing, is_growing
from .noncrossing import (
    CrossingViolation,
    check_noncrossing,
    is_noncrossing,
    noncrossing_pair,
)
from .prover import Prover, ProverConfig

__all__ = [
    "ActionClass",
    "Classification",
    "CrossingViolation",
    "GrowingCheckViolation",
    "Prover",
    "ProverConfig",
    "check_growing",
    "check_noncrossing",
    "classify_action",
    "classify_profile",
    "is_growing",
    "is_growing_action",
    "is_noncrossing",
    "noncrossing_pair",
]
