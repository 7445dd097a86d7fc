"""Explicit-state model checking of the protocol (the paper's §2.5)."""

from .engine import CheckResult, ModelChecker, StateSpaceExceeded
from .invariants import (
    ALL_INVARIANTS,
    at_rest,
    directory_consistency,
    owner_holds_copy,
    single_writer,
    value_coherence,
)
from .model import HOME, ProtocolModel, initial_state

__all__ = [
    "CheckResult",
    "ModelChecker",
    "StateSpaceExceeded",
    "ALL_INVARIANTS",
    "at_rest",
    "directory_consistency",
    "owner_holds_copy",
    "single_writer",
    "value_coherence",
    "HOME",
    "ProtocolModel",
    "initial_state",
]
