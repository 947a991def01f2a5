"""Architectural auditing: invariant checker + differential oracle.

``repro.audit`` validates the simulator against itself: pluggable
:class:`Invariant` rules check cross-structure consistency of the live
Memento state at configurable epochs, and the differential oracle replays
workloads lockstep against deliberately naive reference implementations
of the closure-factory hot paths, reporting first divergence with a
minimized reproducing prefix. See DESIGN.md §13.

The oracle half is loaded lazily: ``oracle`` imports the harness (it
builds whole systems), and the harness imports ``invariants`` for its
audit context — an eager import here would close that cycle.
"""

from repro.audit.invariants import (
    AuditContext,
    Auditor,
    DEFAULT_RULES,
    EPOCHS,
    Invariant,
    Violation,
)

_ORACLE_EXPORTS = (
    "BypassSoundnessMonitor",
    "DiffReport",
    "Divergence",
    "build_reference_system",
    "minimize_prefix",
    "run_diff",
    "run_lockstep",
)

__all__ = [
    "AuditContext",
    "Auditor",
    "DEFAULT_RULES",
    "EPOCHS",
    "Invariant",
    "Violation",
    *_ORACLE_EXPORTS,
]


def __getattr__(name: str):
    if name in _ORACLE_EXPORTS:
        from repro.audit import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
