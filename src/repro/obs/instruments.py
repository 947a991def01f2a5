"""The one explicit instrumentation value.

An :class:`Instruments` bundles every observer a run can carry — the
span tracer, the sampled hardware-event ring, the cycle-attribution
profile, the invariant auditor and the fleet recorder — and is handed
down explicitly: ``SimulatedSystem(..., instruments=)`` stores it on its
:class:`~repro.sim.machine.Machine`, and every component built from the
machine binds its hooks from there at construction. The engine
(``ExperimentEngine.run_many``) and ``simulate_fleet`` take it the same
way, so two concurrent runs can carry different observers.

The default, :data:`NO_INSTRUMENTS`, leaves every hook off: the closure
factories then build exactly the uninstrumented replay paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.obs.events import EventRing
from repro.obs.profile import CycleProfile
from repro.obs.tracing import NULL_TRACER


@dataclass(frozen=True)
class Instruments:
    """Observers bound into a run; every field defaults to off."""

    tracer: Any = NULL_TRACER
    ring: Optional[EventRing] = None
    profile: Optional[CycleProfile] = None
    #: A :class:`repro.audit.Auditor`.
    audit: Optional[Any] = None
    #: A :class:`repro.fleet.FleetRecorder`.
    fleet: Optional[Any] = None


#: Nothing observed: the production configuration.
NO_INSTRUMENTS = Instruments()
