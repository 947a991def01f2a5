"""Fleet telemetry: per-epoch platform records and instance lifetimes.

The fleet simulator is telemetry-blind by default — a million-invocation
run reduces to one :class:`FleetResult` and leaves nothing else behind.
Passing a :class:`FleetRecorder` as ``Instruments(fleet=...)`` to
``simulate_fleet`` (mirroring the ring/profile/audit gating, disabled
path untouched) makes the same pass emit two JSONL record families:

* ``kind: "fleet.epoch"`` — one record per (stack, epoch) with the
  platform counters Memento's argument tracks over time: cold starts,
  warm starts, expirations, evictions, stranded byte-seconds, and the
  idle-pool size at the epoch boundary.
* ``kind: "fleet.instance"`` — warm/busy/idle lifetime spans for pool
  instances (bounded; see ``capacity``), each busy span tagged cold or
  warm and each idle span tagged with how it ended (``reused``,
  ``expired``, ``evicted``, or ``horizon``). ``repro obs timeline``
  renders these as one Perfetto track per instance with eviction
  markers.

The recorder only observes — it never perturbs pool decisions — so a
run with it attached produces a bit-identical :class:`FleetResult`
(pinned by the rebinding test in ``tests/fleet``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class FleetRecorder:
    """Bounded collector for one fleet pass's platform telemetry.

    ``capacity`` bounds the instance-lifetime records (epoch records are
    naturally small: stacks × epochs). Past the cap, spans are counted
    in ``dropped`` instead of stored, so memory stays constant no matter
    how many instances a fleet churns through.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.epochs: List[Dict[str, Any]] = []
        self.instances: List[Dict[str, Any]] = []
        self.dropped = 0

    # -- emit sites (called by FleetPool / simulate_fleet) ---------------

    def epoch(
        self,
        stack: str,
        index: int,
        start_s: float,
        end_s: float,
        **counters: Any,
    ) -> None:
        """One per-epoch platform record for ``stack``."""
        record: Dict[str, Any] = {
            "kind": "fleet.epoch",
            "stack": stack,
            "epoch": index,
            "start_s": start_s,
            "end_s": end_s,
        }
        record.update(counters)
        self.epochs.append(record)

    def instance_span(
        self,
        stack: str,
        function: str,
        uid: int,
        state: str,
        start_s: float,
        end_s: float,
        outcome: Optional[str] = None,
        cold: Optional[bool] = None,
    ) -> None:
        """One busy or idle lifetime span for a pool instance."""
        if len(self.instances) >= self.capacity:
            self.dropped += 1
            return
        record: Dict[str, Any] = {
            "kind": "fleet.instance",
            "stack": stack,
            "function": function,
            "uid": uid,
            "state": state,
            "start_s": start_s,
            "end_s": end_s,
        }
        if outcome is not None:
            record["outcome"] = outcome
        if cold is not None:
            record["cold"] = cold
        self.instances.append(record)

    def finish_stack(self, stack: str, stranding_timeline: List[float]) -> None:
        """Backfill per-epoch stranded byte-seconds once the pool pass
        finished (stranding is credited lazily on idle-span close, so
        the timeline is only final at the end of the run)."""
        for record in self.epochs:
            if record["stack"] != stack:
                continue
            index = record["epoch"]
            if 0 <= index < len(stranding_timeline):
                record["stranded_byte_s"] = stranding_timeline[index]

    # -- export ----------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """Every collected record, epoch records first, JSONL-ready."""
        return list(self.epochs) + list(self.instances)

    def clear(self) -> None:
        self.epochs = []
        self.instances = []
        self.dropped = 0
