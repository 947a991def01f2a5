"""The assembled machine: cores, caches, TLBs, DRAM, frame space.

``Machine`` owns the shared platform state; each ``Core`` owns its private
cache slice and TLB. The harness drives a core through the kernel (baseline)
or through Memento (treatment) — the machine is identical in both so that
every comparison is iso-hardware apart from Memento's structures.
"""

from __future__ import annotations

from typing import List

from repro.obs.instruments import NO_INSTRUMENTS, Instruments
from repro.sim.cache import CacheHierarchy
from repro.sim.cycles import CostModel, DEFAULT_COSTS
from repro.sim.dram import Dram
from repro.sim.memory import FrameSpace
from repro.sim.params import MachineParams
from repro.sim.stats import Stats
from repro.sim.tlb import TlbHierarchy


class Core:
    """One core: private cache hierarchy + TLB + cycle accumulator.

    Cycles are accumulated by *category* so the harness can report the
    Fig. 9 breakdown (obj-alloc / obj-free / page-mgmt / bypass / app).
    """

    __slots__ = (
        "core_id",
        "machine",
        "stats",
        "caches",
        "tlb",
        "cycles",
        "_cycle_cells",
    )

    def __init__(
        self, core_id: int, machine: "Machine", stats: Stats
    ) -> None:
        self.core_id = core_id
        self.machine = machine
        self.stats = stats
        self.caches = CacheHierarchy(
            machine.params,
            stats,
            machine.dram,
            on_writeback=self._writeback_backpressure,
            instruments=machine.instruments,
        )
        self.tlb = TlbHierarchy(machine.params, stats)
        self.cycles = 0
        #: Interned per-category ``cycles.*`` cells — ``charge`` runs for
        #: every simulated event, and building ``f"cycles.{category}"``
        #: per call dominated its cost.
        self._cycle_cells: dict = {}

    def _writeback_backpressure(self) -> None:
        self.charge(self.machine.costs.writeback_penalty, "mem_backpressure")

    def charge(self, cycles: float, category: str = "app") -> None:
        """Account ``cycles`` against this core under ``category``."""
        self.cycles += cycles
        cell = self._cycle_cells.get(category)
        if cell is None:
            cell = self.cycle_counter(category)
        cell.pending += cycles

    def cycle_counter(self, category: str):
        """Interned cell for ``cycles.<category>`` (hot callers hoist it)."""
        cell = self.stats.counter("cycles." + category)
        self._cycle_cells[category] = cell
        return cell

    def cycles_in(self, category: str) -> float:
        """Cycles accumulated so far under ``category``."""
        return self.stats[f"cycles.{category}"]

    def context_switch_flush(self) -> None:
        """TLB flush performed at context-switch time (no ASIDs modeled)."""
        self.tlb.flush()


class Machine:
    """The simulated platform of Table 3.

    ``instruments`` carries the run's observers; every component built
    on this machine (caches, kernel, allocators, Memento hardware) binds
    its hooks from it at construction.
    """

    def __init__(
        self,
        params: MachineParams | None = None,
        costs: CostModel | None = None,
        instruments: Instruments = NO_INSTRUMENTS,
    ) -> None:
        self.params = params or MachineParams()
        self.costs = costs or DEFAULT_COSTS
        self.instruments = instruments
        self.stats = Stats()
        self.dram = Dram(self.params, self.stats)
        self.frames = FrameSpace(self.params)
        self.cores: List[Core] = [
            Core(i, self, self.stats) for i in range(self.params.num_cores)
        ]

    @property
    def core(self) -> Core:
        """The first core — convenience for single-core workloads."""
        return self.cores[0]

    def total_cycles(self) -> float:
        """Max cycles across cores (wall-clock proxy)."""
        return max(core.cycles for core in self.cores)

    def seconds(self) -> float:
        """Simulated wall time."""
        return self.params.cycles_to_seconds(self.total_cycles())
