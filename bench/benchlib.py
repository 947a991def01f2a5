"""Shared pieces of the benchmark: layer probe, statistics, digests,
environment record.

Nothing here imports ``repro`` at module load; ``run.py`` puts the
checkout's ``src/`` on ``sys.path`` first and fails cleanly when it is
missing.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence


# -- results ---------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run measured.

    ``end_to_end`` and ``per_layer`` map metric name -> value; the unit
    of each lives in ``run.py``'s tables. ``report`` is free-form and is
    printed (as one JSON line) ahead of the final result line.
    """

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    report: Dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


# -- statistics --------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (the convention ``repro.fleet`` uses)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with ``statistics.quantiles(n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# -- digests ------------------------------------------------------------------


def digest(payload: Any) -> str:
    """Short content hash of a JSON-able payload (sorted keys)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def derive_seed(seed: int, *labels: Any) -> int:
    """Independent 31-bit child seed for one generated input."""
    blob = "/".join(str(part) for part in (seed, *labels)).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big") >> 1


# -- host measurements ---------------------------------------------------------


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of a live child process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def environment(seed: int) -> Dict[str, Any]:
    """The run environment printed beside every set of numbers.

    ``env_id`` digests the host-side fields (not the seed or the
    program's source fingerprint), so runs whose ``env_id`` differ must
    not be compared (``steadiness.py`` refuses).
    """
    from repro.api import SimulatedSystem, get_workload, source_fingerprint

    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    # The kernel ``auto`` resolves to on this host (vectorized iff numpy
    # imports), read from a system built the way every run builds one.
    kernel = SimulatedSystem(get_workload("html"), "baseline").replay_kernel
    env = {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "replay_kernel": kernel,
        "repro_kernel_env": os.environ.get("REPRO_KERNEL"),
        "nproc": len(os.sched_getaffinity(0)),
    }
    env["env_id"] = digest(env)
    env["seed"] = seed
    env["source_fingerprint"] = source_fingerprint()
    return env


# -- the layer probe -----------------------------------------------------------


class Probe:
    """Runtime wrappers around public functions of the program's layers.

    Each wrapped call is a span. Spans nest per thread, so a layer's
    time is its *self* time: its duration minus the time of wrapped
    calls made inside it. Summing self times over all layers therefore
    never double counts, and ``wall - sum`` is the unattributed
    remainder. Nothing is wrapped until :meth:`wrap` is called, and
    :meth:`restore` (or leaving the ``with`` block) puts every original
    back, so untraced runs execute the program unmodified.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` until :meth:`restore`."""
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        on_result: Optional[Callable[[tuple, Any], None]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a ``layer`` span."""
        original = getattr(owner, attr)
        probe = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = probe._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with probe._lock:
                    probe.self_s[layer] += elapsed - children
                    probe.calls[layer] += 1
            if on_result is not None:
                on_result(args, result)
            return result

        self.replace(owner, attr, wrapper)

    def count(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without timing them (for hot
        inner functions, where a timer would dwarf the call)."""
        original = getattr(owner, attr)
        calls = self.calls

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[name] += 1
            return original(*args, **kwargs)

        self.replace(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def attributed_s(self) -> float:
        return sum(self.self_s.values())

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()


def log(message: str) -> None:
    """Progress to stderr; stdout carries only results."""
    print(f"bench: {message}", file=sys.stderr, flush=True)
