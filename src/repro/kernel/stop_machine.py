"""The stop_machine facility (§5.2).

``stop_machine`` captures every CPU — in the simulation, freezes the
scheduler so no thread executes — runs a function on one CPU, and
releases.  The report records the wall-clock time of the stopped
window (the paper measures ~0.7 ms) and two simulated-instruction
counts, snapshotted per thread around the function:

* ``instructions_during_stop`` — instructions run by threads that
  existed when the machine stopped.  Always 0: the paper's invariant
  that nothing else runs while stopped.
* ``hook_instructions`` — instructions run on threads created inside
  the window, i.e. the update's own ``.ksplice_apply`` hook code
  (``Machine.call_function``); 0 for hook-free updates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, List

from repro.kernel.scheduler import Scheduler


@dataclass
class StopMachineReport:
    """Timing of one stop_machine window."""

    wall_seconds: float
    #: instructions run by threads that existed at the stop (always 0)
    instructions_during_stop: int
    #: instructions run by threads started inside the window (hooks)
    hook_instructions: int = 0

    @property
    def wall_milliseconds(self) -> float:
        return self.wall_seconds * 1000.0


@dataclass
class StopMachine:
    scheduler: Scheduler
    reports: List[StopMachineReport] = field(default_factory=list)

    def run(self, fn: Callable[[], Any]) -> Any:
        """Capture all CPUs, run ``fn`` on one, release, return its result."""
        total_before = self.scheduler.total_instructions
        existing = [(thread, thread.instructions_executed)
                    for thread in self.scheduler.threads]
        self.scheduler.frozen = True
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - start
            self.scheduler.frozen = False
            by_existing = sum(thread.instructions_executed - count
                              for thread, count in existing)
            self.reports.append(StopMachineReport(
                wall_seconds=elapsed,
                instructions_during_stop=by_existing,
                hook_instructions=(self.scheduler.total_instructions
                                   - total_before - by_existing),
            ))
        return result

    @property
    def last_report(self) -> StopMachineReport:
        if not self.reports:
            raise RuntimeError("stop_machine has not run")
        return self.reports[-1]
