"""Preemptive round-robin scheduler.

Threads run in quanta of ``quantum`` instructions (the timer tick).  A
SCHED event ends the quantum early (voluntary yield); SYSCALL events are
turned into calls through the kernel's syscall entry point; machine
faults (bad memory access, divide by zero, invalid opcode) mark the
thread FAULTED — a kernel oops — without taking the machine down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.kernel.cpu import TRACE_STATS, StepEvent, run_slice
from repro.kernel.memory import Memory
from repro.kernel.threads import Thread, ThreadStatus


@dataclass
class Scheduler:
    memory: Memory
    syscall_entry: Callable[[Thread], None]
    quantum: int = 50
    threads: List[Thread] = field(default_factory=list)
    total_instructions: int = 0
    #: set by stop_machine while it holds all CPUs
    frozen: bool = False
    #: NMI-watchdog analog: a thread holding preemption off (CLI) for
    #: this many instructions beyond its quantum is declared stuck
    preempt_watchdog: int = 10_000

    def add(self, thread: Thread) -> None:
        self.threads.append(thread)

    def runnable(self) -> List[Thread]:
        return [t for t in self.threads if t.runnable]

    def run_quantum(self, thread: Thread) -> None:
        """Run one thread for up to ``quantum`` instructions.

        A thread inside a CLI critical section is not preempted at the
        quantum boundary; the watchdog bounds how long it may keep the
        CPU that way.
        """
        thread.status = ThreadStatus.RUNNING
        cpu = thread.cpu
        executed = 0
        limit = self.quantum
        hard_limit = self.quantum + self.preempt_watchdog
        syscall_entry = self.syscall_entry

        def syscall_hook() -> None:
            syscall_entry(thread)

        while executed < limit:
            # Fast path: run the rest of the quantum as one
            # uninterrupted slice.  NORMAL events never re-enter the
            # scheduler, and SYSCALL is serviced inside the slice via
            # the hook; only quantum exhaustion, a yield/halt, or a
            # fault unwind to here.
            ran, event, fault = run_slice(cpu, self.memory,
                                          limit - executed,
                                          syscall_hook)
            executed += ran
            thread.instructions_executed += ran
            self.total_instructions += ran
            TRACE_STATS.total_insns += ran
            if fault is not None:
                thread.status = ThreadStatus.FAULTED
                thread.fault = fault
                return
            if event is StepEvent.HALT:
                thread.status = ThreadStatus.EXITED
                thread.exit_value = cpu.reg(0)
                return
            if event is StepEvent.SCHED:
                break
            if executed >= limit and cpu.preempt_disable_depth > 0:
                if executed >= hard_limit:
                    thread.status = ThreadStatus.FAULTED
                    thread.fault = ("watchdog: preemption disabled for "
                                    "%d instructions" % executed)
                    return
                limit = min(executed + self.quantum, hard_limit)
        thread.status = ThreadStatus.READY

    def run(self, max_instructions: int = 1_000_000) -> int:
        """Round-robin until every thread exits or the budget runs out.

        Returns the number of instructions executed by this call.
        """
        start = self.total_instructions
        budget_end = start + max_instructions
        while self.total_instructions < budget_end:
            if self.frozen:
                break
            runnable = self.runnable()
            if not runnable:
                break
            for thread in runnable:
                if self.frozen or self.total_instructions >= budget_end:
                    break
                if thread.runnable:
                    self.run_quantum(thread)
        return self.total_instructions - start

    def run_until(self, predicate: Callable[[], bool],
                  max_instructions: int = 1_000_000) -> bool:
        """Run until ``predicate()`` is true; False if the budget ran out."""
        start = self.total_instructions
        while not predicate():
            if not self.runnable():
                return predicate()
            before = self.total_instructions
            for thread in self.runnable():
                self.run_quantum(thread)
                if predicate():
                    return True
                if self.total_instructions - start >= max_instructions:
                    return False
            if self.total_instructions == before:
                return False
        return True

    def find_thread(self, name: str) -> Optional[Thread]:
        for thread in self.threads:
            if thread.name == name:
                return thread
        return None
