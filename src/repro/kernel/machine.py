"""The machine: memory map, thread management, syscall plumbing.

Memory map (all addresses 32-bit):

====================  ==========  =======================================
region                base        contents
====================  ==========  =======================================
user programs         0x08048000  linked user program images
user/kernel stacks    0x20000000  one 64 KiB stack per thread
kernel image          0xC0100000  the linked kernel (text+data+bss)
exit gadget           0xC3000000  a single HLT; threads return here
kernel heap           0xC6000000  kmalloc'd objects (shadow structures)
module area           0xC8000000  loadable modules (helper/primary)
====================  ==========  =======================================

There is no privilege separation or virtual memory — a syscall is a call
through the kernel's ``syscall_entry`` code on the calling thread's own
stack, which is exactly the property the Ksplice stack check relies on.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.compiler import CompilerOptions
from repro.errors import MachineError
from repro.kbuild import BuildResult, KernelConfig, SourceTree, build_tree
from repro.kernel.cpu import CPUState
from repro.kernel.memory import Memory
from repro.kernel.modules import ModuleLoader
from repro.kernel.scheduler import Scheduler
from repro.kernel.stop_machine import StopMachine
from repro.kernel.threads import Thread, ThreadStatus
from repro.linker import KernelImage, link_kernel

USER_BASE = 0x08048000
USER_AREA_SIZE = 1 << 22
STACK_AREA_BASE = 0x20000000
STACK_SIZE = 64 * 1024
MAX_THREADS = 64
GADGET_BASE = 0xC3000000
HEAP_BASE = 0xC6000000
HEAP_SIZE = 1 << 20
MODULE_BASE = 0xC8000000
MODULE_AREA_SIZE = 1 << 22

_HLT = b"\x00"

SYSCALL_ENTRY_SYMBOL = "syscall_entry"


@dataclass
class Oops:
    """Record of a thread fault (kernel oops)."""

    thread_name: str
    ip: int
    message: str


@dataclass
class MachineHealth:
    """One machine's liveness snapshot, as a fleet health probe sees it.

    ``healthy`` is the headline verdict: no oopses ever, and no faulted
    thread still on the scheduler.  The thread counters ride along so
    a rollout report can say *why* a member went red.  The interpreter
    perf counters (traced vs interpreted instructions; traces compiled
    here, adopted from the process's trace library, and evicted) make
    JIT behavior observable per machine.  They depend on which traces
    earlier machines of the process published, so rollout reports
    leave them out (:func:`repro.fleet.health.check_machine`).
    """

    healthy: bool
    oops_count: int
    faulted_threads: int
    blocked_threads: int
    runnable_threads: int
    total_instructions: int
    traced_insns: int = 0
    interpreted_insns: int = 0
    trace_hits: int = 0
    traces_compiled: int = 0
    traces_adopted: int = 0
    traces_evicted: int = 0
    trace_hit_rate: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "healthy": self.healthy,
            "oops_count": self.oops_count,
            "faulted_threads": self.faulted_threads,
            "blocked_threads": self.blocked_threads,
            "runnable_threads": self.runnable_threads,
            "traced_insns": self.traced_insns,
            "interpreted_insns": self.interpreted_insns,
            "trace_hits": self.trace_hits,
            "traces_compiled": self.traces_compiled,
            "traces_adopted": self.traces_adopted,
            "traces_evicted": self.traces_evicted,
            "trace_hit_rate": self.trace_hit_rate,
        }


class Machine:
    """A running kernel instance."""

    def __init__(self, image: KernelImage,
                 require_signed_modules: bool = False,
                 quantum: int = 50):
        self.image = image
        self.memory = Memory()
        self.memory.map_segment("kernel", image.base, data=bytes(image.data),
                                executable=True)
        self.memory.map_segment("gadget", GADGET_BASE, data=_HLT,
                                writable=False, executable=True)
        # The big areas reserve address space but materialize backing
        # bytes lazily: most boots touch a fraction of them, and the
        # evaluation boots hundreds of machines.
        self.memory.map_segment("heap", HEAP_BASE, reserve=HEAP_SIZE)
        self.memory.map_segment("modules", MODULE_BASE,
                                reserve=MODULE_AREA_SIZE, executable=True)
        self.memory.map_segment("user", USER_BASE, reserve=USER_AREA_SIZE,
                                executable=True)
        self._stack_segment = self.memory.map_segment(
            "stacks", STACK_AREA_BASE, reserve=STACK_SIZE * MAX_THREADS)
        self.loader = ModuleLoader(self.memory,
                                   require_signed=require_signed_modules)
        self.scheduler = Scheduler(memory=self.memory,
                                   syscall_entry=self._enter_syscall,
                                   quantum=quantum)
        self.stop_machine = StopMachine(self.scheduler)
        self.oopses: List[Oops] = []
        self._next_tid = 1
        self._next_stack = STACK_AREA_BASE
        self._free_stacks: List[Tuple[int, int]] = []
        self._user_cursor = USER_BASE
        self._heap_cursor = HEAP_BASE
        self._syscall_entry_addr: Optional[int] = None
        entries = image.kallsyms.candidates(SYSCALL_ENTRY_SYMBOL)
        if len(entries) == 1:
            self._syscall_entry_addr = entries[0].address

    # -- memory helpers -------------------------------------------------------

    def read_u32(self, address: int) -> int:
        return self.memory.read_u32(address)

    def write_u32(self, address: int, value: int) -> None:
        self.memory.write_u32(address, value)

    def read_bytes(self, address: int, count: int) -> bytes:
        return self.memory.read_bytes(address, count)

    def kmalloc(self, size: int) -> int:
        """Allocate zeroed kernel-heap memory (bump allocator)."""
        aligned = (size + 3) & ~3
        if self._heap_cursor + aligned > HEAP_BASE + HEAP_SIZE:
            raise MachineError("kernel heap exhausted")
        address = self._heap_cursor
        self._heap_cursor += aligned
        self.memory.write_bytes(address, bytes(aligned))
        return address

    def symbol(self, name: str) -> int:
        """Unambiguous kallsyms lookup."""
        return self.image.kallsyms.unique_address(name)

    # -- threads ---------------------------------------------------------------

    def _allocate_stack(self) -> Tuple[int, int]:
        if self._free_stacks:
            return self._free_stacks.pop()
        if self._next_stack + STACK_SIZE > STACK_AREA_BASE + \
                STACK_SIZE * MAX_THREADS:
            raise MachineError("out of thread stacks")
        base = self._next_stack
        self._next_stack += STACK_SIZE
        return base, STACK_SIZE

    def reap_thread(self, thread: Thread) -> None:
        """Remove a finished thread and recycle its stack."""
        if thread.alive:
            raise MachineError("cannot reap a live thread %s" % thread.name)
        if thread in self.scheduler.threads:
            self.scheduler.threads.remove(thread)
        self._free_stacks.append((thread.stack_base, thread.stack_size))

    def create_thread(self, entry: Union[str, int],
                      args: Sequence[int] = (),
                      name: Optional[str] = None,
                      is_user: bool = False) -> Thread:
        """Create a thread that calls ``entry(args...)`` then halts."""
        address = self.symbol(entry) if isinstance(entry, str) else entry
        stack_base, stack_size = self._allocate_stack()
        cpu = CPUState()
        cpu.ip = address
        sp = stack_base + stack_size
        for value in reversed(list(args)):
            sp -= 4
            self.memory.write_u32(sp, value)
        sp -= 4
        self.memory.write_u32(sp, GADGET_BASE)  # return -> HLT
        cpu.set_reg(6, sp)
        thread = Thread(tid=self._next_tid,
                        name=name or ("thread-%d" % self._next_tid),
                        cpu=cpu, stack_base=stack_base,
                        stack_size=stack_size, is_user=is_user)
        self._next_tid += 1
        self.scheduler.add(thread)
        return thread

    def _enter_syscall(self, thread: Thread) -> None:
        """SYSCALL instruction: call through the kernel entry point.

        The return-address push lands on the caller's stack (a plain
        writable segment) in the overwhelmingly common case, so it is
        written through the segment's backing bytes directly — this
        trampoline runs for every syscall on every workload and its
        cost is pure overhead on top of the guest's own instructions.
        """
        if self._syscall_entry_addr is None:
            raise MachineError("kernel has no %s symbol"
                               % SYSCALL_ENTRY_SYMBOL)
        cpu = thread.cpu
        sp = cpu.reg(6) - 4
        segment = self._stack_segment
        offset = sp - segment.base
        data = segment.data
        if 0 <= offset and offset + 4 <= len(data):
            struct.pack_into("<I", data, offset, cpu.ip)
        else:
            # off-stack sp (or not yet materialized): full write path
            self.memory.write_u32(sp, cpu.ip)
        cpu.set_reg(6, sp)
        cpu.ip = self._syscall_entry_addr

    # -- execution ---------------------------------------------------------------

    def run(self, max_instructions: int = 1_000_000) -> int:
        executed = self.scheduler.run(max_instructions)
        self._collect_oopses()
        return executed

    def run_thread(self, thread: Thread,
                   max_instructions: int = 1_000_000) -> Optional[int]:
        """Run only ``thread`` until it exits; returns its exit value.

        Works even while stop_machine has the scheduler frozen, which is
        how update hook functions execute during the stopped window.
        """
        budget = max_instructions
        while thread.alive and budget > 0:
            before = thread.instructions_executed
            self.scheduler.run_quantum(thread)
            budget -= thread.instructions_executed - before
        self._collect_oopses()
        if thread.status is ThreadStatus.FAULTED:
            raise MachineError(
                "thread %s oops: %s" % (thread.name, thread.fault))
        if thread.alive:
            raise MachineError(
                "thread %s did not finish within %d instructions"
                % (thread.name, max_instructions))
        return thread.exit_value

    def call_function(self, entry: Union[str, int],
                      args: Sequence[int] = (),
                      max_instructions: int = 1_000_000) -> Optional[int]:
        """Call a kernel function synchronously on a fresh thread.

        The thread is reaped afterwards, so repeated calls do not exhaust
        the stack area.
        """
        thread = self.create_thread(entry, args=args,
                                    name="call-%s" % entry)
        try:
            return self.run_thread(thread, max_instructions)
        finally:
            if not thread.alive:
                self.reap_thread(thread)

    def _collect_oopses(self) -> None:
        for thread in self.scheduler.threads:
            if thread.status is ThreadStatus.FAULTED and not any(
                    o.thread_name == thread.name for o in self.oopses):
                self.oopses.append(Oops(thread_name=thread.name,
                                        ip=thread.cpu.ip,
                                        message=thread.fault or ""))

    # -- sleep/wake (fleet health, §5.2 quiescence scenarios) ---------------

    def sleep_thread(self, thread: Thread) -> None:
        """Put a live thread to sleep: never scheduled, stack stays live.

        This is the §5.2 hazard in miniature — a thread asleep inside a
        patched function keeps its return addresses on the stack, so
        the conservative stack check keeps vetoing stop_machine until
        the thread wakes.
        """
        if not thread.alive:
            raise MachineError("cannot sleep finished thread %s"
                               % thread.name)
        thread.status = ThreadStatus.BLOCKED

    def wake_thread(self, thread: Thread) -> None:
        """Make a blocked thread schedulable again."""
        if thread.status is not ThreadStatus.BLOCKED:
            raise MachineError("thread %s is not blocked" % thread.name)
        thread.status = ThreadStatus.READY

    def trace_stats(self) -> dict:
        """This machine's JIT counters (zeros when nothing compiled)."""
        cache = self.memory._decode_cache
        total = self.scheduler.total_instructions
        traced = cache.traced_insns if cache is not None else 0
        return {
            "traced_insns": traced,
            "interpreted_insns": max(total - traced, 0),
            "trace_hits": cache.trace_hits if cache is not None else 0,
            "traces_compiled": cache.compiled if cache is not None else 0,
            "traces_adopted": cache.adopted if cache is not None else 0,
            "traces_evicted": cache.evicted if cache is not None else 0,
            "trace_hit_rate": traced / total if total else 0.0,
        }

    def health(self) -> MachineHealth:
        """Liveness snapshot for fleet health gating."""
        self._collect_oopses()
        statuses = [t.status for t in self.scheduler.threads]
        faulted = sum(1 for s in statuses if s is ThreadStatus.FAULTED)
        blocked = sum(1 for s in statuses if s is ThreadStatus.BLOCKED)
        runnable = sum(1 for s in statuses
                       if s in (ThreadStatus.READY, ThreadStatus.RUNNING))
        trace = self.trace_stats()
        return MachineHealth(
            healthy=not self.oopses and not faulted,
            oops_count=len(self.oopses),
            faulted_threads=faulted,
            blocked_threads=blocked,
            runnable_threads=runnable,
            total_instructions=self.scheduler.total_instructions,
            traced_insns=trace["traced_insns"],
            interpreted_insns=trace["interpreted_insns"],
            trace_hits=trace["trace_hits"],
            traces_compiled=trace["traces_compiled"],
            traces_adopted=trace["traces_adopted"],
            traces_evicted=trace["traces_evicted"],
            trace_hit_rate=trace["trace_hit_rate"])

    # -- user programs -------------------------------------------------------------

    def load_user_program(self, source: str, name: str = "a.out",
                          options: Optional[CompilerOptions] = None) -> Thread:
        """Compile, link, and load a user MiniC program; thread starts at
        ``main``."""
        tree = SourceTree(version=name, files={name + ".c": source})
        build = build_tree(tree, options or CompilerOptions())
        cursor = (self._user_cursor + 15) & ~15
        image = link_kernel(build, base=cursor)
        end = image.end
        if end > USER_BASE + USER_AREA_SIZE:
            raise MachineError("user area exhausted")
        self.memory.write_bytes(cursor, bytes(image.data))
        self._user_cursor = end
        main = image.kallsyms.unique_address("main")
        return self.create_thread(main, name=name, is_user=True)

    def run_user_program(self, source: str, name: str = "a.out",
                         max_instructions: int = 1_000_000) -> Optional[int]:
        """Convenience: load and run a user program to completion."""
        thread = self.load_user_program(source, name=name)
        return self.run_thread(thread, max_instructions)


def boot_kernel(tree: SourceTree,
                options: Optional[CompilerOptions] = None,
                config: Optional[KernelConfig] = None,
                require_signed_modules: bool = False,
                build: Optional[BuildResult] = None,
                quantum: int = 50) -> Machine:
    """Build, link, and boot a kernel from source.

    If the kernel defines ``kernel_init``, it runs to completion on the
    boot thread before this returns — which is what makes "changes data
    init" patches (Table 1) interesting: by the time an update is applied
    the init code has already run.
    """
    if build is None:
        build = build_tree(tree, options or CompilerOptions(), config)
    image = link_kernel(build)
    machine = Machine(image, require_signed_modules=require_signed_modules,
                      quantum=quantum)
    init_candidates = image.kallsyms.candidates("kernel_init")
    if len(init_candidates) == 1:
        machine.call_function("kernel_init")
    return machine
