"""Correctness-checking stress workload (the paper's §6.2 criterion 2:
"the kernel needed to continue functioning without any observed problems
while running a correctness-checking POSIX stress test").

The battery exercises the base kernel's syscall surface from user space:
file open/seek/write/read round trips, credential transitions, scheduler
yields under thread interleaving, and pure-compute checksums.  Every
program checks its own results and returns a magic value on success, so
a silent corruption (e.g. from a mis-applied update) is caught.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.kernel.machine import Machine
from repro.kernel.threads import ThreadStatus

STRESS_OK = 424200

_FILE_ROUNDTRIP = """
int main(void) {
    int fd = __syscall(4, 0, 0, 0);
    if (fd < 0) { return 1; }
    if (__syscall(8, fd, 32, 0) != 0) { return 2; }
    for (int i = 0; i < 16; i++) {
        if (__syscall(7, fd, 1000 + i * 7, 0) != 0) { return 3; }
    }
    if (__syscall(8, fd, 32, 0) != 0) { return 4; }
    int total = 0;
    for (int i = 0; i < 16; i++) {
        total += __syscall(6, fd, 0, 0);
    }
    if (__syscall(5, fd, 0, 0) != 0) { return 5; }
    if (total != 16840) { return 6; }
    return %(ok)d;
}
""" % {"ok": STRESS_OK}

_CRED_TRANSITIONS = """
int main(void) {
    int original = __syscall(0, 0, 0, 0);
    if (__syscall(1, 500, 0, 0) != 0) { return 1; }
    if (__syscall(0, 0, 0, 0) != 500) { return 2; }
    if (original != 0) {
        if (__syscall(1, 0, 0, 0) == 0) { return 3; }
    }
    if (__syscall(1, original, 0, 0) != 0) { return 4; }
    if (__syscall(0, 0, 0, 0) != original) { return 5; }
    return %(ok)d;
}
""" % {"ok": STRESS_OK}

_SCHED_YIELDS = """
int main(void) {
    int spun = __syscall(10, 25, 0, 0);
    if (spun != 25) { return 1; }
    for (int i = 0; i < 10; i++) {
        if (__syscall(9, 0, 0, 0) != 0) { return 2; }
    }
    return %(ok)d;
}
""" % {"ok": STRESS_OK}

def _expected_checksum() -> int:
    acc = 7
    for i in range(1, 40):
        acc = (acc * 31 + i) & 0xFFFF
        acc = acc ^ (acc >> 3)
    return acc


_COMPUTE_CHECKSUM = """
int main(void) {
    int acc = 7;
    for (int i = 1; i < 40; i++) {
        acc = (acc * 31 + i) & 65535;
        acc = acc ^ (acc >> 3);
    }
    if (acc != %(want)d) { return acc; }
    int pid = __syscall(12, 0, 0, 0);
    if (pid <= 0) { return 1; }
    return %(ok)d;
}
""" % {"ok": STRESS_OK, "want": _expected_checksum()}

# Producer/consumer through the shared ramdisk: the producer publishes
# values at positions 100..115, the consumer polls each slot (yielding
# while empty).  Exercises cross-thread kernel state under preemption.
_PRODUCER = """
int main(void) {
    int fd = __syscall(4, 0, 0, 0);
    if (fd < 0) { return 1; }
    for (int i = 0; i < 16; i++) {
        if (__syscall(8, fd, 100 + i, 0) != 0) { return 2; }
        if (__syscall(7, fd, 7000 + i, 0) != 0) { return 3; }
        __syscall(9, 0, 0, 0);
    }
    __syscall(5, fd, 0, 0);
    return %(ok)d;
}
""" % {"ok": STRESS_OK}

_CONSUMER = """
int main(void) {
    int fd = __syscall(4, 0, 0, 0);
    if (fd < 0) { return 1; }
    int total = 0;
    for (int i = 0; i < 16; i++) {
        int value = 0;
        int polls = 0;
        while (value < 7000) {
            if (polls > 20000) { return 2; }
            polls++;
            if (__syscall(8, fd, 100 + i, 0) != 0) { return 3; }
            value = __syscall(6, fd, 0, 0);
            if (value < 7000) { __syscall(9, 0, 0, 0); }
        }
        total += value;
    }
    __syscall(5, fd, 0, 0);
    if (total != 16 * 7000 + 120) { return 4; }
    return %(ok)d;
}
""" % {"ok": STRESS_OK}

BATTERY = (
    ("file-roundtrip", _FILE_ROUNDTRIP),
    ("cred-transitions", _CRED_TRANSITIONS),
    ("sched-yields", _SCHED_YIELDS),
    ("compute-checksum", _COMPUTE_CHECKSUM),
    ("pipe-producer", _PRODUCER),
    ("pipe-consumer", _CONSUMER),
)

# Sustained per-member load for rollouts: each round mixes a compute
# kernel with real syscalls (file round trip, getpid, yield) and checks
# its own results, so a member corrupted mid-rollout turns red instead
# of spinning silently.  Threads use disjoint ramdisk slots so several
# instances interleave safely on one machine.  The round count is high
# enough that the workload outlives any rollout.
_SUSTAINED = """
int main(void) {
    int acc = 7;
    int round = 0;
    while (round < %(rounds)d) {
        for (int i = 1; i < 40; i++) {
            acc = (acc * 31 + i) & 65535;
            acc = acc ^ (acc >> 3);
        }
        int fd = __syscall(4, 0, 0, 0);
        if (fd < 0) { return 1; }
        int slot = %(slot)d + (round & 7);
        if (__syscall(8, fd, slot, 0) != 0) { return 2; }
        if (__syscall(7, fd, 4000 + round, 0) != 0) { return 3; }
        if (__syscall(8, fd, slot, 0) != 0) { return 4; }
        if (__syscall(6, fd, 0, 0) != 4000 + round) { return 5; }
        if (__syscall(5, fd, 0, 0) != 0) { return 6; }
        if (__syscall(12, 0, 0, 0) <= 0) { return 7; }
        __syscall(9, 0, 0, 0);
        round = round + 1;
    }
    return %(ok)d;
}
"""


def load_sustained_workload(machine: Machine, threads: int = 2,
                            rounds: int = 1 << 20) -> list:
    """Load ``threads`` long-running stress threads on a live machine.

    This is the fleet's under-load mode: members execute genuine
    syscall traffic (kernel code on thread stacks) for the lifetime of
    a rollout instead of idling on a spinner, which is what makes
    quiescence retries and stack-check aborts measurable under
    production-like pressure.  Returns the created threads.
    """
    created = []
    for index in range(threads):
        source = _SUSTAINED % {"rounds": rounds, "ok": STRESS_OK,
                               "slot": 200 + index * 8}
        created.append(machine.load_user_program(
            source, name="stress-load-%d" % index))
    return created


@dataclass
class StressReport:
    passed: bool
    failures: List[str] = field(default_factory=list)
    oops_count: int = 0
    programs_run: int = 0


def run_stress_battery(machine: Machine) -> StressReport:
    """Run the battery: the programs run concurrently under the
    preemptive scheduler, which is how update bugs that only bite under
    context switching get caught."""
    report = StressReport(passed=True)
    oops_before = len(machine.oopses)
    threads = []
    for name, source in BATTERY:
        threads.append((name, machine.load_user_program(
            source, name="stress-%s" % name)))
    machine.run(max_instructions=3_000_000)

    for name, thread in threads:
        report.programs_run += 1
        if thread.status is not ThreadStatus.EXITED:
            report.passed = False
            report.failures.append("%s: did not finish (%s)"
                                   % (name, thread.status.value))
        elif thread.exit_value != STRESS_OK:
            report.passed = False
            report.failures.append("%s: returned %r"
                                   % (name, thread.exit_value))
        if not thread.alive:
            machine.reap_thread(thread)
    report.oops_count = len(machine.oopses) - oops_before
    if report.oops_count:
        report.passed = False
        report.failures.append("%d kernel oops(es)" % report.oops_count)
    return report
