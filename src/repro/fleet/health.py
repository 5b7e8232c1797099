"""Health gating: is a fleet member safe to keep, or must we roll back?

A member's health combines three signals, all of which the paper's
production story needs:

1. **machine liveness** — :meth:`Machine.health`: any oops ever, or any
   faulted thread still on the scheduler, is red.  This catches an
   update that crashes the kernel *after* applying cleanly.
2. **stack-check exhaustion** — surfaced at apply time as
   :class:`~repro.errors.StackCheckError` (§5.2's sleeping-thread
   hazard); the orchestrator feeds it in as a failed apply rather than
   a probe result, since the kernel itself is untouched.
3. **workload probe** — the corpus CVE's semantics probe run against
   the live member: a patched member must return the *post* value, an
   unpatched member must still return the *pre* value.  A probe that
   faults (MachineError) is red regardless of value.

The probe expectation flips per member within one wave — the canary
members are patched while the rest of the fleet is not — which is why
:func:`check_machine` takes ``expect_patched`` explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.errors import MachineError
from repro.kernel.machine import Machine, MachineHealth

if TYPE_CHECKING:
    from repro.evaluation.archetypes import ProbeSpec

#: the :class:`MachineHealth` counters a member report carries.  The
#: JIT's trace counters stay out: they depend on which traces earlier
#: machines of the process left in the trace library, and two
#: identical rollouts must write identical reports.
REPORTED_COUNTERS = ("healthy", "oops_count", "faulted_threads",
                     "blocked_threads", "runnable_threads")


@dataclass
class MemberHealth:
    """One member's verdict at a health gate."""

    healthy: bool
    reasons: List[str] = field(default_factory=list)
    #: the machine's :data:`REPORTED_COUNTERS` (lands in the member
    #: report JSON)
    machine: dict = field(default_factory=dict)
    probe_value: Optional[int] = None

    def reason_text(self) -> str:
        return "; ".join(self.reasons)


def check_machine(machine: Machine,
                  probe: Optional["ProbeSpec"],
                  expect_patched: bool) -> MemberHealth:
    """The full health gate for one live machine.

    ``probe`` is the corpus CVE's workload probe (None skips it):
    ``function(args)`` must return ``post`` on a patched member and
    ``pre`` on an unpatched one, after the ``setup`` calls run.
    """
    snapshot = machine.health()
    health = MemberHealth(healthy=snapshot.healthy,
                          machine=_reported(snapshot))
    if not snapshot.healthy:
        oops = machine.oopses[-1] if machine.oopses else None
        health.reasons.append(
            "oops on thread %s at 0x%08x: %s"
            % (oops.thread_name, oops.ip, oops.message) if oops
            else "%d faulted thread(s)" % snapshot.faulted_threads)
    if probe is not None:
        try:
            value = _run_probe(machine, probe)
        except MachineError as exc:
            health.healthy = False
            health.reasons.append("health probe faulted: %s" % exc)
            # the probe fault itself registers as an oops; refresh the
            # counters so the report shows the post-probe state
            health.machine = _reported(machine.health())
            return health
        health.probe_value = value
        expected = probe.post if expect_patched else probe.pre
        if value != expected:
            health.healthy = False
            health.reasons.append(
                "probe %s returned %d, expected %d (%s member)"
                % (probe.function, value, expected,
                   "patched" if expect_patched else "unpatched"))
    return health


def _reported(snapshot: MachineHealth) -> dict:
    counters = snapshot.to_json_dict()
    return {key: counters[key] for key in REPORTED_COUNTERS}


def _run_probe(machine: Machine, probe: "ProbeSpec") -> int:
    for fn, args in probe.setup:
        machine.call_function(fn, list(args))
    value = machine.call_function(probe.function, list(probe.args))
    return value if value is not None else 0
