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
:func:`check_member` takes ``expect_patched`` explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import MachineError
from repro.kernel.machine import Machine, MachineHealth

#: the :class:`MachineHealth` counters a member report carries.  The
#: JIT's trace counters stay out: they depend on which traces earlier
#: machines of the process left in the trace library, and two
#: identical rollouts must write identical reports.
REPORTED_COUNTERS = ("healthy", "oops_count", "faulted_threads",
                     "blocked_threads", "runnable_threads")


@dataclass(frozen=True)
class HealthPolicy:
    """The workload probe a rollout runs between waves.

    Built from a corpus CVE's :class:`ProbeSpec` —
    ``function(args)`` returns ``pre_value`` on a vulnerable kernel and
    ``post_value`` once properly patched.  ``setup`` calls run first,
    results ignored.
    """

    function: str
    args: Tuple[int, ...] = ()
    pre_value: int = 0
    post_value: int = 0
    setup: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()

    @classmethod
    def from_probe(cls, probe) -> "HealthPolicy":
        """Adapt an evaluation ``ProbeSpec`` (duck-typed)."""
        return cls(function=probe.function, args=tuple(probe.args),
                   pre_value=probe.pre, post_value=probe.post,
                   setup=tuple((fn, tuple(args))
                               for fn, args in probe.setup))

    def expected(self, patched: bool) -> int:
        return self.post_value if patched else self.pre_value


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
                  policy: Optional[HealthPolicy],
                  expect_patched: bool) -> MemberHealth:
    """The full health gate for one live machine."""
    snapshot = machine.health()
    health = MemberHealth(healthy=snapshot.healthy,
                          machine=_reported(snapshot))
    if not snapshot.healthy:
        oops = machine.oopses[-1] if machine.oopses else None
        health.reasons.append(
            "oops on thread %s at 0x%08x: %s"
            % (oops.thread_name, oops.ip, oops.message) if oops
            else "%d faulted thread(s)" % snapshot.faulted_threads)
    if policy is not None:
        try:
            value = _run_policy_probe(machine, policy)
        except MachineError as exc:
            health.healthy = False
            health.reasons.append("health probe faulted: %s" % exc)
            # the probe fault itself registers as an oops; refresh the
            # counters so the report shows the post-probe state
            health.machine = _reported(machine.health())
            return health
        health.probe_value = value
        expected = policy.expected(expect_patched)
        if value != expected:
            health.healthy = False
            health.reasons.append(
                "probe %s returned %d, expected %d (%s member)"
                % (policy.function, value, expected,
                   "patched" if expect_patched else "unpatched"))
    return health


def _reported(snapshot: MachineHealth) -> dict:
    counters = snapshot.to_json_dict()
    return {key: counters[key] for key in REPORTED_COUNTERS}


def _run_policy_probe(machine: Machine, policy: HealthPolicy) -> int:
    for fn, args in policy.setup:
        machine.call_function(fn, list(args))
    value = machine.call_function(policy.function, list(policy.args))
    return value if value is not None else 0
