"""Fleet rollout service: canary waves over live simulated kernels.

The deployment layer above create/apply — what the Ksplice *product*
(Uptrack) did for real fleets: keep N machines running, push each
update out in canary waves, gate every wave on machine health plus a
workload probe, and automatically LIFO-undo a failed wave before it
spreads.

* :mod:`~repro.fleet.model` — :class:`RolloutPlan` (what to do, JSON
  both ways) and :class:`RolloutReport` (what happened, deterministic
  JSON), plus fault-injection specs and last-report persistence;
* :mod:`~repro.fleet.health` — the health gate: machine liveness +
  the corpus CVE's semantics probe with per-member expectations;
* :mod:`~repro.fleet.orchestrator` — :class:`Fleet` (N kernels, one
  shared build, keepalive workload) and :class:`RolloutOrchestrator`
  (gate -> waves -> health -> grow-or-rollback);
* :mod:`~repro.fleet.remote` — ship a whole rollout to an
  authenticated ``repro worker`` as one ``fleet-rollout`` item that
  carries the plan, the pack and the gate's analysis.

Entry points: ``repro fleet rollout|status|rollback`` and
:func:`~repro.fleet.orchestrator.rollout_corpus_cve`.
"""

from repro.fleet.health import MemberHealth, check_machine
from repro.fleet.model import (
    GREEN,
    OUTCOME_COMPLETE,
    OUTCOME_GATED,
    OUTCOME_HALTED,
    OUTCOME_ROLLED_BACK,
    RED,
    InjectedFault,
    MemberReport,
    RolloutError,
    RolloutPlan,
    RolloutReport,
    WaveReport,
    default_rollout_path,
    load_report,
    save_report,
)
from repro.fleet.orchestrator import (
    Fleet,
    FleetMember,
    RolloutOrchestrator,
    replay_rollback,
    rollout_corpus_cve,
)
from repro.fleet.remote import run_remote_rollout

__all__ = [
    "Fleet",
    "FleetMember",
    "GREEN",
    "InjectedFault",
    "MemberHealth",
    "MemberReport",
    "OUTCOME_COMPLETE",
    "OUTCOME_GATED",
    "OUTCOME_HALTED",
    "OUTCOME_ROLLED_BACK",
    "RED",
    "RolloutError",
    "RolloutOrchestrator",
    "RolloutPlan",
    "RolloutReport",
    "WaveReport",
    "check_machine",
    "default_rollout_path",
    "load_report",
    "replay_rollback",
    "rollout_corpus_cve",
    "run_remote_rollout",
    "save_report",
]
