"""Rollout plans and reports: the fleet subsystem's data model.

A :class:`RolloutPlan` says *what to do* — which CVE's update to roll
out, over how many machines, how fast the waves grow, which faults to
inject — and is plain JSON both ways so it can ride a ``fleet-rollout``
work item to a remote worker unchanged.  A :class:`RolloutReport` says
*what happened*: one :class:`WaveReport` per canary wave, one
:class:`MemberReport` per member the wave touched, and a fleet-level
outcome.  Reports render to deterministic JSON exactly like analyzer
reports (sorted keys, no wall-clock fields), so two runs of the same
plan against the same kernel diff as byte-identical documents.

The last report is persisted next to the last trace
(``cache_root()/last-rollout.json``) — ``repro fleet status`` and
``repro fleet rollback`` read it back.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ReproError
from repro.pipeline.store import cache_root

#: wave verdicts
GREEN = "green"
RED = "red"

#: fleet-level outcomes
OUTCOME_COMPLETE = "complete"
OUTCOME_HALTED = "halted"
OUTCOME_GATED = "gated"
#: set by ``repro fleet rollback`` after reversing a finished rollout
OUTCOME_ROLLED_BACK = "rolled-back"

#: member outcomes (``MemberReport.outcome``)
MEMBER_UPDATED = "updated"
MEMBER_OOPS = "oops"
MEMBER_STACK_CHECK = "stack-check-exhausted"
MEMBER_APPLY_FAILED = "apply-failed"
MEMBER_PROBE_FAILED = "probe-failed"
MEMBER_LOST = "lost"

#: injectable fault kinds
FAULT_OOPS = "oops"
FAULT_WEDGE = "wedge"
FAULT_KILL = "kill"
FAULT_KINDS = (FAULT_OOPS, FAULT_WEDGE, FAULT_KILL)


class RolloutError(ReproError):
    """A rollout could not run at all (bad plan, unknown CVE, ...)."""


@dataclass(frozen=True)
class InjectedFault:
    """One deliberate failure, pinned to a member and a wave.

    ``oops``
        after the member's apply succeeds, crash a kernel thread on it
        (dereference of an unmapped address) — the health gate must go
        red and the wave must roll back.
    ``wedge``
        before the member's apply, park a thread asleep *inside* a
        patched function; the conservative stack check then vetoes
        stop_machine until its retries exhaust (§5.2's sleeping-thread
        hazard, on demand).
    ``kill``
        the member disappears mid-wave, as a crashed or partitioned
        host: no apply, no undo, reported ``lost``.
    """

    kind: str
    member: int
    wave: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise RolloutError("unknown fault kind %r (one of %s)"
                               % (self.kind, ", ".join(FAULT_KINDS)))

    def to_json_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "member": self.member,
                "wave": self.wave}

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "InjectedFault":
        return cls(kind=data["kind"], member=int(data["member"]),
                   wave=int(data.get("wave", 0)))

    @classmethod
    def parse(cls, kind: str, text: str) -> "InjectedFault":
        """CLI form ``MEMBER:WAVE`` (``3:1`` = member 3 in wave 1)."""
        member_text, sep, wave_text = text.partition(":")
        try:
            member = int(member_text)
            wave = int(wave_text) if sep else 0
        except ValueError:
            raise RolloutError("fault %r is not MEMBER[:WAVE]" % text)
        return cls(kind=kind, member=member, wave=wave)


@dataclass
class RolloutPlan:
    """Everything a rollout needs, serializable both ways."""

    cve_id: str
    fleet_size: int = 4
    #: members patched in wave 0
    canary: int = 1
    #: wave size multiplier after a green wave
    growth: int = 2
    #: instructions each member's scheduler runs between waves (the
    #: fleet stays *alive*; updates land on machines with history)
    keepalive_instructions: int = 2_000
    #: run the corpus probe as the between-wave health workload
    probe: bool = True
    #: what members execute between waves: "spinner" parks them on the
    #: kernel's sys_spin loop; "stress" loads real syscall stress
    #: threads (repro.evaluation.stress.load_sustained_workload), the
    #: under-load rollout mode
    workload: str = "spinner"
    faults: List[InjectedFault] = field(default_factory=list)
    #: registry-backed mode (the control plane): names the registered
    #: member behind each fleet index, one per member, in wave order
    member_ids: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.fleet_size < 1:
            raise RolloutError("fleet_size must be >= 1")
        if not 1 <= self.canary <= self.fleet_size:
            raise RolloutError("canary must be in 1..fleet_size")
        if self.growth < 1:
            raise RolloutError("growth must be >= 1")
        if self.workload not in ("spinner", "stress"):
            raise RolloutError("workload must be 'spinner' or 'stress'")
        if self.member_ids and len(self.member_ids) != self.fleet_size:
            raise RolloutError("member_ids names %d members for a "
                               "fleet of %d"
                               % (len(self.member_ids), self.fleet_size))
        for fault in self.faults:
            if not 0 <= fault.member < self.fleet_size:
                raise RolloutError("fault member %d outside fleet 0..%d"
                                   % (fault.member, self.fleet_size - 1))

    def rollout_id(self) -> str:
        return "rollout-%s-n%d" % (self.cve_id, self.fleet_size)

    def member_name(self, index: int) -> str:
        """Registry id behind a fleet index (``member-N`` when none)."""
        if self.member_ids and 0 <= index < len(self.member_ids):
            return self.member_ids[index]
        return "member-%d" % index

    def wave_sizes(self) -> List[int]:
        """Deterministic wave schedule: canary, then exponential."""
        sizes: List[int] = []
        remaining = self.fleet_size
        size = self.canary
        while remaining > 0:
            take = min(size, remaining)
            sizes.append(take)
            remaining -= take
            size *= self.growth
        return sizes

    def faults_for(self, wave: int, member: int) -> List[InjectedFault]:
        return [f for f in self.faults
                if f.wave == wave and f.member == member]

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "cve_id": self.cve_id,
            "fleet_size": self.fleet_size,
            "canary": self.canary,
            "growth": self.growth,
            "keepalive_instructions": self.keepalive_instructions,
            "probe": self.probe,
            "workload": self.workload,
            "faults": [f.to_json_dict() for f in self.faults],
            "member_ids": list(self.member_ids),
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "RolloutPlan":
        return cls(
            cve_id=data["cve_id"],
            fleet_size=int(data.get("fleet_size", 4)),
            canary=int(data.get("canary", 1)),
            growth=int(data.get("growth", 2)),
            keepalive_instructions=int(
                data.get("keepalive_instructions", 2_000)),
            probe=bool(data.get("probe", True)),
            workload=str(data.get("workload", "spinner")),
            faults=[InjectedFault.from_json_dict(f)
                    for f in data.get("faults", [])],
            member_ids=[str(m) for m in data.get("member_ids", [])])


@dataclass
class MemberReport:
    """What one wave did to one member."""

    member: int
    outcome: str
    detail: str = ""
    #: the update landed (and, unless rolled back, is still live)
    applied: bool = False
    #: the wave went red and this member's update was LIFO-undone
    rolled_back: bool = False
    #: ``Machine.health().to_json_dict()`` at the wave's health gate
    health: Dict[str, Any] = field(default_factory=dict)
    stack_check_attempts: int = 0

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "member": self.member,
            "outcome": self.outcome,
            "detail": self.detail,
            "applied": self.applied,
            "rolled_back": self.rolled_back,
            "health": dict(sorted(self.health.items())),
            "stack_check_attempts": self.stack_check_attempts,
        }


@dataclass
class WaveReport:
    """One canary wave: who was patched and how it went."""

    index: int
    members: List[int]
    verdict: str = GREEN
    member_reports: List[MemberReport] = field(default_factory=list)
    #: members of *this* wave whose update was undone after a red
    rolled_back: List[int] = field(default_factory=list)
    #: ``{"member": index, "reason": text}`` for each live member
    #: *outside* this wave that the health gate found unhealthy — what
    #: turned the wave red when none of its own members failed
    bystanders: List[Dict[str, Any]] = field(default_factory=list)

    def report_for(self, member: int) -> Optional[MemberReport]:
        for report in self.member_reports:
            if report.member == member:
                return report
        return None

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "members": sorted(self.members),
            "verdict": self.verdict,
            "member_reports": [
                r.to_json_dict()
                for r in sorted(self.member_reports,
                                key=lambda r: r.member)],
            "rolled_back": sorted(self.rolled_back),
            "bystanders": [dict(b) for b in self.bystanders],
        }


@dataclass
class RolloutReport:
    """The whole rollout, deterministic JSON like analyzer reports."""

    rollout_id: str
    cve_id: str
    kernel_version: str
    plan: RolloutPlan
    outcome: str = OUTCOME_COMPLETE
    #: analyzer verdict that gated the rollout ("" when no analysis ran)
    gate_verdict: str = ""
    gate_detail: str = ""
    waves: List[WaveReport] = field(default_factory=list)
    #: members running the update when the rollout ended
    updated_members: List[int] = field(default_factory=list)
    rolled_back_members: List[int] = field(default_factory=list)
    lost_members: List[int] = field(default_factory=list)
    #: every surviving member answered the final health probe
    survivors_healthy: bool = True

    def red_wave(self) -> Optional[WaveReport]:
        for wave in self.waves:
            if wave.verdict == RED:
                return wave
        return None

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "rollout_id": self.rollout_id,
            "cve_id": self.cve_id,
            "kernel_version": self.kernel_version,
            "plan": self.plan.to_json_dict(),
            "outcome": self.outcome,
            "gate_verdict": self.gate_verdict,
            "gate_detail": self.gate_detail,
            "waves": [w.to_json_dict() for w in self.waves],
            "updated_members": sorted(self.updated_members),
            "rolled_back_members": sorted(self.rolled_back_members),
            "lost_members": sorted(self.lost_members),
            "survivors_healthy": self.survivors_healthy,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "RolloutReport":
        report = cls(
            rollout_id=data["rollout_id"],
            cve_id=data["cve_id"],
            kernel_version=data.get("kernel_version", ""),
            plan=RolloutPlan.from_json_dict(data["plan"]),
            outcome=data.get("outcome", OUTCOME_COMPLETE),
            gate_verdict=data.get("gate_verdict", ""),
            gate_detail=data.get("gate_detail", ""),
            updated_members=list(data.get("updated_members", [])),
            rolled_back_members=list(data.get("rolled_back_members", [])),
            lost_members=list(data.get("lost_members", [])),
            survivors_healthy=bool(data.get("survivors_healthy", True)))
        for wave_data in data.get("waves", []):
            wave = WaveReport(index=int(wave_data["index"]),
                              members=list(wave_data.get("members", [])),
                              verdict=wave_data.get("verdict", GREEN),
                              rolled_back=list(
                                  wave_data.get("rolled_back", [])),
                              bystanders=[
                                  {"member": int(b["member"]),
                                   "reason": str(b.get("reason", ""))}
                                  for b in wave_data.get("bystanders", [])])
            for member_data in wave_data.get("member_reports", []):
                wave.member_reports.append(MemberReport(
                    member=int(member_data["member"]),
                    outcome=member_data["outcome"],
                    detail=member_data.get("detail", ""),
                    applied=bool(member_data.get("applied", False)),
                    rolled_back=bool(
                        member_data.get("rolled_back", False)),
                    health=dict(member_data.get("health", {})),
                    stack_check_attempts=int(
                        member_data.get("stack_check_attempts", 0))))
            report.waves.append(wave)
        return report

    def render(self) -> str:
        lines = ["%s  %s on %s: %s"
                 % (self.rollout_id, self.cve_id, self.kernel_version,
                    self.outcome)]
        if self.gate_verdict:
            lines.append("  gate: analyzer verdict %r%s"
                         % (self.gate_verdict,
                            " — " + self.gate_detail
                            if self.gate_detail else ""))
        for wave in self.waves:
            lines.append("  wave %d [%s]: members %s"
                         % (wave.index, wave.verdict,
                            ", ".join(str(m)
                                      for m in sorted(wave.members))))
            for member in sorted(wave.member_reports,
                                 key=lambda r: r.member):
                suffix = ""
                if member.rolled_back:
                    suffix = "  (rolled back)"
                elif member.detail:
                    suffix = "  (%s)" % member.detail
                lines.append("    member %-3d %s%s"
                             % (member.member, member.outcome, suffix))
            for bystander in wave.bystanders:
                lines.append("    member %-3d bystander (%s)"
                             % (bystander["member"], bystander["reason"]))
        lines.append("  updated: %s"
                     % (", ".join(str(m) for m
                                  in sorted(self.updated_members))
                        or "none"))
        if self.rolled_back_members:
            lines.append("  rolled back: %s"
                         % ", ".join(str(m) for m
                                     in sorted(self.rolled_back_members)))
        if self.lost_members:
            lines.append("  lost: %s"
                         % ", ".join(str(m) for m
                                     in sorted(self.lost_members)))
        lines.append("  survivors healthy: %s"
                     % ("yes" if self.survivors_healthy else "NO"))
        return "\n".join(lines)


# -- persistence (``repro fleet status`` / ``rollback``) -------------------

ROLLOUT_FILE_ENV = "REPRO_ROLLOUT_FILE"


def default_rollout_path() -> str:
    return os.environ.get(ROLLOUT_FILE_ENV) or os.path.join(
        cache_root(), "last-rollout.json")


def save_report(report: RolloutReport,
                path: Optional[str] = None) -> str:
    path = path or default_rollout_path()
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(report.to_json() + "\n")
    os.replace(tmp, path)
    return path


def load_report(path: Optional[str] = None) -> RolloutReport:
    """Read the last report back.

    Any way the persisted report can be unusable — missing, torn JSON,
    a document that is not a rollout report — raises
    :class:`RolloutError` saying "no rollout recorded", so `repro
    fleet status` degrades to exit code 2 instead of a traceback.
    """
    path = path or default_rollout_path()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise RolloutError("no rollout recorded at %s (run `repro "
                           "fleet rollout` first)" % path)
    except (OSError, ValueError) as exc:
        raise RolloutError("no rollout recorded at %s (file is "
                           "unreadable or corrupt: %s)" % (path, exc))
    try:
        return RolloutReport.from_json_dict(data)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise RolloutError("no rollout recorded at %s (file does not "
                           "hold a rollout report: %s)" % (path, exc))
