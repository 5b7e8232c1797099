"""Data model for the update-channel control plane.

The control plane's durable state is three collections of plain JSON
documents, kept in one journal (see :mod:`repro.controlplane.store`):

* **members** — one :class:`Member` per registered machine: identity,
  kernel version, the channel it subscribes to, its applied update
  stack, a bounded health history, and the pin / quarantine flags the
  operator can flip;
* **channels** — named release channels (``stable`` / ``canary`` /
  ``nightly`` exist out of the box) holding an ordered series of
  published entries, each stamped with ``sequence`` and
  ``base_sequence`` so the §5.4 stacking discipline is explicit in the
  store, not implicit in publish order (an entry whose publish never
  finished is marked ``withdrawn`` and nothing stacks on it);
* **rollouts** — one :class:`RolloutRecord` per publish: which members
  were targeted (and which were skipped, with reasons), every canary
  wave streamed in as it closes, and the final
  :class:`~repro.fleet.model.RolloutReport` once the fleet converges.

Everything serializes to sorted deterministic JSON the way fleet and
analyzer reports do; nothing here holds wall-clock fields.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ReproError

#: channels every fresh store starts with
DEFAULT_CHANNELS = ("stable", "canary", "nightly")

#: rollout record statuses
ROLLOUT_RUNNING = "running"
ROLLOUT_COMPLETE = "complete"
ROLLOUT_HALTED = "halted"
ROLLOUT_GATED = "gated"
ROLLOUT_FAILED = "failed"
#: a rollout found in ``running`` state when the daemon rebooted
ROLLOUT_INTERRUPTED = "interrupted"

#: how many health-history entries a member record keeps
HEALTH_HISTORY_LIMIT = 20

#: channel names and member ids: each must be one URL path segment
NAME_PATTERN = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9._-]*")


class ControlPlaneError(ReproError):
    """The control plane refused an operation (bad input, bad state)."""


class UnknownMemberError(ControlPlaneError):
    """No registered member with that id."""


class UnknownChannelError(ControlPlaneError):
    """No release channel with that name."""


class UnknownRolloutError(ControlPlaneError):
    """No recorded rollout with that id."""


class StoreCorruptError(ControlPlaneError):
    """The store's journal holds a record that fails its checks."""


def check_name(what: str, name: str) -> None:
    """Refuse a channel name or member id that is not
    ``[A-Za-z0-9._-]+`` or that starts with a dot."""
    if not NAME_PATTERN.fullmatch(name):
        raise ControlPlaneError(
            "%s %r must match [A-Za-z0-9._-]+ and not start with a dot"
            % (what, name))


def rollout_id_for(channel: str, sequence: int) -> str:
    """The id of the rollout that delivers a channel's entry."""
    return "%s-%04d" % (channel, sequence)


@dataclass
class Member:
    """One registered machine in the fleet registry."""

    member_id: str
    kernel_version: str
    channel: str = "stable"
    #: ``host:port`` of a ``repro worker`` the member lives on, or ""
    worker: str = ""
    #: pinned members keep their current stack; rollouts skip them
    pinned: bool = False
    #: quarantined members are excluded from waves until released
    quarantined: bool = False
    #: the channel sequence this member has caught up to
    applied_sequence: int = 0
    #: the member's applied update stack, oldest first
    applied_updates: List[Dict[str, Any]] = field(default_factory=list)
    #: bounded trail of per-rollout health outcomes, oldest first
    health_history: List[Dict[str, Any]] = field(default_factory=list)
    rollouts_seen: int = 0

    def record_health(self, entry: Dict[str, Any]) -> None:
        self.health_history.append(entry)
        if len(self.health_history) > HEALTH_HISTORY_LIMIT:
            del self.health_history[:-HEALTH_HISTORY_LIMIT]

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "member_id": self.member_id,
            "kernel_version": self.kernel_version,
            "channel": self.channel,
            "worker": self.worker,
            "pinned": self.pinned,
            "quarantined": self.quarantined,
            "applied_sequence": self.applied_sequence,
            "applied_updates": list(self.applied_updates),
            "health_history": list(self.health_history),
            "rollouts_seen": self.rollouts_seen,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "Member":
        return cls(
            member_id=data["member_id"],
            kernel_version=data.get("kernel_version", ""),
            channel=data.get("channel", "stable"),
            worker=data.get("worker", ""),
            pinned=bool(data.get("pinned", False)),
            quarantined=bool(data.get("quarantined", False)),
            applied_sequence=int(data.get("applied_sequence", 0)),
            applied_updates=list(data.get("applied_updates", [])),
            health_history=list(data.get("health_history", [])),
            rollouts_seen=int(data.get("rollouts_seen", 0)))


@dataclass
class RolloutRecord:
    """One publish-to-channel and the fleet convergence it drove.

    ``waves`` grows while the rollout runs — the orchestrator streams
    each closed wave in, so ``GET /rollouts/<id>`` shows live canary
    progress; ``report`` is the final
    :class:`~repro.fleet.model.RolloutReport` JSON once the run ends.
    """

    rollout_id: str
    channel: str
    cve_id: str
    #: the channel sequence this rollout delivers
    sequence: int
    status: str = ROLLOUT_RUNNING
    detail: str = ""
    #: registered members targeted, in fleet-index order
    member_ids: List[str] = field(default_factory=list)
    #: members excluded before the fleet booted, with reasons
    skipped: List[Dict[str, str]] = field(default_factory=list)
    #: "host:port" when the rollout ran on a remote worker
    worker: str = ""
    waves: List[Dict[str, Any]] = field(default_factory=list)
    report: Optional[Dict[str, Any]] = None
    #: the publish gate's evidence bundle: analyzer verdict, proof
    #: status, and evidence records for the published update
    analysis: Optional[Dict[str, Any]] = None
    #: True when --force overrode a refused (reject/unproven) verdict
    forced: bool = False

    @property
    def finished(self) -> bool:
        return self.status != ROLLOUT_RUNNING

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "rollout_id": self.rollout_id,
            "channel": self.channel,
            "cve_id": self.cve_id,
            "sequence": self.sequence,
            "status": self.status,
            "detail": self.detail,
            "member_ids": list(self.member_ids),
            "skipped": list(self.skipped),
            "worker": self.worker,
            "waves": list(self.waves),
            "report": self.report,
            "analysis": self.analysis,
            "forced": self.forced,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "RolloutRecord":
        return cls(
            rollout_id=data["rollout_id"],
            channel=data.get("channel", ""),
            cve_id=data.get("cve_id", ""),
            sequence=int(data.get("sequence", 0)),
            status=data.get("status", ROLLOUT_RUNNING),
            detail=data.get("detail", ""),
            member_ids=list(data.get("member_ids", [])),
            skipped=list(data.get("skipped", [])),
            worker=data.get("worker", ""),
            waves=list(data.get("waves", [])),
            report=data.get("report"),
            analysis=data.get("analysis"),
            forced=bool(data.get("forced", False)))

    def summary(self) -> Dict[str, Any]:
        """The list-view projection (``GET /rollouts``)."""
        return {
            "rollout_id": self.rollout_id,
            "channel": self.channel,
            "cve_id": self.cve_id,
            "sequence": self.sequence,
            "status": self.status,
            "members": len(self.member_ids),
            "waves": len(self.waves),
        }
