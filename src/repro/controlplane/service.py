"""Control-plane business logic: registry, channels, rollouts.

:class:`ControlPlaneService` sits between the REST layer
(:mod:`repro.controlplane.api`) and the durable store.  Its core move
is ``publish``: append an entry to a channel (the store stamps the
§5.4 sequence chain), select the eligible subscribed members —
quarantined, pinned, version-mismatched, and sequence-gapped members
are *skipped with a recorded reason*, never half-served — and drive
the existing canary-wave machinery
(:func:`repro.fleet.orchestrator.rollout_corpus_cve`) over a fleet
booted for exactly those members.  Each wave is streamed into the
rollout record as it closes, so ``GET /rollouts/<id>`` polls live
progress; the final :class:`~repro.fleet.model.RolloutReport` is
absorbed back into the registry (applied stacks advance, health
history grows, lost members go into quarantine for an operator to
inspect).

Members that registered with a ``worker`` address live on a remote
``repro worker``: when every eligible member of a publish shares one
worker, the whole rollout ships there as a ``fleet-rollout`` item
(:func:`repro.fleet.remote.run_remote_rollout`) carrying the pack and
analysis the publish gate proved, and the worker streams wave frames
back into the same record.

A publish is a short sequence of journal records: the channel entry,
the rollout record, one record per closed wave, then one batch holding
the final record together with the members' absorption.  Restart
recovery follows from that: the service holds no state outside the
store, and :meth:`recover` (called at boot) closes every publish the
dead daemon left unfinished — its rollout record missing or still
``running`` — by marking the rollout ``interrupted`` (its streamed
waves stay readable) and withdrawing its entry, which no member can
hold.  The next publish then stacks on the newest entry members really
hold, so a crash at any write never wedges a channel.  A rollout that
finishes without updating any member (``failed``, ``gated``, or
``halted`` with every targeted member rolled back) withdraws its entry
in its final batch the same way.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.controlplane.model import (
    ROLLOUT_COMPLETE,
    ROLLOUT_FAILED,
    ROLLOUT_GATED,
    ROLLOUT_HALTED,
    ROLLOUT_INTERRUPTED,
    ROLLOUT_RUNNING,
    ControlPlaneError,
    Member,
    RolloutRecord,
    check_name,
    rollout_id_for,
)
from repro.controlplane.store import ControlPlaneStore


class ControlPlaneService:
    """Everything the daemon can be asked to do, HTTP-free."""

    def __init__(self, store: Optional[ControlPlaneStore] = None):
        self.store = store if store is not None else ControlPlaneStore()
        #: held across each read-modify-write of member records
        self._registry_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self.recover()

    # -- restart recovery --------------------------------------------------

    def recover(self) -> List[str]:
        """Close every publish the previous daemon left unfinished.

        A rollout record still ``running``, or a live channel entry
        with no rollout record at all, belongs to a publish whose final
        batch never landed, so no member holds its entry.  Each is
        closed with one batch that marks the rollout ``interrupted``
        and withdraws the entry.  Returns the interrupted rollout ids.
        """
        records = self.store.rollouts()
        unfinished = [r for r in records if r.status == ROLLOUT_RUNNING]
        recorded = {(r.channel, r.sequence) for r in records}
        live = set()
        for name in self.store.channels.names():
            for entry in self.store.channels.entries(name):
                if entry.get("withdrawn"):
                    continue
                sequence = entry["sequence"]
                live.add((name, sequence))
                if (name, sequence) not in recorded:
                    unfinished.append(RolloutRecord(
                        rollout_id=rollout_id_for(name, sequence),
                        channel=name, cve_id=entry.get("cve_id", ""),
                        sequence=sequence))
        for record in unfinished:
            record.status = ROLLOUT_INTERRUPTED
            record.detail = ("daemon restarted mid-rollout; %d wave(s) "
                             "had completed" % len(record.waves))
            if (record.channel, record.sequence) in live:
                record.detail += "; entry #%d withdrawn" % record.sequence
            self.store.withdraw(record)
        return [record.rollout_id for record in unfinished]

    # -- registry ----------------------------------------------------------

    def register_member(self, member_id: str, kernel_version: str,
                        channel: str = "stable",
                        worker: str = "") -> Member:
        check_name("member id", member_id)
        if not kernel_version:
            raise ControlPlaneError("kernel_version must be non-empty")
        self.store.channels.header(channel)  # raises UnknownChannelError
        with self._registry_lock:
            try:
                member = self.store.get_member(member_id)
            except ControlPlaneError:
                member = Member(member_id=member_id,
                                kernel_version=kernel_version,
                                channel=channel, worker=worker)
            else:
                # re-registration refreshes identity facts, keeps history
                member.kernel_version = kernel_version
                member.channel = channel
                member.worker = worker
            self.store.save_member(member)
        return member

    def _set_flag(self, member_id: str, flag: str,
                  value: bool) -> Member:
        with self._registry_lock:
            member = self.store.get_member(member_id)
            setattr(member, flag, value)
            self.store.save_member(member)
        return member

    def pin(self, member_id: str) -> Member:
        return self._set_flag(member_id, "pinned", True)

    def unpin(self, member_id: str) -> Member:
        return self._set_flag(member_id, "pinned", False)

    def quarantine(self, member_id: str) -> Member:
        return self._set_flag(member_id, "quarantined", True)

    def unquarantine(self, member_id: str) -> Member:
        return self._set_flag(member_id, "quarantined", False)

    # -- channels ----------------------------------------------------------

    def create_channel(self, name: str) -> Dict[str, Any]:
        check_name("channel name", name)
        return self.store.channels.ensure_channel(name)

    def channel_status(self, name: str) -> Dict[str, Any]:
        """One channel with its series, subscribers, and rollouts."""
        channel = self.store.channels.get(name)
        latest = self.store.channels.latest_sequence(name)
        subscribers = [
            {"member_id": m.member_id,
             "applied_sequence": m.applied_sequence,
             "pinned": m.pinned, "quarantined": m.quarantined,
             "current": m.applied_sequence >= latest}
            for m in self.store.members(name)]
        rollouts = [r.summary() for r in self.store.rollouts(name)]
        # entries minus bulky payloads (update packs stay in the store)
        entries = [{k: v for k, v in entry.items()
                    if k not in ("pack_b64", "resulting_tree")}
                   for entry in channel["entries"]]
        return {"name": name,
                "kernel_version": channel.get("kernel_version", ""),
                "entries": entries,
                "subscribers": subscribers,
                "rollouts": rollouts}

    # -- publish -> rollout ------------------------------------------------

    def publish(self, channel_name: str, cve_id: str,
                description: str = "", canary: int = 1,
                growth: int = 2,
                synchronous: bool = False,
                force: bool = False) -> RolloutRecord:
        """Publish a corpus CVE's update to a channel and roll it out.

        Publishing is gated on the static analyzer: the update's
        :class:`~repro.analysis.AnalysisReport` must be *proven*
        (evidence-backed) and must not carry a ``reject`` verdict,
        otherwise the publish is refused — an HTTP 400 / CLI exit 2 —
        unless ``force``, in which case the override itself is
        recorded on the rollout.  The evidence bundle rides on the
        record either way, so an operator auditing a rollout sees the
        exact proof (or the exact override) it shipped under.

        Returns the rollout record immediately (status ``running``);
        the rollout itself runs on a daemon thread unless
        ``synchronous`` — callers poll ``rollout()`` for progress.
        """
        from repro.evaluation.corpus import corpus_by_id

        channel = self.store.channels.header(channel_name)
        try:
            spec = corpus_by_id(cve_id)
        except KeyError:
            raise ControlPlaneError("unknown corpus CVE %r" % cve_id)
        pinned_version = channel.get("kernel_version", "")
        if pinned_version and pinned_version != spec.kernel_version:
            raise ControlPlaneError(
                "channel %r serves kernel %s but %s targets %s"
                % (channel_name, pinned_version, cve_id,
                   spec.kernel_version))
        bundle, forced = self._publish_gate(spec, force)
        # an unpinned channel adopts the entry's kernel version
        entry = self.store.channels.append_entry(channel_name, {
            "cve_id": cve_id,
            "description": description or spec.description,
            "kernel_version": spec.kernel_version,
        })
        eligible, skipped = self._eligible_members(
            channel_name, spec.kernel_version, entry)
        record = RolloutRecord(
            rollout_id=rollout_id_for(channel_name, entry["sequence"]),
            channel=channel_name, cve_id=cve_id,
            sequence=entry["sequence"],
            member_ids=[m.member_id for m in eligible],
            skipped=skipped,
            worker=self._common_worker(eligible),
            analysis=bundle, forced=forced)
        if not eligible:
            record.status = ROLLOUT_COMPLETE
            record.detail = ("entry #%d published; no eligible members "
                             "to roll out to" % entry["sequence"])
            self.store.save_rollout(record)
            return record
        self.store.save_rollout(record)
        if synchronous:
            self._run_rollout(record, entry, canary, growth)
        else:
            thread = threading.Thread(
                target=self._run_rollout,
                args=(record, entry, canary, growth),
                name="rollout-%s" % record.rollout_id, daemon=True)
            self._threads.append(thread)
            thread.start()
        return record

    def _publish_gate(self, spec: Any, force: bool,
                      ) -> Tuple[Dict[str, Any], bool]:
        """Run the static analyzer over the CVE's update and decide.

        Returns the evidence bundle to record on the rollout plus the
        ``forced`` flag.  Raises :class:`ControlPlaneError` (HTTP 400,
        CLI exit 2) when the verdict is ``reject`` or unproven and
        ``force`` is not set.
        """
        from repro.analysis.model import VERDICT_REJECT
        from repro.errors import ReproError
        from repro.evaluation.analyze import analyze_corpus_cve

        try:
            analysis = analyze_corpus_cve(spec, augmented=True)
        except ReproError as exc:
            if not force:
                raise ControlPlaneError(
                    "publish gate: static analysis of %s failed "
                    "(%s: %s); refusing to publish without force"
                    % (spec.cve_id, type(exc).__name__, exc))
            return ({"error": "%s: %s" % (type(exc).__name__, exc),
                     "forced": True}, True)
        bundle: Dict[str, Any] = {
            "verdict": analysis.verdict,
            "proven": analysis.is_proven(),
            "analyzer_version": analysis.analyzer_version,
            "exit_code": analysis.exit_code(),
            "findings": len(analysis.findings),
            "evidence": [e.to_json_dict()
                         for e in analysis.sorted_evidence()],
            "forced": False,
        }
        refusal = ""
        if analysis.verdict == VERDICT_REJECT:
            refusal = ("the analyzer rejects %s: %s"
                       % (spec.cve_id,
                          "; ".join(f.detail for f in
                                    analysis.findings_for(
                                        VERDICT_REJECT)[:3])))
        elif not bundle["proven"]:
            refusal = ("verdict %s for %s is not backed by "
                       "machine-checkable evidence"
                       % (analysis.verdict, spec.cve_id))
        if refusal and not force:
            raise ControlPlaneError(
                "publish gate: %s; pass force=true (--force) to "
                "override" % refusal)
        if refusal:
            bundle["forced"] = True
            bundle["overridden_refusal"] = refusal
            return bundle, True
        return bundle, False

    def _eligible_members(
            self, channel_name: str, kernel_version: str,
            entry: Dict[str, Any],
            ) -> Tuple[List[Member], List[Dict[str, str]]]:
        eligible: List[Member] = []
        skipped: List[Dict[str, str]] = []

        def skip(member: Member, reason: str) -> None:
            skipped.append({"member_id": member.member_id,
                            "reason": reason})

        for member in self.store.members(channel_name):
            if member.quarantined:
                skip(member, "quarantined")
            elif member.pinned:
                skip(member, "pinned")
            elif member.kernel_version != kernel_version:
                skip(member, "kernel-version mismatch: runs %s, entry "
                     "targets %s" % (member.kernel_version,
                                     kernel_version))
            elif member.applied_sequence != entry["base_sequence"]:
                skip(member, "sequence gap: member at #%d, entry "
                     "stacks on #%d" % (member.applied_sequence,
                                        entry["base_sequence"]))
            else:
                eligible.append(member)
        return eligible, skipped

    @staticmethod
    def _common_worker(members: List[Member]) -> str:
        """The one worker address all members share, else ""."""
        workers = {m.worker for m in members}
        if len(workers) == 1:
            return workers.pop() or ""
        return ""

    def _run_rollout(self, record: RolloutRecord,
                     entry: Dict[str, Any], canary: int,
                     growth: int) -> None:
        from repro.fleet.model import (
            OUTCOME_COMPLETE,
            OUTCOME_GATED,
            OUTCOME_HALTED,
            RolloutPlan,
        )
        from repro.fleet.orchestrator import rollout_corpus_cve
        from repro.fleet.remote import run_remote_rollout

        member_ids = record.member_ids
        plan = RolloutPlan(
            cve_id=record.cve_id, fleet_size=len(member_ids),
            canary=max(1, min(canary, len(member_ids))),
            growth=max(1, growth))

        def stream_wave(wave_dict: Dict[str, Any]) -> None:
            wave_dict = dict(wave_dict)
            wave_dict["member_ids"] = [
                member_ids[i] for i in wave_dict.get("members", [])
                if 0 <= i < len(member_ids)]
            record.waves.append(wave_dict)
            self.store.save_rollout(record)

        try:
            if record.worker:
                report = run_remote_rollout(record.worker, plan,
                                            on_wave=stream_wave)
            else:
                report = rollout_corpus_cve(
                    plan,
                    on_wave=lambda w: stream_wave(w.to_json_dict()))
        except Exception as exc:
            # No member took the entry: withdraw it with the record,
            # so the next publish stacks on the newest entry members
            # really hold.
            record.status = ROLLOUT_FAILED
            record.detail = "%s: %s" % (type(exc).__name__, exc)
            self.store.withdraw(record)
            return
        record.report = report.to_json_dict()
        record.status = {
            OUTCOME_COMPLETE: ROLLOUT_COMPLETE,
            OUTCOME_HALTED: ROLLOUT_HALTED,
            OUTCOME_GATED: ROLLOUT_GATED,
        }.get(report.outcome, report.outcome)
        record.detail = report.gate_detail
        self._absorb_report(record, entry, report)

    def _absorb_report(self, record: RolloutRecord,
                       entry: Dict[str, Any], report: Any) -> None:
        """Fold the rollout's outcome back into the registry, in the
        same batch as the final rollout record.  A rollout that
        updated no member (gated, or halted with every targeted member
        rolled back) withdraws its entry in that batch too."""
        member_ids = record.member_ids
        updated = {member_ids[i] for i in report.updated_members
                   if 0 <= i < len(member_ids)}
        lost = {member_ids[i] for i in report.lost_members
                if 0 <= i < len(member_ids)}
        outcomes: Dict[str, Dict[str, Any]] = {}
        for wave in report.waves:
            for member_report in wave.member_reports:
                index = member_report.member
                if 0 <= index < len(member_ids):
                    outcomes[member_ids[index]] = {
                        "outcome": member_report.outcome,
                        "detail": member_report.detail,
                        "rolled_back": member_report.rolled_back,
                    }
        changed: List[Member] = []
        with self._registry_lock:
            for member_id in member_ids:
                member = self.store.get_member(member_id)
                member.rollouts_seen += 1
                outcome = outcomes.get(member_id, {})
                member.record_health({
                    "rollout_id": record.rollout_id,
                    "outcome": outcome.get("outcome", "untouched"),
                    "healthy": member_id in updated,
                    "detail": outcome.get("detail", ""),
                })
                if member_id in updated:
                    member.applied_sequence = entry["sequence"]
                    member.applied_updates.append({
                        "sequence": entry["sequence"],
                        "cve_id": record.cve_id,
                        "channel": record.channel,
                        "rollout_id": record.rollout_id,
                    })
                if member_id in lost:
                    # a lost member needs operator attention before it can
                    # take traffic (or updates) again
                    member.quarantined = True
                changed.append(member)
            self.store.update_members(changed, rollout=record,
                                      withdraw=not updated)

    # -- queries -----------------------------------------------------------

    def rollout(self, rollout_id: str) -> RolloutRecord:
        return self.store.load_rollout(rollout_id)

    def rollouts(self) -> List[RolloutRecord]:
        return self.store.rollouts()

    def wait_rollout(self, rollout_id: str,
                     timeout: float = 300.0) -> RolloutRecord:
        """Block until the rollout leaves ``running`` (tests, bench)."""
        import time

        deadline = time.monotonic() + timeout
        while True:
            record = self.rollout(rollout_id)
            if record.finished:
                return record
            if time.monotonic() >= deadline:
                raise ControlPlaneError(
                    "rollout %s still running after %.0fs"
                    % (rollout_id, timeout))
            time.sleep(0.05)
