"""Running a rollout on a remote ``repro worker``.

A fleet of simulated kernels is in-process state, so it cannot be
scattered over the stateless per-CVE item protocol the evaluation
fabric uses.  Instead the *whole rollout* ships as one work item
(``kind: "fleet-rollout"``) that carries the update itself, as the
paper's ``ksplice-apply`` takes the package ``ksplice-create`` wrote:

* ``plan`` — the :class:`RolloutPlan` as plain JSON;
* ``pack`` — the :class:`~repro.core.update.UpdatePack`'s
  ``to_bytes()`` document, as wire bytes;
* ``analysis`` — the publish gate's
  :class:`~repro.analysis.AnalysisReport`, a registered wire class.

The client takes the pack and the analysis from the create memo, a hit
right after a publish gate analysed the update, so the fleet applies
exactly the bytes the gate proved and the worker never runs
``ksplice_create``.  The worker parses and checks the item, boots the
fleet, runs the waves, streams one ``result`` frame per finished wave
(so the coordinator side sees canary progress live), and returns the
full report dict in the ``item-done`` frame.  The connection uses the
same authenticated handshake as evaluation traffic — a worker runs
rollouts only for peers that prove its shared secret.
"""

from __future__ import annotations

import hashlib
import socket
from typing import Any, Callable, Dict, Optional

from repro.distributed import protocol
from repro.distributed.protocol import ProtocolError
from repro.errors import ReproError
from repro.fleet.model import (
    RolloutError,
    RolloutPlan,
    RolloutReport,
)

#: a rollout boots a fleet and runs every wave; allow it minutes
DEFAULT_TIMEOUT = 300.0


def rollout_item(plan: RolloutPlan) -> Dict[str, Any]:
    """The ``fleet-rollout`` item for ``plan``: the plan, plus the pack
    bytes and analysis of its CVE's created update."""
    from repro.fleet.orchestrator import _corpus_update
    from repro.pipeline.trace import Trace

    _spec, created, analysis = _corpus_update(
        plan.cve_id, Trace(label=plan.rollout_id()), "unknown CVE id %r")
    return {"type": protocol.ITEM, "item_id": "rollout-0",
            "kind": "fleet-rollout", "plan": plan.to_json_dict(),
            "pack": created.pack_bytes, "analysis": analysis}


def _item_update(item: Dict[str, Any]):
    """The plan, spec, pack, analysis and pack digest an item carries.

    Any field that is missing or malformed, and a pack built for
    another kernel than the plan's CVE runs, raises
    :class:`RolloutError` with one line naming it.
    """
    from repro.analysis.model import (
        VERDICT_SEVERITY,
        AnalysisReport,
        Finding,
    )
    from repro.core.update import UpdatePack
    from repro.evaluation.corpus import corpus_by_id

    plan = RolloutPlan.from_json_dict(item.get("plan"))
    try:
        spec = corpus_by_id(plan.cve_id)
    except KeyError:
        raise RolloutError("unknown CVE id %r" % plan.cve_id) from None
    raw = item.get("pack")
    if type(raw) is not bytes:
        raise RolloutError("item field 'pack' must be bytes, not %s"
                           % type(raw).__name__)
    try:
        pack = UpdatePack.from_bytes(raw)
    except ReproError as exc:
        raise RolloutError("item field 'pack': %s" % exc) from None
    if pack.kernel_version != spec.kernel_version:
        raise RolloutError("the pack targets kernel %s, but %s runs on %s"
                           % (pack.kernel_version, plan.cve_id,
                              spec.kernel_version))
    analysis = item.get("analysis")
    if type(analysis) is not AnalysisReport:
        raise RolloutError("item field 'analysis' must be an "
                           "AnalysisReport, not %s"
                           % type(analysis).__name__)
    if analysis.verdict not in VERDICT_SEVERITY:
        raise RolloutError("item field 'analysis' has unknown verdict %r"
                           % (analysis.verdict,))
    # the gate reads the reject findings' details
    if type(analysis.findings) is not list or not all(
            type(finding) is Finding for finding in analysis.findings):
        raise RolloutError("item field 'analysis' has findings that are "
                           "not a list of Finding")
    return plan, spec, pack, analysis, hashlib.sha256(raw).hexdigest()


def execute_rollout_item(
        item: Dict[str, Any],
        on_wave: Optional[Callable[[Dict[str, Any]], None]] = None,
        ) -> Dict[str, Any]:
    """Worker side: apply the item's pack over the plan's fleet,
    reporting each wave as it closes.

    Runs :func:`~repro.fleet.orchestrator.rollout_update` on what the
    item carries, so no pre/post build or analyzer run happens here; a
    hostile item raises :class:`RolloutError` before any machine boots.
    Returns the report's JSON dict (the worker ships it in
    ``item-done``).  Waves are streamed *live* — the orchestrator's
    ``on_wave`` hook fires the moment each wave's verdict lands, so a
    watching coordinator (the control plane polling a rollout record)
    sees canary progress while later waves are still running.
    """
    from repro.fleet.orchestrator import rollout_update

    plan, spec, pack, analysis, digest = _item_update(item)
    stream = (None if on_wave is None
              else (lambda wave: on_wave(wave.to_json_dict())))
    report = rollout_update(plan, spec, pack, analysis, digest,
                            on_wave=stream)
    return report.to_json_dict()


def run_remote_rollout(
        address: str, plan: RolloutPlan,
        secret: Optional[bytes] = None,
        timeout: float = DEFAULT_TIMEOUT,
        on_wave: Optional[Callable[[Dict[str, Any]], None]] = None,
        ) -> RolloutReport:
    """Client side: run ``plan`` on the worker at ``host:port``.

    ``secret=None`` reads ``KSPLICE_WORKER_SECRET``; with neither,
    :class:`~repro.distributed.protocol.AuthError` is raised before any
    socket opens.  The update is built here (:func:`rollout_item`), so
    an unknown CVE or a pack that must not ship raises before then
    too.  Raises :class:`RolloutError` when the worker reports a
    failure and lets ``AuthError`` / :class:`ProtocolError` propagate
    for connection-level problems.
    """
    host, port = protocol.parse_address(address)
    secret = protocol.require_secret(secret or protocol.default_secret())
    item = rollout_item(plan)
    sock = socket.create_connection((host, port), timeout=timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        stream = protocol.connect_stream(sock, secret)
        stream.send({
            "type": protocol.HELLO,
            "version": protocol.PROTOCOL_VERSION,
            "disk_cache": None})
        ready = stream.recv()
        if ready is None or ready.get("type") != protocol.READY:
            raise ProtocolError(
                "worker %s rejected the handshake: %r"
                % (address,
                   (ready or {}).get("error", "connection closed")))
        stream.send(item)
        report_data: Optional[Dict[str, Any]] = None
        while True:
            message = stream.recv()
            if message is None:
                raise ConnectionError(
                    "worker %s closed before finishing the rollout"
                    % address)
            kind = message.get("type")
            if kind == protocol.RESULT:
                if on_wave is not None and "wave" in message:
                    on_wave(message["wave"])
            elif kind == protocol.ITEM_DONE:
                report_data = message.get("report")
                break
            elif kind == protocol.ERROR:
                raise RolloutError(
                    "remote rollout failed on %s: %s"
                    % (address, message.get("error", "")))
        try:
            stream.send({"type": protocol.SHUTDOWN})
        except (ConnectionError, ProtocolError, OSError):
            pass
        if not isinstance(report_data, dict):
            raise ProtocolError("worker %s sent no rollout report"
                                % address)
        return RolloutReport.from_json_dict(report_data)
    finally:
        try:
            sock.close()
        except OSError:
            pass
