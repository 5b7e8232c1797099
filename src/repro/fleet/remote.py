"""Running a rollout on a remote ``repro worker``.

A fleet of simulated kernels is in-process state, so it cannot be
scattered over the stateless per-CVE item protocol the evaluation
fabric uses.  Instead the *whole rollout* ships as one work item
(``kind: "fleet-rollout"``, the plan as plain JSON): the worker boots
the fleet, runs the waves, streams one ``result`` frame per finished
wave (so the coordinator side sees canary progress live), and returns
the full report dict in the ``item-done`` frame.  The connection uses
the same authenticated handshake as evaluation traffic — a worker runs
rollouts only for peers that prove its shared secret.
"""

from __future__ import annotations

import socket
from typing import Any, Callable, Dict, Optional

from repro.distributed import protocol
from repro.distributed.protocol import ProtocolError
from repro.fleet.model import (
    RolloutError,
    RolloutPlan,
    RolloutReport,
)

#: a rollout boots a fleet and runs every wave; allow it minutes
DEFAULT_TIMEOUT = 300.0


def execute_rollout_item(
        plan_data: Dict[str, Any],
        on_wave: Optional[Callable[[Dict[str, Any]], None]] = None,
        ) -> Dict[str, Any]:
    """Worker side: run the plan, reporting each wave as it closes.

    Returns the report's JSON dict (the worker ships it in
    ``item-done``).  Waves are streamed *live* — the orchestrator's
    ``on_wave`` hook fires the moment each wave's verdict lands, so a
    watching coordinator (the control plane polling a rollout record)
    sees canary progress while later waves are still running.
    """
    from repro.fleet.orchestrator import rollout_corpus_cve

    plan = RolloutPlan.from_json_dict(plan_data)
    stream = (None if on_wave is None
              else (lambda wave: on_wave(wave.to_json_dict())))
    report = rollout_corpus_cve(plan, on_wave=stream)
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
    socket opens.  Raises :class:`RolloutError` when the worker reports
    a failure and lets ``AuthError`` / :class:`ProtocolError` propagate
    for connection-level problems.
    """
    host, port = protocol.parse_address(address)
    secret = protocol.require_secret(secret or protocol.default_secret())
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
        stream.send({
            "type": protocol.ITEM, "item_id": "rollout-0",
            "kind": "fleet-rollout",
            "plan": plan.to_json_dict()})
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
                    "remote rollout failed on %s:\n%s"
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
