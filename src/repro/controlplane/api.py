"""The coordinator daemon: a REST/JSON API over the control plane.

Pure stdlib (:mod:`http.server`); a :class:`ThreadingHTTPServer` so
rollout polling is served while a publish's waves are still landing.
Every response is a JSON object; errors are ``{"error": ...}`` with
the matching status code.

==========  =================================  =========================
method      path                               action
==========  =================================  =========================
GET         /healthz                           daemon liveness
GET         /members                           list the fleet registry
POST        /members                           register (or refresh) one
GET         /members/<id>                      one member's record
POST        /members/<id>/pin                  pin (skip rollouts)
POST        /members/<id>/unpin                release a pin
POST        /members/<id>/quarantine           quarantine
POST        /members/<id>/unquarantine         release a quarantine
GET         /channels                          list release channels
POST        /channels                          create a channel
GET         /channels/<name>                   series + subscribers
POST        /channels/<name>/publish           publish -> canary rollout
GET         /rollouts                          rollout summaries
GET         /rollouts/<id>                     live progress / report
==========  =================================  =========================

``POST .../publish`` answers ``202`` with the new rollout's id right
away; the rollout runs on a daemon thread and ``GET /rollouts/<id>``
streams its wave-by-wave progress (each closed wave is an fsynced
journal append, so progress survives a daemon crash too).

Request bodies are type-checked: ``force`` must be a JSON boolean,
``canary`` and ``growth`` JSON integers >= 1, and every other field a
JSON string; anything else answers 400 naming the field.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.controlplane.model import (
    ControlPlaneError,
    UnknownChannelError,
    UnknownMemberError,
    UnknownRolloutError,
)
from repro.controlplane.service import ControlPlaneService
from repro.controlplane.store import ControlPlaneStore

#: the daemon's default port
DEFAULT_PORT = 7787

_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number",
               str: "a string", list: "an array", dict: "an object",
               type(None): "null"}


def _field(body: Dict[str, Any], name: str, default: Any) -> Any:
    """``body[name]`` (or ``default``), refused unless it has the
    default's JSON type; integers must also be >= 1."""
    value = body.get(name, default)
    wanted = type(default)
    if type(value) is not wanted:
        raise ControlPlaneError("field %r must be %s, not %s"
                                % (name, _JSON_TYPES[wanted],
                                   _JSON_TYPES[type(value)]))
    if wanted is int and value < 1:
        raise ControlPlaneError("field %r must be an integer >= 1, "
                                "not %d" % (name, value))
    return value


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-controlplane"
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):
            BaseHTTPRequestHandler.log_message(self, format, *args)

    @property
    def service(self) -> ControlPlaneService:
        return self.server.service  # type: ignore[attr-defined]

    def _reply(self, status: int, payload: Dict[str, Any]) -> None:
        body = (json.dumps(payload, indent=2, sort_keys=True) + "\n"
                ).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise ControlPlaneError("request body is not valid JSON")
        if not isinstance(data, dict):
            raise ControlPlaneError("request body must be a JSON object")
        return data

    def _dispatch(self, handler: Callable[[List[str]], None]) -> None:
        segments = [s for s in self.path.split("?")[0].split("/") if s]
        try:
            handler(segments)
        except (UnknownMemberError, UnknownChannelError,
                UnknownRolloutError) as exc:
            self._reply(404, {"error": str(exc)})
        except ControlPlaneError as exc:
            self._reply(400, {"error": str(exc)})
        except Exception as exc:  # machinery failure, not bad input
            self._reply(500, {"error": "%s: %s"
                              % (type(exc).__name__, exc)})

    # -- GET ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server's contract)
        self._dispatch(self._get)

    def _get(self, segments: List[str]) -> None:
        service = self.service
        if segments == ["healthz"]:
            self._reply(200, {"ok": True,
                              "data_dir": service.store.root})
        elif segments == ["members"]:
            self._reply(200, {"members": [m.to_json_dict()
                                          for m in
                                          service.store.members()]})
        elif len(segments) == 2 and segments[0] == "members":
            member = service.store.get_member(segments[1])
            self._reply(200, member.to_json_dict())
        elif segments == ["channels"]:
            self._reply(200, {"channels": [
                service.channel_status(name)
                for name in service.store.channels.names()]})
        elif len(segments) == 2 and segments[0] == "channels":
            self._reply(200, service.channel_status(segments[1]))
        elif segments == ["rollouts"]:
            self._reply(200, {"rollouts": [r.summary()
                                           for r in
                                           service.rollouts()]})
        elif len(segments) == 2 and segments[0] == "rollouts":
            record = service.rollout(segments[1])
            self._reply(200, record.to_json_dict())
        else:
            self._reply(404, {"error": "no route GET /%s"
                              % "/".join(segments)})

    # -- POST --------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 (http.server's contract)
        self._dispatch(self._post)

    def _post(self, segments: List[str]) -> None:
        service = self.service
        if segments == ["members"]:
            body = self._body()
            member = service.register_member(
                member_id=_field(body, "member_id", ""),
                kernel_version=_field(body, "kernel_version", ""),
                channel=_field(body, "channel", "stable"),
                worker=_field(body, "worker", ""))
            self._reply(201, member.to_json_dict())
        elif (len(segments) == 3 and segments[0] == "members"
              and segments[2] in ("pin", "unpin", "quarantine",
                                  "unquarantine")):
            member = getattr(service, segments[2])(segments[1])
            self._reply(200, member.to_json_dict())
        elif segments == ["channels"]:
            body = self._body()
            channel = service.create_channel(_field(body, "name", ""))
            self._reply(201, channel)
        elif (len(segments) == 3 and segments[0] == "channels"
              and segments[2] == "publish"):
            body = self._body()
            cve_id = _field(body, "cve_id", "")
            if not cve_id:
                raise ControlPlaneError("publish needs a cve_id")
            record = service.publish(
                segments[1], cve_id,
                description=_field(body, "description", ""),
                canary=_field(body, "canary", 1),
                growth=_field(body, "growth", 2),
                force=_field(body, "force", False))
            self._reply(202, record.to_json_dict())
        else:
            self._reply(404, {"error": "no route POST /%s"
                              % "/".join(segments)})


class ControlPlaneServer(ThreadingHTTPServer):
    """The daemon: HTTP front-end bound to one durable store."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int],
                 data_dir: Optional[str] = None,
                 service: Optional[ControlPlaneService] = None,
                 verbose: bool = False):
        self.service = service if service is not None else \
            ControlPlaneService(ControlPlaneStore(data_dir))
        self.verbose = verbose
        ThreadingHTTPServer.__init__(self, address, _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return "http://%s:%d" % (host, port)


def serve_control_plane(
        host: str = "127.0.0.1", port: int = DEFAULT_PORT,
        data_dir: Optional[str] = None,
        ready: Optional[Callable[[str, int], None]] = None,
        verbose: bool = False) -> None:
    """``repro serve``: run the daemon until interrupted.

    ``port=0`` binds an ephemeral port; ``ready`` receives the bound
    ``(host, port)`` before the serve loop starts, which is how the CI
    smoke job learns the address.
    """
    server = ControlPlaneServer((host, port), data_dir=data_dir,
                                verbose=verbose)
    try:
        if ready is not None:
            bound_host, bound_port = server.server_address[:2]
            ready(bound_host, bound_port)
        server.serve_forever()
    finally:
        server.server_close()
