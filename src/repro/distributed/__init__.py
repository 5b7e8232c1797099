"""Distributed evaluation fabric: the §6 corpus run beyond one host.

The local evaluation engine (:mod:`repro.evaluation.engine`) already
fans kernel-version groups over a ``ProcessPoolExecutor``; this package
extends the same design over TCP so throughput scales with *workers*,
not with one machine's cores:

* :mod:`~repro.distributed.wire` — protocol v4's frame codec: a
  version byte plus the kpack of each message, over a closed class
  registry (``pickle`` is gone from the data plane);
* :mod:`~repro.distributed.crypto` — the mutual handshake (HMAC
  challenge/response over a shared secret), per-session key
  derivation, and the frame cipher that encrypts every
  post-handshake record;
* :mod:`~repro.distributed.protocol` — the record format both
  transports call (encode, seal, bound, open), the wire vocabulary,
  and the blocking :class:`MessageStream` whose one caller is
  :mod:`repro.fleet.remote`;
* :mod:`~repro.distributed.aio` — the asyncio transport: one event
  loop multiplexing every peer, bounded per-peer send queues for
  backpressure, batch-sealed records;
* :mod:`~repro.distributed.worker` — the ``repro worker`` serve loop:
  evaluates items in executor threads (heartbeats are answered while
  an item runs), streams each ``CveResult`` as it finishes, runs whole
  fleet rollouts shipped as one item, and can be spawned on localhost
  for tests;
* :mod:`~repro.distributed.coordinator` — the scheduler: per-version
  lead items that warm the run-build cache, then per-CVE work-stealing
  for the tails, heartbeats, bounded retry, reconnects with
  exponential backoff and jitter, and local rescue of anything the
  fleet cannot finish.

Entry points: ``evaluate_corpus(workers=[...])`` /
``repro evaluate --workers`` on the coordinator side and
``repro worker --listen`` on the worker side.  Both sides require a
shared secret (``--secret`` / ``KSPLICE_WORKER_SECRET``): workers
authenticate peers with an HMAC challenge/response before
deserializing anything, and every data frame is encrypted.
``--item-timeout`` bounds each item's wall clock so one wedged CVE
cannot hang a session, and ``--max-frame-mb`` bounds frame sizes (an
oversize frame drops the peer).
"""

from repro.distributed.aio import (
    AsyncChannel,
    accept_channel,
    connect_channel,
)

from repro.distributed.coordinator import Coordinator, WorkItem
from repro.distributed.protocol import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    SECRET_ENV,
    AuthError,
    MessageStream,
    ProtocolError,
    accept_stream,
    connect_stream,
    default_secret,
    parse_address,
)
from repro.distributed.worker import (
    LocalWorker,
    serve,
    spawn_local_workers,
)

__all__ = [
    "AsyncChannel",
    "AuthError",
    "Coordinator",
    "LocalWorker",
    "MAX_FRAME",
    "MessageStream",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SECRET_ENV",
    "WorkItem",
    "accept_channel",
    "accept_stream",
    "connect_channel",
    "connect_stream",
    "default_secret",
    "parse_address",
    "serve",
    "spawn_local_workers",
]
