"""Update-channel control plane: the vendor side of §8, as a service.

The paper's future work sketches vendor-distributed hot updates; the
in-process model (:mod:`repro.core.distribution`) runs one subscriber
at a time and dies with the process.  This package turns it into a
long-running coordinator:

* :mod:`~repro.controlplane.store` — durable state (fleet registry,
  release channels, rollout records) in one fsynced append-only
  journal, replayed into in-memory indexes when a restarted daemon
  opens it;
* :mod:`~repro.controlplane.model` — :class:`Member`,
  :class:`RolloutRecord`, and the typed error family;
* :mod:`~repro.controlplane.service` — publish-to-channel drives the
  existing canary-wave rollout machinery over the *registered*
  members, streaming wave progress into the store, and folds the
  outcome back into each member's applied stack and health history;
* :mod:`~repro.controlplane.api` — the REST/JSON daemon
  (``repro serve``), stdlib ``http.server`` only;
* :mod:`~repro.controlplane.client` — the thin HTTP client the
  ``repro channel`` / ``repro member`` subcommands speak.
"""

from repro.controlplane.api import (
    DEFAULT_PORT,
    ControlPlaneServer,
    serve_control_plane,
)
from repro.controlplane.client import (
    ControlPlaneClient,
    ControlPlaneClientError,
    default_url,
)
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
    UnknownChannelError,
    UnknownMemberError,
    UnknownRolloutError,
)
from repro.controlplane.service import ControlPlaneService
from repro.controlplane.store import (
    ChannelStore,
    ControlPlaneStore,
    default_data_dir,
)

__all__ = [
    "DEFAULT_PORT",
    "ROLLOUT_COMPLETE",
    "ROLLOUT_FAILED",
    "ROLLOUT_GATED",
    "ROLLOUT_HALTED",
    "ROLLOUT_INTERRUPTED",
    "ROLLOUT_RUNNING",
    "ChannelStore",
    "ControlPlaneClient",
    "ControlPlaneClientError",
    "ControlPlaneError",
    "ControlPlaneServer",
    "ControlPlaneService",
    "ControlPlaneStore",
    "Member",
    "RolloutRecord",
    "UnknownChannelError",
    "UnknownMemberError",
    "UnknownRolloutError",
    "default_data_dir",
    "default_url",
    "serve_control_plane",
]
