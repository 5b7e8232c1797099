"""Durable control-plane state: one fsynced, append-only journal.

Layout under the data root (``REPRO_CONTROLPLANE_DIR``, default
``cache_root()/controlplane``)::

    journal.log     one framed batch per line, oldest first

Every write goes through :meth:`Journal.append`: one batch of
whole-document puts ``[kind, key, document]`` — kinds ``channel``
(name and kernel version), ``entry`` (one channel entry, keyed
``[channel, sequence]``), ``member`` and ``rollout`` — framed as
``<length> <crc32> <json>`` on one line, written with one call and
``fsync``\\ ed before ``append`` returns.  A batch is the unit of
atomicity: after a crash it is on disk whole or not at all.

Opening a store replays the journal into in-memory indexes (channel →
entries, channel → rollout ids, member → record, rollout id → record);
a write folds its batch into them the same way, once it is on disk.  A
torn last line (the write a crash cut short) is dropped and cut off the
file; a bad record anywhere before it raises
:class:`StoreCorruptError`.  The indexes hold each document as a
:mod:`marshal` blob, and every read builds a fresh copy from it, so
nothing a caller holds shares state with the store.  No read or write
touches more than the documents it names.  Once the journal exceeds
:data:`COMPACT_RATIO` times the size of the live documents, it is
rewritten to hold one put per live document (temp file, ``fsync``,
rename, directory ``fsync``).

:class:`ChannelStore` is deliberately standalone — it backs both the
daemon's release channels *and* the in-process
:class:`~repro.core.distribution.UpdateChannel` (which stores whole
update packs per entry); with ``root=None`` it keeps the same indexes
in memory only, which is how the distribution example runs without
touching disk.  Sequence numbering lives here: ``append_entry`` stamps
each entry with ``sequence`` (one past the newest, never reused) and
``base_sequence`` (the newest entry not withdrawn), the invariant
subscribers check before applying.
"""

from __future__ import annotations

import json
import marshal
import os
import threading
import zlib
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.controlplane.model import (
    DEFAULT_CHANNELS,
    Member,
    RolloutRecord,
    StoreCorruptError,
    UnknownChannelError,
    UnknownMemberError,
    UnknownRolloutError,
)
from repro.pipeline.store import cache_root

DATA_DIR_ENV = "REPRO_CONTROLPLANE_DIR"

#: the journal's file name under a data root
JOURNAL_NAME = "journal.log"

#: compact once the journal is this many times the live documents' size
COMPACT_RATIO = 2

#: one whole-document put: (kind, key, document); a ``None`` document
#: deletes a channel entry
Put = Tuple[str, Any, Optional[Dict[str, Any]]]


def default_data_dir() -> str:
    return os.environ.get(DATA_DIR_ENV) or os.path.join(
        cache_root(), "controlplane")


def put_text(kind: str, key: Any, doc: Optional[Dict[str, Any]]) -> str:
    """One put as compact JSON."""
    return json.dumps([kind, key, doc], sort_keys=True,
                      separators=(",", ":"))


def batch_payload(texts: List[str]) -> bytes:
    return ("[%s]" % ",".join(texts)).encode("ascii")


def frame(payload: bytes) -> bytes:
    """A batch payload as one journal line: length, CRC-32, payload."""
    return b"%d %08x %s\n" % (len(payload), zlib.crc32(payload), payload)


def unframe(line: bytes) -> Optional[Any]:
    """A journal line's batch, or None when its frame does not check."""
    try:
        length, crc, payload = line.split(b" ", 2)
        if (int(length) != len(payload)
                or int(crc, 16) != zlib.crc32(payload)):
            return None
        return json.loads(payload)
    except ValueError:
        return None


def append_line(handle: Any, line: bytes) -> None:
    """Write one framed batch and fsync it: the journal's only append."""
    view = memoryview(line)
    while view:
        view = view[handle.write(view):]
    os.fsync(handle.fileno())


def fsync_dir(path: str) -> None:
    """Make a created or renamed directory entry durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def checked_put(put: Any) -> Put:
    """A decoded put with its shape checked (raises ValueError)."""
    kind, key, doc = put
    if kind == "entry":
        name, sequence = key
        key = (name, sequence)
        ok = (isinstance(name, str) and type(sequence) is int
              and (doc is None or isinstance(doc, dict)))
    else:
        ok = (kind in ("channel", "member", "rollout")
              and isinstance(key, str) and isinstance(doc, dict))
    if not ok:
        raise ValueError("malformed %r put" % (kind,))
    return kind, key, doc


class Journal:
    """The live documents, indexed, and the file that makes them durable.

    Indexes hold each document as a :mod:`marshal` blob of its decoded
    JSON, so a read is one C call that builds a fresh copy.  With
    ``path=None`` the journal is memory-only: the same indexes, no
    file.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.lock = threading.RLock()
        #: channel name -> {"name", "kernel_version"}
        self.channels: Dict[str, bytes] = {}
        #: channel name -> sequence -> entry, ascending by sequence
        self.entries: Dict[str, Dict[int, bytes]] = {}
        #: channel name -> withdrawn entry sequences
        self.withdrawn: Dict[str, Set[int]] = {}
        self.members: Dict[str, bytes] = {}
        #: member id -> the channel it subscribes to
        self.member_channels: Dict[str, str] = {}
        self.rollouts: Dict[str, bytes] = {}
        #: channel name -> its rollout ids (an ordered set)
        self.channel_rollouts: Dict[str, Dict[str, None]] = {}
        #: (kind, key) -> framed size of the document's own put
        self._sizes: Dict[Tuple[str, Any], int] = {}
        self.live_bytes = 0
        self.file_bytes = 0
        if path is not None:
            self._open(path)

    # -- file --------------------------------------------------------------

    def _open(self, path: str) -> None:
        directory = os.path.dirname(path) or "."
        os.makedirs(directory, exist_ok=True)
        try:
            os.unlink(path + ".compact")  # a compaction cut short
        except FileNotFoundError:
            pass
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            open(path, "ab").close()
            fsync_dir(directory)
            return
        self.file_bytes = self._replay(data)
        if self.file_bytes < len(data):
            # drop the torn tail, so the next append starts a clean line
            with open(path, "r+b") as handle:
                handle.truncate(self.file_bytes)
                os.fsync(handle.fileno())

    def _replay(self, data: bytes) -> int:
        """Fold every intact batch into the indexes; returns the byte
        offset just past the last one."""
        lines = data.split(b"\n")
        tail = lines.pop()  # bytes after the last newline: a torn write
        end = 0
        for number, line in enumerate(lines):
            batch = unframe(line)
            if batch is None:
                if number == len(lines) - 1 and not tail:
                    break  # a torn last record: dropped whole
                raise StoreCorruptError(
                    "journal %s: record %d (byte %d) fails its length or "
                    "checksum check" % (self.path, number + 1, end))
            try:
                puts = [checked_put(put) for put in batch]
            except (TypeError, ValueError) as exc:
                raise StoreCorruptError(
                    "journal %s: record %d (byte %d) is malformed: %s"
                    % (self.path, number + 1, end, exc))
            self._fold(puts, [put_text(*put) for put in puts])
            end += len(line) + 1
        return end

    # -- writing -----------------------------------------------------------

    def append(self, puts: List[Put]) -> None:
        """Write one atomic batch of whole-document puts.

        The batch is fsynced before the indexes change and before this
        returns.  The indexes fold the batch as decoded from its own
        line, exactly as a replay would, so they never share an object
        with the caller.
        """
        texts = [put_text(*put) for put in puts]
        payload = batch_payload(texts)
        decoded = [checked_put(put) for put in json.loads(payload)]
        with self.lock:
            if self.path is not None:
                line = frame(payload)
                with open(self.path, "ab", buffering=0) as handle:
                    try:
                        append_line(handle, line)
                    except OSError:
                        handle.truncate(self.file_bytes)
                        raise
                self.file_bytes += len(line)
            self._fold(decoded, texts)
            if (self.path is not None
                    and self.file_bytes > COMPACT_RATIO * self.live_bytes):
                self._compact()

    def _fold(self, puts: List[Put], texts: List[str]) -> None:
        """Fold one batch's puts (and their JSON texts, for sizing)
        into the indexes."""
        for (kind, key, doc), text in zip(puts, texts):
            blob = None if doc is None else marshal.dumps(doc)
            if kind == "entry":
                name, sequence = key
                entries = self.entries.setdefault(name, {})
                withdrawn = self.withdrawn.setdefault(name, set())
                if blob is None:
                    entries.pop(sequence, None)
                else:
                    in_order = (sequence in entries or not entries
                                or sequence > next(reversed(entries)))
                    entries[sequence] = blob
                    if not in_order:
                        self.entries[name] = dict(sorted(entries.items()))
                if doc is not None and doc.get("withdrawn"):
                    withdrawn.add(sequence)
                else:
                    withdrawn.discard(sequence)
            elif kind == "rollout":
                self.rollouts[key] = blob
                channel = str(doc.get("channel", ""))
                self.channel_rollouts.setdefault(channel, {})[key] = None
            elif kind == "member":
                self.members[key] = blob
                self.member_channels[key] = str(doc.get("channel", ""))
            else:
                self.channels[key] = blob
            size = 0 if doc is None else len(frame(batch_payload([text])))
            self.live_bytes += size - self._sizes.pop((kind, key), 0)
            if size:
                self._sizes[(kind, key)] = size

    def _live_puts(self) -> Iterator[Put]:
        for name, blob in self.channels.items():
            yield "channel", name, marshal.loads(blob)
        for name, entries in self.entries.items():
            for sequence, blob in entries.items():
                yield "entry", (name, sequence), marshal.loads(blob)
        for member_id, blob in self.members.items():
            yield "member", member_id, marshal.loads(blob)
        for rollout_id, blob in self.rollouts.items():
            yield "rollout", rollout_id, marshal.loads(blob)

    def _compact(self) -> None:
        """Rewrite the journal as one put per live document."""
        data = b"".join(frame(batch_payload([put_text(*put)]))
                        for put in self._live_puts())
        temp = self.path + ".compact"
        with open(temp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, self.path)
        self.file_bytes = len(data)
        fsync_dir(os.path.dirname(self.path) or ".")


class ChannelStore:
    """Named release channels, each an ordered entry series.

    A channel document::

        {"name": ..., "kernel_version": ...,
         "entries": [{"sequence": 1, "base_sequence": 0, ...}, ...]}

    Entries carry whatever payload the publisher supplies (a corpus
    ``cve_id`` for the daemon, a base64 update pack plus resulting
    source tree for :class:`UpdateChannel`); this store only owns the
    sequence chain.  An entry marked ``"withdrawn": true`` (a publish
    that never finished) keeps its sequence but is skipped by the
    chain: nothing stacks on it.
    """

    def __init__(self, root: Optional[str] = None,
                 journal: Optional[Journal] = None):
        self.root = root
        if journal is None:
            journal = Journal(os.path.join(root, JOURNAL_NAME)
                              if root else None)
        self.journal = journal

    # -- channels ----------------------------------------------------------

    def _header_blob(self, name: str) -> bytes:
        blob = self.journal.channels.get(name)
        if blob is None:
            raise UnknownChannelError("no channel %r (have: %s)"
                                      % (name, ", ".join(self.names())
                                         or "none"))
        return blob

    def header(self, name: str) -> Dict[str, Any]:
        """A channel's name and kernel version, without its entries."""
        return marshal.loads(self._header_blob(name))

    def ensure_channel(self, name: str,
                       kernel_version: str = "") -> Dict[str, Any]:
        """Create the channel if missing; return its document."""
        with self.journal.lock:
            if name not in self.journal.channels:
                self.journal.append([("channel", name, {
                    "name": name, "kernel_version": kernel_version})])
            return self.get(name)

    def get(self, name: str) -> Dict[str, Any]:
        with self.journal.lock:
            channel = self.header(name)
            blobs = list(self.journal.entries.get(name, {}).values())
        channel["entries"] = [marshal.loads(blob) for blob in blobs]
        return channel

    def names(self) -> List[str]:
        with self.journal.lock:
            return sorted(self.journal.channels)

    # -- entries -----------------------------------------------------------

    def entries(self, name: str) -> List[Dict[str, Any]]:
        return self.get(name)["entries"]

    def latest_sequence(self, name: str) -> int:
        """The newest entry that is not withdrawn (0: none)."""
        with self.journal.lock:
            self._header_blob(name)
            withdrawn = self.journal.withdrawn.get(name, ())
            for sequence in reversed(self.journal.entries.get(name, {})):
                if sequence not in withdrawn:
                    return sequence
            return 0

    def append_entry(self, name: str,
                     payload: Dict[str, Any]) -> Dict[str, Any]:
        """Publish: stamp the §5.4 sequence chain onto ``payload``.

        A channel with no kernel version adopts the entry's
        ``kernel_version`` in the same batch.
        """
        with self.journal.lock:
            header = self.header(name)
            entry = dict(payload)
            entry["sequence"] = next(
                reversed(self.journal.entries.get(name, {})), 0) + 1
            entry["base_sequence"] = self.latest_sequence(name)
            puts: List[Put] = [("entry", (name, entry["sequence"]),
                                entry)]
            if not header["kernel_version"] and entry.get(
                    "kernel_version"):
                header["kernel_version"] = entry["kernel_version"]
                puts.append(("channel", name, header))
            self.journal.append(puts)
            return dict(entry)

    def withdrawal(self, name: str, sequence: int) -> Optional[Put]:
        """The put that withdraws a live entry, or None if there is
        no such entry (call with the journal lock held)."""
        blob = self.journal.entries.get(name, {}).get(sequence)
        if blob is None or sequence in self.journal.withdrawn.get(
                name, ()):
            return None
        entry = marshal.loads(blob)
        entry["withdrawn"] = True
        return ("entry", (name, sequence), entry)

    def replace_entries(self, name: str,
                        entries: List[Dict[str, Any]]) -> None:
        """Overwrite the series wholesale (tests and repair tooling)."""
        with self.journal.lock:
            self._header_blob(name)
            new = {int(entry["sequence"]): entry for entry in entries}
            puts: List[Put] = [
                ("entry", (name, sequence), None)
                for sequence in self.journal.entries.get(name, {})
                if sequence not in new]
            puts.extend(("entry", (name, sequence), entry)
                        for sequence, entry in sorted(new.items()))
            self.journal.append(puts)


class ControlPlaneStore:
    """The daemon's whole durable state: registry, channels, rollouts.

    Constructing a store over an existing data directory *is* the
    recovery path: it replays the journal, so a restarted daemon sees
    every write the killed one had returned from.  One writer per data
    root: the daemon owns its store, and the CLI goes through HTTP.
    """

    def __init__(self, root: Optional[str] = None):
        self.root = root or default_data_dir()
        self.journal = Journal(os.path.join(self.root, JOURNAL_NAME))
        self.channels = ChannelStore(self.root, journal=self.journal)
        for name in DEFAULT_CHANNELS:
            self.channels.ensure_channel(name)

    # -- members -----------------------------------------------------------

    def members(self, channel: Optional[str] = None) -> List[Member]:
        """Every registered member, or one channel's subscribers,
        ordered by id."""
        with self.journal.lock:
            index = self.journal.members
            ids = (index if channel is None else
                   [member_id for member_id, subscribed
                    in self.journal.member_channels.items()
                    if subscribed == channel])
            blobs = [index[member_id] for member_id in sorted(ids)]
        return [Member.from_json_dict(marshal.loads(blob))
                for blob in blobs]

    def get_member(self, member_id: str) -> Member:
        blob = self.journal.members.get(member_id)
        if blob is None:
            raise UnknownMemberError("no registered member %r"
                                     % member_id)
        return Member.from_json_dict(marshal.loads(blob))

    def save_member(self, member: Member) -> None:
        self.journal.append([("member", member.member_id,
                              member.to_json_dict())])

    def update_members(self, members: List[Member],
                       rollout: Optional[RolloutRecord] = None,
                       withdraw: bool = False) -> None:
        """Write member records, and the rollout record that moved
        them, in one batch; with ``withdraw``, the batch also
        withdraws the channel entry the rollout delivers."""
        with self.journal.lock:
            puts: List[Put] = [("member", member.member_id,
                                member.to_json_dict())
                               for member in members]
            if rollout is not None:
                puts.append(("rollout", rollout.rollout_id,
                             rollout.to_json_dict()))
            if withdraw and rollout is not None:
                withdrawal = self.channels.withdrawal(rollout.channel,
                                                      rollout.sequence)
                if withdrawal is not None:
                    puts.append(withdrawal)
            self.journal.append(puts)

    # -- rollouts ----------------------------------------------------------

    def save_rollout(self, record: RolloutRecord) -> None:
        self.journal.append([("rollout", record.rollout_id,
                              record.to_json_dict())])

    def withdraw(self, record: RolloutRecord) -> None:
        """Save ``record`` and withdraw the channel entry it delivers,
        in one batch (a publish closed without reaching any member)."""
        self.update_members([], rollout=record, withdraw=True)

    def load_rollout(self, rollout_id: str) -> RolloutRecord:
        blob = self.journal.rollouts.get(rollout_id)
        if blob is None:
            raise UnknownRolloutError("no rollout %r" % rollout_id)
        return RolloutRecord.from_json_dict(marshal.loads(blob))

    def rollouts(self, channel: Optional[str] = None,
                 ) -> List[RolloutRecord]:
        """Every rollout record, or one channel's, ordered by id."""
        with self.journal.lock:
            index = self.journal.rollouts
            ids = (index if channel is None
                   else self.journal.channel_rollouts.get(channel, {}))
            blobs = [index[rollout_id] for rollout_id in sorted(ids)]
        return [RolloutRecord.from_json_dict(marshal.loads(blob))
                for blob in blobs]
