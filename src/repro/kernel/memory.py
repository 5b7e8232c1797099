"""Flat segmented physical memory."""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import MachineError


@dataclass
class Segment:
    """One mapped region of memory.

    ``executable`` marks segments instructions may be fetched from;
    writes to them invalidate the CPU's decode cache (self-modifying
    code — Ksplice's jump insertion — must be observed immediately).

    ``reserved`` is the segment's full addressable size; backing bytes
    beyond ``len(data)`` are materialized (zero-filled) on first touch.
    Eagerly zeroing the multi-megabyte stack/user/module areas dominated
    boot time when the evaluation boots hundreds of machines.
    """

    name: str
    base: int
    data: bytearray
    writable: bool = True
    executable: bool = False
    reserved: int = 0

    def __post_init__(self) -> None:
        if self.reserved < len(self.data):
            self.reserved = len(self.data)

    @property
    def size(self) -> int:
        return self.reserved

    @property
    def end(self) -> int:
        return self.base + self.reserved

    def contains(self, address: int, count: int = 1) -> bool:
        return self.base <= address and address + count <= self.end

    def materialize(self, upto: int) -> None:
        """Ensure backing bytes exist for offsets below ``upto``.

        Growth is amortized (doubling, 64 KiB floor) so a bump-allocated
        area costs O(touched bytes), not O(touches).
        """
        have = len(self.data)
        if upto <= have:
            return
        target = min(self.reserved, max(upto, have * 2, 1 << 16))
        self.data.extend(bytes(target - have))


class Memory:
    """A sparse 32-bit address space built from non-overlapping segments."""

    def __init__(self) -> None:
        self._segments: List[Segment] = []
        self._last_hit: Optional[Segment] = None
        #: bumped on every write; lets the CPU cache decoded instructions
        #: and still observe self-modifying code (jump insertion).
        self.write_version = 0
        #: decode cache attached by the CPU (repro.kernel.cpu).  Writes
        #: to executable segments clear it in place, so the CPU's hot
        #: loop needs no per-instruction version check.
        self._decode_cache = None
        #: shared (read, write, holder) bundle for JIT traces — built
        #: lazily so machines that never trace pay nothing.
        self._jit_accessors = None

    def map_segment(self, name: str, base: int, size: int = 0,
                    data: Optional[bytes] = None,
                    writable: bool = True,
                    executable: bool = False,
                    reserve: int = 0) -> Segment:
        """Map a region.  ``size``/``data`` bytes are materialized now;
        ``reserve`` additionally makes the region addressable up to that
        many bytes, zero-filled lazily on first touch."""
        payload = bytearray(data) if data is not None else bytearray(size)
        segment = Segment(name=name, base=base, data=payload,
                          writable=writable, executable=executable,
                          reserved=reserve)
        for existing in self._segments:
            if segment.base < existing.end and existing.base < segment.end:
                raise MachineError(
                    "segment %s overlaps %s" % (name, existing.name))
        self._segments.append(segment)
        self._segments.sort(key=lambda s: s.base)
        return segment

    def segment(self, name: str) -> Segment:
        for segment in self._segments:
            if segment.name == name:
                return segment
        raise MachineError("no segment named %s" % name)

    def segment_for(self, address: int, count: int = 1) -> Segment:
        last = self._last_hit
        if last is not None and last.contains(address, count):
            return last
        for segment in self._segments:
            if segment.contains(address, count):
                self._last_hit = segment
                return segment
        raise MachineError(
            "unmapped memory access at 0x%08x (+%d)" % (address, count))

    # -- accessors ------------------------------------------------------------

    def read_bytes(self, address: int, count: int) -> bytes:
        segment = self.segment_for(address, count)
        offset = address - segment.base
        end = offset + count
        if end > len(segment.data):
            segment.materialize(end)
        return bytes(segment.data[offset:end])

    def write_bytes(self, address: int, payload: bytes) -> None:
        segment = self.segment_for(address, len(payload))
        if not segment.writable:
            raise MachineError(
                "write to read-only segment %s at 0x%08x"
                % (segment.name, address))
        offset = address - segment.base
        if offset + len(payload) > len(segment.data):
            segment.materialize(offset + len(payload))
        segment.data[offset:offset + len(payload)] = payload
        if segment.executable:
            self.notify_exec_write(address, len(payload))

    def notify_exec_write(self, address: int, count: int) -> None:
        """Record that executable bytes changed (self-modifying code).

        Delegates to the decode cache's range invalidation: only cached
        instructions overlapping the written range are dropped (a cached
        instruction can start up to max-length minus one bytes before
        it), and any compiled JIT trace whose byte range overlaps the
        write is evicted — this is the hook that makes Ksplice's
        stop_machine jump insertion (and ``undo``'s byte restoration)
        immediately visible to traced execution.  Mutations are in
        place: the CPU's run loop aliases the entries dict.  Callers
        that mutate ``segment.data`` directly (the module loader's
        relocation patching) must call this themselves.
        """
        self.write_version += 1
        cache = self._decode_cache
        if cache is not None:
            cache.invalidate_range(address, count)
            cache.version = self.write_version

    # -- JIT fast accessors ---------------------------------------------------

    def jit_accessors(self) -> tuple:
        """Shared ``(read, write, holder)`` bundle for JIT traces.

        ``holder`` is a flat 12-slot list caching two segments as
        ``[lo, hi, view, base_word, plain, writable]`` tuples —
        generated trace code loads it into locals at entry and
        performs bounds-checked word access inline through ``view``,
        a ``memoryview(...).cast("I")`` over the segment's backing
        bytes, paying a Python call only on a miss.  ``hi`` is the
        *last* address holding a complete aligned word, so the inline
        hit test is a single chained comparison plus an alignment
        check; ``base_word`` is ``lo >> 2`` so the word index is one
        shift and one subtract.  ``plain`` is True when the segment
        is writable and non-executable: inline *stores* take it
        unconditionally; a writable *executable* segment (the kernel
        image maps text and data together) is inlined only when the
        stored word misses the decode cache's code-word set — such a
        store cannot overlap any cached instruction or compiled
        trace, so skipping :meth:`notify_exec_write` is sound; any
        store that could patch code takes the ``write`` closure.
        Inline *loads* only need the bounds.  Compiled loops
        ping-pong between the thread stack (locals) and the kernel
        image (globals), which is why two slots are cached, and why
        the bundle is shared by every trace of this Memory rather
        than rebuilt per trace.

        A live memoryview pins the bytearray's buffer, so a segment
        is fully materialized (its whole ``reserved`` range — all
        areas reserve at most a few MiB) before its view is built;
        ``materialize`` then never resizes it again.  Word views
        require a little-endian host and a 4-aligned segment base;
        otherwise the segment simply never installs and every access
        takes the (correct, slower) closure.  The closures are
        semantically identical to :meth:`read_u32` /
        :meth:`write_u32` (same segment resolution, error messages,
        and invalidation hook).
        """
        acc = self._jit_accessors
        if acc is not None:
            return acc

        unpack_from = struct.unpack_from
        pack_into = struct.pack_into
        little = sys.byteorder == "little"
        # hi of -1 makes an empty slot's bounds test unsatisfiable
        holder: list = [0, -1, None, 0, False, False,
                        0, -1, None, 0, False, False]
        #: last executable segment stored to (kernel globals live in
        #: the executable image, so traced loops store there every
        #: iteration); lets ``write`` skip segment resolution while
        #: keeping the invalidation hook
        last_exec: list = [None]

        def _view_of(segment: Segment):
            view = getattr(segment, "_view32", None)
            if view is None:
                if len(segment.data) < segment.reserved:
                    segment.materialize(segment.reserved)
                data = segment.data
                usable = len(data) & ~3
                if little and usable and not segment.base & 3:
                    mv = memoryview(data)
                    if usable != len(data):
                        mv = mv[:usable]
                    view = mv.cast("I")
                else:
                    view = False  # unusable: never install this one
                segment._view32 = view
            return view

        def _install(segment: Segment, view) -> None:
            base = segment.base
            hi = base + (len(view) << 2) - 4
            plain = segment.writable and not segment.executable
            if holder[0] == base:
                holder[1] = hi
                holder[2] = view
                holder[4] = plain
                holder[5] = segment.writable
            elif holder[6] == base:
                holder[7] = hi
                holder[8] = view
                holder[10] = plain
                holder[11] = segment.writable
            else:
                holder[6:12] = holder[0:6]
                holder[0] = base
                holder[1] = hi
                holder[2] = view
                holder[3] = base >> 2
                holder[4] = plain
                holder[5] = segment.writable

        def read(address: int, memory: "Memory" = self) -> int:
            segment = memory.segment_for(address, 4)
            view = _view_of(segment)
            if view is not False:
                _install(segment, view)
            offset = address - segment.base
            data = segment.data
            if offset + 4 > len(data):
                segment.materialize(offset + 4)
                data = segment.data
            word = unpack_from("<I", data, offset)[0]
            return word  # type: ignore[no-any-return]

        def write(address: int, value: int,
                  memory: "Memory" = self) -> None:
            segment = last_exec[0]
            if segment is not None and segment.contains(address, 4):
                offset = address - segment.base
                data = segment.data
                if offset + 4 <= len(data):
                    pack_into("<I", data, offset, value & 0xFFFFFFFF)
                    memory.notify_exec_write(address, 4)
                    return
            segment = memory.segment_for(address, 4)
            if not segment.writable:
                raise MachineError(
                    "write to read-only segment %s at 0x%08x"
                    % (segment.name, address))
            view = _view_of(segment)
            if view is not False:
                _install(segment, view)
            offset = address - segment.base
            if offset + 4 > len(segment.data):
                segment.materialize(offset + 4)
            pack_into("<I", segment.data, offset, value & 0xFFFFFFFF)
            if segment.executable:
                memory.notify_exec_write(address, 4)
                last_exec[0] = segment

        self._jit_accessors = acc = (read, write, holder)
        return acc

    def read_u8(self, address: int) -> int:
        return self.read_bytes(address, 1)[0]

    def read_u32(self, address: int) -> int:
        return struct.unpack("<I", self.read_bytes(address, 4))[0]

    def write_u32(self, address: int, value: int) -> None:
        self.write_bytes(address, struct.pack("<I", value & 0xFFFFFFFF))

    def is_mapped(self, address: int, count: int = 1) -> bool:
        try:
            self.segment_for(address, count)
            return True
        except MachineError:
            return False
