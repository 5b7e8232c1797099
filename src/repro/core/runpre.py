"""run-pre matching (§4.3).

The matcher walks every byte of each pre text section against the run
code in kernel memory, knowing only two architecture facts: instruction
lengths and which instructions are pc-relative.  Along the way it

* skips no-op padding present on either side (alignment differs between
  the merged run build and the function-sections pre build);
* treats short and long encodings of the same branch as equivalent,
  checking that their targets *correspond* under the non-linear mapping
  built during the walk;
* solves every unresolved pre relocation from the already-relocated run
  bytes (``S = val + P_run − A``), producing trusted symbol values — the
  mechanism that disambiguates duplicate local names like ``debug``;
* aborts on any other difference (``RunPreMismatchError``), which is the
  safety guarantee: no unchecked assumption about the run code survives.

Function run addresses are found by candidate matching: every kallsyms
symbol with the right name is tried, and exactly one candidate must
match.  A ``candidate_override`` lets the Ksplice core redirect lookups
for functions already replaced by an earlier update (§5.4 stacking).

A walk's result is a pure function of the helper, the candidate lookups
it made and the run bytes it read.  Each successful walk is recorded
with those reads: every lookup with its answer, one span per candidate
attempt from its run address to the furthest byte it read, and each
``.rodata`` span.  A later match of the same helper object, on any
machine, re-asks every lookup and compares every span; only when all
are identical does it take the recorded result, otherwise it walks.
So every byte a result relies on is still checked on the machine being
updated, and fleet members booted from one build walk once.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Deque, Dict, List, NoReturn, Optional, Tuple

from repro.arch.disassembler import DecodedInstruction
from repro.arch.info import DEFAULT_ARCH, ArchInfo
from repro.arch.isa import OperandKind
from repro.errors import (
    DisassemblyError,
    MachineError,
    RunPreMismatchError,
    SymbolResolutionError,
)
from repro.kernel.memory import Memory
from repro.linker.kallsyms import KallsymsTable
from repro.objfile import (
    ObjectFile,
    Relocation,
    RelocationType,
    Section,
    Symbol,
    SymbolKind,
)

class _CandidateMismatch(Exception):
    """Internal: this candidate address does not match the pre code."""


@dataclass
class RunPreResult:
    """Outcome of matching one unit's pre object against the run code."""

    unit: str
    symbol_values: Dict[str, int] = field(default_factory=dict)
    matched_functions: Dict[str, int] = field(default_factory=dict)
    bytes_matched: int = 0
    nop_bytes_skipped: int = 0
    relocations_solved: int = 0

    def value_of(self, name: str) -> int:
        try:
            return self.symbol_values[name]
        except KeyError:
            raise SymbolResolutionError(
                "run-pre matching produced no value for %r in %s"
                % (name, self.unit)) from None

    def copy(self) -> "RunPreResult":
        return replace(self, symbol_values=dict(self.symbol_values),
                       matched_functions=dict(self.matched_functions))


class _PreSection:
    """A pre text section decoded once per ``match_unit``.

    The pre walk never depends on the run code (the pre offset advances
    by the pre instruction's own length), so its instruction stream, its
    relocation-offset map, and which instructions may skip operand
    matching are fixed per section and shared by every kallsyms
    candidate.  A decode error is kept, not raised: the walk reports it
    only if it gets that far, with the run address it has reached.
    """

    def __init__(self, section: Section, arch: ArchInfo = DEFAULT_ARCH):
        self.section = section
        self.relocs_by_offset: Dict[int, Relocation] = {
            r.offset: r for r in section.relocations}
        #: (offset, instruction, plain); ``plain`` instructions are not
        #: pc-relative and no relocation starts inside them, so
        #: identical run bytes mean identical canonical op and operands
        self.stream: List[Tuple[int, DecodedInstruction, bool]] = []
        self.error: Optional[Tuple[int, DisassemblyError]] = None
        reloc_offsets = sorted(self.relocs_by_offset)
        next_reloc = 0
        decode = arch.decode
        pre = section.data
        offset = 0
        while offset < len(pre):
            try:
                insn = decode(pre, offset)
            except DisassemblyError as exc:
                self.error = (offset, exc)
                break
            spec = insn.instruction.spec
            end = offset + spec.length
            while next_reloc < len(reloc_offsets) and \
                    reloc_offsets[next_reloc] < offset:
                next_reloc += 1
            relocated = next_reloc < len(reloc_offsets) and \
                reloc_offsets[next_reloc] < end
            self.stream.append(
                (offset, insn, not (relocated or spec.is_pc_relative)))
            offset = end


class _SectionMatch:
    """One attempt to match a pre text section at one run address."""

    def __init__(self, memory: Memory, section: Section, run_start: int,
                 arch: ArchInfo = DEFAULT_ARCH,
                 pre: Optional[_PreSection] = None):
        self._memory = memory
        self._arch = arch
        self._section = section
        self._pre = pre if pre is not None else _PreSection(section, arch)
        self._run_start = run_start
        self._relocs_by_offset = self._pre.relocs_by_offset
        # The run code is read straight from the segment holding
        # run_start; anything outside it takes Memory's checked reads.
        try:
            segment = memory.segment_for(run_start)
            self._run_base = segment.base
            self._run_data: Optional[bytearray] = segment.data
        except MachineError:
            self._run_base = 0
            self._run_data = None
        self.symbol_values: Dict[str, int] = {}
        self.bytes_matched = 0
        self.nop_bytes_skipped = 0
        self.relocations_solved = 0
        #: the attempt read run bytes [run_start, read_end), unless a
        #: read hit unmapped memory
        self.read_end = run_start
        self.unmapped = False
        # pre instruction offset -> run instruction address
        self._correspondence: Dict[int, int] = {}
        self._jump_checks: List[Tuple[int, int]] = []

    # -- errors -----------------------------------------------------------

    def _fail(self, pre_off: int, run_addr: int, why: str) -> NoReturn:
        raise _CandidateMismatch(
            "%s+%d vs run 0x%08x: %s"
            % (self._section.name, pre_off, run_addr, why))

    def _record_symbol(self, pre_off: int, run_addr: int, name: str,
                       value: int) -> None:
        existing = self.symbol_values.get(name)
        if existing is not None and existing != value:
            self._fail(pre_off, run_addr,
                       "symbol %r solved inconsistently: 0x%08x vs 0x%08x"
                       % (name, existing, value))
        self.symbol_values[name] = value
        self.relocations_solved += 1

    # -- decoding ---------------------------------------------------------

    def _decode_run(self, address: int) -> DecodedInstruction:
        data = self._run_data
        offset = address - self._run_base
        try:
            if data is not None and 0 <= offset < len(data):
                end = offset + self._arch.instruction_length(data[offset])
                if end <= len(data):
                    return self._arch.decode(bytes(data[offset:end]), 0)
            # off the segment (or not yet materialized): checked reads
            opcode = self._memory.read_u8(address)
            window = self._memory.read_bytes(
                address, self._arch.instruction_length(opcode))
            return self._arch.decode_one(window)
        except MachineError as exc:
            self.unmapped = True
            error: Exception = exc
        except DisassemblyError as exc:
            # the opcode byte was read, and its whole window if the
            # opcode has a length
            try:
                length = self._arch.instruction_length(
                    self._memory.read_u8(address))
            except DisassemblyError:
                length = 1
            self.read_end = address + length
            error = exc
        raise _CandidateMismatch(
            "run code at 0x%08x undecodable: %s" % (address, error))

    # -- the walk -----------------------------------------------------------

    def match(self) -> None:
        pre = self._pre
        stream = pre.stream
        decode_run = self._decode_run
        correspondence = self._correspondence
        run_addr = run_end = self._run_start
        bytes_matched = nop_bytes_skipped = 0
        index = 0
        try:
            while index < len(stream):
                pre_off, pre_insn, plain = stream[index]
                run_insn = decode_run(run_addr)
                pre_spec = pre_insn.instruction.spec
                run_spec = run_insn.instruction.spec
                # the attempt has read up to here, whether or not this
                # run instruction is consumed
                run_end = run_addr + run_spec.length

                if run_spec.is_nop:
                    if pre_spec.is_nop:
                        correspondence[pre_off] = run_addr
                        nop_bytes_skipped += max(pre_spec.length,
                                                 run_spec.length)
                        index += 1
                    else:  # run-only alignment padding
                        nop_bytes_skipped += run_spec.length
                    run_addr = run_end
                    continue
                if pre_spec.is_nop:  # pre-only padding
                    nop_bytes_skipped += pre_spec.length
                    index += 1
                    continue

                correspondence[pre_off] = run_addr
                if not (plain and pre_insn.raw == run_insn.raw):
                    if pre_spec.canonical != run_spec.canonical:
                        self._fail(pre_off, run_addr,
                                   "instruction %s vs %s"
                                   % (pre_spec.mnemonic, run_spec.mnemonic))
                    self._match_operands(pre_insn, run_insn, pre_off,
                                         run_addr)
                bytes_matched += pre_spec.length
                index += 1
                run_addr = run_end
        finally:
            self.bytes_matched += bytes_matched
            self.nop_bytes_skipped += nop_bytes_skipped
            self.read_end = max(self.read_end, run_end)

        if pre.error is not None:
            error_off, exc = pre.error
            self._fail(error_off, run_addr, "pre undecodable: %s" % exc)
        self._verify_jump_targets(run_addr)

    def _match_operands(self, pre_insn: DecodedInstruction,
                        run_insn: DecodedInstruction,
                        pre_off: int, run_addr: int) -> None:
        pre_values = pre_insn.instruction.operands
        run_values = run_insn.instruction.operands
        for index, ((pk, pre_field), (_rk, run_field)) in enumerate(zip(
                pre_insn.instruction.spec.operand_fields,
                run_insn.instruction.spec.operand_fields)):
            pre_value = pre_values[index]
            run_value = run_values[index]
            if pk is OperandKind.REG:
                if pre_value != run_value:
                    self._fail(pre_off, run_addr,
                               "register operand %d differs" % index)
            elif pk is OperandKind.IMM32 or pk is OperandKind.ABS32:
                reloc = self._relocs_by_offset.get(pre_off + pre_field)
                if reloc is not None:
                    solved = reloc.solve_symbol(
                        run_value, place=run_addr + run_field)
                    self._record_symbol(pre_off, run_addr, reloc.symbol,
                                        solved)
                elif pre_value != run_value:
                    self._fail(pre_off, run_addr,
                               "immediate operand differs: 0x%x vs 0x%x"
                               % (pre_value, run_value))
            else:  # pc-relative
                pre_target = pre_off + pre_insn.length + pre_value
                run_target = run_addr + run_insn.length + run_value
                reloc = self._relocs_by_offset.get(pre_off + pre_field)
                if reloc is not None:
                    self._solve_pc_relative(reloc, pre_off, run_addr,
                                            run_insn, run_field, run_target)
                else:
                    self._jump_checks.append((pre_target, run_target))

    def _solve_pc_relative(self, reloc: Relocation, pre_off: int,
                           run_addr: int, run_insn: DecodedInstruction,
                           run_field: int, run_target: int) -> None:
        if reloc.type is not RelocationType.PC32:
            self._fail(pre_off, run_addr,
                       "abs relocation on a pc-relative field")
        if reloc.addend == -4:
            # Canonical call/jump relocation: the addend exactly cancels
            # the next-instruction bias, so S is the branch target — an
            # identity that holds whether the run encoding is short or
            # long.
            solved = run_target
        else:
            # General addend: invert the relocation formula, which needs
            # the raw run field; only sound when the encodings agree.
            if run_insn.length != 5:
                self._fail(pre_off, run_addr,
                           "cannot solve non-canonical pc32 against a "
                           "short-form run instruction")
            raw = self._memory.read_u32(run_addr + run_field)
            solved = reloc.solve_symbol(raw, place=run_addr + run_field)
        self._record_symbol(pre_off, run_addr, reloc.symbol, solved)

    def _verify_jump_targets(self, run_end: int) -> None:
        end_of_pre = len(self._section.data)
        for pre_target, run_target in self._jump_checks:
            if pre_target == end_of_pre:
                expected = run_end
            else:
                expected = self._correspondence.get(pre_target)
            if expected != run_target:
                self._fail(pre_target, run_target,
                           "relative jump targets do not correspond "
                           "(expected run 0x%08x)" % (expected or 0))


#: what a recorded walk read: (candidate lookups, anchor lookups,
#: (start, run bytes) spans)
_Snapshot = Tuple[Tuple[Tuple[str, Tuple[int, ...]], ...],
                  Tuple[Tuple[str, Tuple[int, ...]], ...],
                  Tuple[Tuple[int, bytes], ...]]


class _Reads:
    """Everything one walk of a helper read outside the helper itself."""

    def __init__(self) -> None:
        #: function name -> candidate run addresses (override or kallsyms)
        self.candidates: Dict[str, Tuple[int, ...]] = {}
        #: ``.rodata`` anchor name -> kallsyms addresses
        self.anchors: Dict[str, Tuple[int, ...]] = {}
        #: run span start -> furthest byte read from it
        self.spans: Dict[int, int] = {}
        self.unmapped = False

    def span(self, start: int, end: int) -> None:
        if end > self.spans.get(start, start):
            self.spans[start] = end

    def attempt(self, start: int, attempt: _SectionMatch) -> None:
        self.unmapped = self.unmapped or attempt.unmapped
        self.span(start, attempt.read_end)

    def snapshot(self, memory: Memory) -> Optional[_Snapshot]:
        """The lookups and each span's bytes, or None when a read hit
        unmapped memory or a span crosses segments."""
        if self.unmapped:
            return None
        try:
            spans = tuple((start, memory.read_bytes(start, end - start))
                          for start, end in self.spans.items())
        except MachineError:
            return None
        return (tuple(self.candidates.items()),
                tuple(self.anchors.items()), spans)


@dataclass(frozen=True, eq=False)
class _WalkRecord:
    """One successful walk: the helper (held, so its id stays unique
    while the record lives), what the walk read, and its result."""

    helper: ObjectFile
    arch: ArchInfo
    reads: _Snapshot
    result: RunPreResult


#: the replay store: id(helper) -> recorded walks of that helper object,
#: oldest first.  Rollouts run on threads, so recording replaces a
#: helper's tuple under :data:`_RECORDS_LOCK` and never mutates one a
#: reader may be iterating.  Memory only: records hold live objects.
_RECORDS: Dict[int, Tuple[_WalkRecord, ...]] = {}
_RECORD_ORDER: Deque[_WalkRecord] = deque()
_RECORDS_LOCK = threading.Lock()
#: the most walks the store keeps, process-wide (oldest dropped first)
_RECORDS_MAX = 256
_STATS = {"replays": 0, "walks": 0}


def _remember(record: _WalkRecord) -> None:
    key = id(record.helper)
    with _RECORDS_LOCK:
        known = _RECORDS.get(key, ())
        if any(r.arch is record.arch and r.reads == record.reads
               for r in known):
            return
        _RECORDS[key] = known + (record,)
        _RECORD_ORDER.append(record)
        while len(_RECORD_ORDER) > _RECORDS_MAX:
            old = _RECORD_ORDER.popleft()
            old_key = id(old.helper)
            rest = tuple(r for r in _RECORDS[old_key] if r is not old)
            if rest:
                _RECORDS[old_key] = rest
            else:
                del _RECORDS[old_key]


def _count(outcome: str) -> None:
    with _RECORDS_LOCK:
        _STATS[outcome] += 1


def replay_stats() -> Dict[str, int]:
    """How many matches took a recorded result, and how many walked."""
    with _RECORDS_LOCK:
        return dict(_STATS, records=len(_RECORD_ORDER))


def clear_replays() -> None:
    """Empty the replay store and its counters (test isolation)."""
    with _RECORDS_LOCK:
        _RECORDS.clear()
        _RECORD_ORDER.clear()
        _STATS.update(replays=0, walks=0)


@dataclass
class RunPreMatcher:
    """Matches helper (pre) objects against the running kernel."""

    memory: Memory
    kallsyms: KallsymsTable
    #: unit, symbol -> run addresses to try instead of kallsyms (stacking)
    candidate_override: Optional[Callable[[str, str], Optional[List[int]]]] \
        = None
    #: the §4.3 architecture-specific information table
    arch: ArchInfo = DEFAULT_ARCH

    def match_unit(self, helper: ObjectFile) -> RunPreResult:
        """Match every text section of a pre object against the run code.

        A recorded walk of this helper object whose lookups and run
        spans are all identical here gives its result; otherwise the
        helper is walked, and a successful walk that read only mapped
        memory is recorded.
        """
        for record in _RECORDS.get(id(helper), ()):
            if record.helper is helper and record.arch is self.arch \
                    and self._reads_agree(helper.name, record.reads):
                _count("replays")
                return record.result.copy()
        _count("walks")
        reads = _Reads()
        result = self._walk(helper, reads)
        snapshot = reads.snapshot(self.memory)
        if snapshot is not None:
            _remember(_WalkRecord(helper, self.arch, snapshot,
                                  result.copy()))
        return result

    def _reads_agree(self, unit: str, reads: _Snapshot) -> bool:
        candidates, anchors, spans = reads
        for name, answer in candidates:
            if tuple(self._candidates(unit, name)) != answer:
                return False
        for name, answer in anchors:
            if self._anchor_addresses(name) != answer:
                return False
        read_bytes = self.memory.read_bytes
        try:
            for start, raw in spans:
                if read_bytes(start, len(raw)) != raw:
                    return False
        except MachineError:
            return False
        return True

    def _walk(self, helper: ObjectFile, reads: _Reads) -> RunPreResult:
        """The walk, noting every lookup and run span in ``reads``.

        Matching is iterative: functions whose names are in the symbol
        table (or redirected by the stacking override) anchor the first
        round; functions whose names are *missing* from the table (§4.1
        "does not appear at all" — e.g. local symbols stripped from
        kallsyms) become locatable once some matched caller's relocation
        solves their address, and are matched in later rounds.
        """
        result = RunPreResult(unit=helper.name)
        symbols = _symbols_by_section(helper)
        pending: List[Tuple[Section, Symbol]] = []
        for section in helper.sections.values():
            if not section.kind.is_code:
                continue
            fn_symbol = next(
                (s for s in symbols.get(section.name, ())
                 if s.kind is SymbolKind.FUNC and s.value == 0), None)
            if fn_symbol is not None:
                pending.append((section, fn_symbol))

        while pending:
            progress = False
            deferred: List[Tuple[Section, Symbol]] = []
            for section, fn_symbol in pending:
                candidates = self._candidates(helper.name, fn_symbol.name)
                reads.candidates[fn_symbol.name] = tuple(candidates)
                if not candidates:
                    solved = result.symbol_values.get(fn_symbol.name)
                    if solved is None:
                        deferred.append((section, fn_symbol))
                        continue
                    candidates = [solved]
                run_addr, attempt = self._match_candidates(
                    helper, section, fn_symbol, candidates, reads)
                self._merge(result, attempt, fn_symbol, run_addr)
                progress = True
            if not progress:
                raise SymbolResolutionError(
                    "no run address candidates for function(s) %s "
                    "(unit %s): not in the symbol table and not "
                    "referenced by any matched code"
                    % (sorted(sym.name for _, sym in deferred),
                       helper.name))
            pending = deferred

        self._match_rodata(helper, symbols, result, reads)
        return result

    # -- helpers ---------------------------------------------------------------

    def _candidates(self, unit: str, name: str) -> List[int]:
        if self.candidate_override is not None:
            override = self.candidate_override(unit, name)
            if override is not None:
                return override
        return [entry.address for entry in self.kallsyms.candidates(name)
                if entry.kind is SymbolKind.FUNC]

    def _anchor_addresses(self, name: str) -> Tuple[int, ...]:
        return tuple(entry.address
                     for entry in self.kallsyms.candidates(name))

    def _match_candidates(self, helper: ObjectFile, section: Section,
                          fn_symbol, candidates: List[int],
                          reads: Optional[_Reads] = None
                          ) -> Tuple[int, _SectionMatch]:
        reads = reads if reads is not None else _Reads()
        pre = _PreSection(section, self.arch)
        successes: List[Tuple[int, _SectionMatch]] = []
        failures: List[str] = []
        for address in candidates:
            attempt = _SectionMatch(self.memory, section, address,
                                    arch=self.arch, pre=pre)
            try:
                attempt.match()
            except _CandidateMismatch as exc:
                failures.append(str(exc))
            else:
                successes.append((address, attempt))
            reads.attempt(address, attempt)
        if not successes:
            raise RunPreMismatchError(
                "run-pre mismatch for %s in %s:\n  %s"
                % (fn_symbol.name, helper.name, "\n  ".join(failures)))
        if len(successes) > 1:
            raise SymbolResolutionError(
                "function %r in %s matches %d run locations; cannot "
                "disambiguate" % (fn_symbol.name, helper.name,
                                  len(successes)))
        return successes[0]

    def _merge(self, result: RunPreResult, attempt: _SectionMatch,
               fn_symbol, run_addr: int) -> None:
        for name, value in attempt.symbol_values.items():
            existing = result.symbol_values.get(name)
            if existing is not None and existing != value:
                raise RunPreMismatchError(
                    "unit %s: symbol %r solved inconsistently across "
                    "functions (0x%08x vs 0x%08x)"
                    % (result.unit, name, existing, value))
            result.symbol_values[name] = value
        result.symbol_values[fn_symbol.name] = run_addr
        result.matched_functions[fn_symbol.name] = run_addr
        result.bytes_matched += attempt.bytes_matched
        result.nop_bytes_skipped += attempt.nop_bytes_skipped
        result.relocations_solved += attempt.relocations_solved

    def _match_rodata(self, helper: ObjectFile,
                      symbols: Dict[str, List[Symbol]],
                      result: RunPreResult, reads: _Reads) -> None:
        """Byte-match read-only data whose address is already known."""
        for section in helper.sections.values():
            if not section.name.startswith(".rodata"):
                continue
            anchor = next((s for s in symbols.get(section.name, ())
                           if s.value == 0), None)
            if anchor is None:
                continue
            address = result.symbol_values.get(anchor.name)
            if address is None:
                addresses = self._anchor_addresses(anchor.name)
                reads.anchors[anchor.name] = addresses
                if len(addresses) != 1:
                    continue
                address = addresses[0]
            try:
                run_bytes = self.memory.read_bytes(address, section.size)
            except MachineError:
                raise RunPreMismatchError(
                    "rodata %s not mapped at 0x%08x"
                    % (section.name, address))
            offset = _first_difference(
                section.data, run_bytes,
                sorted({r.offset for r in section.relocations}))
            if offset is not None:
                raise RunPreMismatchError(
                    "rodata %s differs at +%d" % (section.name, offset))
            reads.span(address, address + section.size)
            result.bytes_matched += section.size


def _symbols_by_section(helper: ObjectFile) -> Dict[str, List[Symbol]]:
    """Each section's symbols, in symbol-table order."""
    index: Dict[str, List[Symbol]] = {}
    for symbol in helper.symbols:
        index.setdefault(symbol.section, []).append(symbol)
    return index


def _first_difference(pre: bytes, run: bytes,
                      holes: List[int]) -> Optional[int]:
    """Offset of the first byte where ``pre`` and ``run`` differ outside
    the 4-byte relocation ``holes`` (sorted starts), or None; compares
    the spans between holes rather than byte by byte."""
    size = min(len(pre), len(run))
    start = 0
    for hole in holes + [size]:
        stop = min(hole, size)
        if start < stop and pre[start:stop] != run[start:stop]:
            return next(offset for offset in range(start, stop)
                        if pre[offset] != run[offset])
        start = max(start, hole + 4)
    return None
