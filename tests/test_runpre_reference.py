"""The run-pre matcher against its reference walk.

``core/runpre.py`` decodes each pre section once per unit, reads run
code from one segment buffer per candidate, memoises decodes by raw
bytes, and skips operand matching for identical plain instructions.
None of that may change an outcome.  This file keeps the walk the fast
one replaced, verbatim, as a test-only reference (with an uncached
decode and Memory reads per instruction), and requires identical
``RunPreResult`` fields, or the identical exception type and message,
on every helper unit of the 64 corpus CVEs, on a generated corpus, and
on run code with single bytes flipped inside matched functions.

The same cases run a second time through the replay store: a sibling
machine booted from the same build walks first, and the machine under
test must then get the reference outcome, replaying exactly when no
recorded lookup or span differs.  Stacked members, concurrent matches
and 3-member corpus rollouts are checked the same way.
"""

import random
import sys
import threading
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

import pytest

from repro.arch.disassembler import DecodedInstruction
from repro.arch.info import DEFAULT_ARCH, K86, ArchInfo
from repro.arch.isa import FIELD_SIZES, OperandKind, decode_instruction
from repro.compiler import CompilerOptions
from repro.core import KspliceCore, ksplice_create, runpre
from repro.core.runpre import (
    RunPreMatcher,
    RunPreResult,
    _CandidateMismatch,
    clear_replays,
    replay_stats,
)
from repro.errors import (
    DisassemblyError,
    KspliceError,
    MachineError,
    RunPreMismatchError,
    SymbolResolutionError,
)
from repro.evaluation.analyze import create_corpus_cve
from repro.evaluation.corpus import CORPUS, corpus_by_id
from repro.evaluation.engine import run_build_for
from repro.evaluation.kernels import kernel_for_version
from repro.fleet.orchestrator import RolloutPlan, rollout_corpus_cve
from repro.kbuild import SourceTree, build_units
from repro.kernel import boot_kernel
from repro.kernel.memory import Memory
from repro.linker.kallsyms import KallsymsTable
from repro.objfile import (
    ObjectFile,
    Relocation,
    RelocationType,
    Section,
    SymbolKind,
)
from repro.patch import make_patch
from repro.scenarios import GeneratedCorpus

_FIELD_SIZES = FIELD_SIZES  # the table the reference walk used

# ---------------------------------------------------------------------------
# The reference: the walk before the fast path, kept verbatim.


def _reference_disassemble_one(code: bytes,
                                offset: int = 0) -> DecodedInstruction:
    """The uncached decode: no memo in the reference."""
    instruction = decode_instruction(code, offset)
    raw = bytes(code[offset:offset + instruction.length])
    return DecodedInstruction(offset=offset, instruction=instruction,
                              raw=raw)


class _ReferenceSectionMatch:
    """One attempt to match a pre text section at one run address."""

    def __init__(self, memory: Memory, section: Section, run_start: int,
                 arch: ArchInfo = DEFAULT_ARCH):
        self._memory = memory
        self._arch = arch
        self._section = section
        self._pre = section.data
        self._run_start = run_start
        self._relocs_by_offset: Dict[int, Relocation] = {
            r.offset: r for r in section.relocations}
        self.symbol_values: Dict[str, int] = {}
        self.bytes_matched = 0
        self.nop_bytes_skipped = 0
        self.relocations_solved = 0
        # pre instruction offset -> run instruction address
        self._correspondence: Dict[int, int] = {}
        self._jump_checks: List[Tuple[int, int]] = []

    # -- errors -----------------------------------------------------------

    def _fail(self, pre_off: int, run_addr: int, why: str) -> None:
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
        try:
            opcode = self._memory.read_u8(address)
            window = self._memory.read_bytes(
                address, self._arch.instruction_length(opcode))
            return self._arch.decode_one(window)
        except (MachineError, DisassemblyError) as exc:
            raise _CandidateMismatch(
                "run code at 0x%08x undecodable: %s" % (address, exc))

    # -- the walk -----------------------------------------------------------

    def match(self) -> None:
        pre_off = 0
        run_addr = self._run_start
        pre_len = len(self._pre)
        while pre_off < pre_len:
            try:
                pre_insn = self._arch.decode_one(self._pre, pre_off)
            except DisassemblyError as exc:
                self._fail(pre_off, run_addr, "pre undecodable: %s" % exc)
            run_insn = self._decode_run(run_addr)

            if pre_insn.is_nop and run_insn.is_nop:
                self._correspondence[pre_off] = run_addr
                self.nop_bytes_skipped += max(pre_insn.length,
                                              run_insn.length)
                pre_off += pre_insn.length
                run_addr += run_insn.length
                continue
            if run_insn.is_nop:  # run-only alignment padding
                self.nop_bytes_skipped += run_insn.length
                run_addr += run_insn.length
                continue
            if pre_insn.is_nop:  # pre-only padding
                self.nop_bytes_skipped += pre_insn.length
                pre_off += pre_insn.length
                continue

            self._correspondence[pre_off] = run_addr
            if pre_insn.canonical != run_insn.canonical:
                self._fail(pre_off, run_addr,
                           "instruction %s vs %s"
                           % (pre_insn.mnemonic, run_insn.mnemonic))
            self._match_operands(pre_insn, run_insn, pre_off, run_addr)
            self.bytes_matched += pre_insn.length
            pre_off += pre_insn.length
            run_addr += run_insn.length

        self._verify_jump_targets(run_addr)

    def _match_operands(self, pre_insn: DecodedInstruction,
                        run_insn: DecodedInstruction,
                        pre_off: int, run_addr: int) -> None:
        pre_kinds = [k for k in pre_insn.instruction.spec.operands
                     if k is not OperandKind.PAD]
        run_kinds = [k for k in run_insn.instruction.spec.operands
                     if k is not OperandKind.PAD]
        pre_field = 1
        run_field = 1
        for index, (pk, rk) in enumerate(zip(pre_kinds, run_kinds)):
            pre_value = pre_insn.instruction.operands[index]
            run_value = run_insn.instruction.operands[index]
            if pk is OperandKind.REG:
                if pre_value != run_value:
                    self._fail(pre_off, run_addr,
                               "register operand %d differs" % index)
            elif pk in (OperandKind.IMM32, OperandKind.ABS32):
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
            pre_field += _FIELD_SIZES[pk]
            run_field += _FIELD_SIZES[rk]

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
        end_of_pre = len(self._pre)
        for pre_target, run_target in self._jump_checks:
            if pre_target == end_of_pre:
                expected = run_end
            else:
                expected = self._correspondence.get(pre_target)
            if expected != run_target:
                self._fail(pre_target, run_target,
                           "relative jump targets do not correspond "
                           "(expected run 0x%08x)" % (expected or 0))


@dataclass
class ReferenceMatcher:
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

        Matching is iterative: functions whose names are in the symbol
        table (or redirected by the stacking override) anchor the first
        round; functions whose names are *missing* from the table (§4.1
        "does not appear at all" — e.g. local symbols stripped from
        kallsyms) become locatable once some matched caller's relocation
        solves their address, and are matched in later rounds.
        """
        result = RunPreResult(unit=helper.name)
        pending: List[Tuple[Section, object]] = []
        for section in helper.sections.values():
            if not section.kind.is_code:
                continue
            fn_symbol = self._function_symbol(helper, section.name)
            if fn_symbol is not None:
                pending.append((section, fn_symbol))

        while pending:
            progress = False
            deferred: List[Tuple[Section, object]] = []
            for section, fn_symbol in pending:
                candidates = self._candidates(helper.name, fn_symbol.name)
                if not candidates:
                    solved = result.symbol_values.get(fn_symbol.name)
                    if solved is None:
                        deferred.append((section, fn_symbol))
                        continue
                    candidates = [solved]
                run_addr, attempt = self._match_candidates(
                    helper, section, fn_symbol, candidates)
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

        self._match_rodata(helper, result)
        return result

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _function_symbol(helper: ObjectFile, section_name: str):
        for symbol in helper.symbols_in_section(section_name):
            if symbol.kind is SymbolKind.FUNC and symbol.value == 0:
                return symbol
        return None

    def _candidates(self, unit: str, name: str) -> List[int]:
        if self.candidate_override is not None:
            override = self.candidate_override(unit, name)
            if override is not None:
                return override
        return [entry.address for entry in self.kallsyms.candidates(name)
                if entry.kind is SymbolKind.FUNC]

    def _match_candidates(self, helper: ObjectFile, section: Section,
                          fn_symbol,
                          candidates: Optional[List[int]] = None
                          ) -> Tuple[int, _ReferenceSectionMatch]:
        if candidates is None:
            candidates = self._candidates(helper.name, fn_symbol.name)
        if not candidates:
            raise SymbolResolutionError(
                "no run address candidates for function %r (unit %s)"
                % (fn_symbol.name, helper.name))
        successes: List[Tuple[int, _ReferenceSectionMatch]] = []
        failures: List[str] = []
        for address in candidates:
            attempt = _ReferenceSectionMatch(self.memory, section, address,
                                             arch=self.arch)
            try:
                attempt.match()
            except _CandidateMismatch as exc:
                failures.append(str(exc))
                continue
            successes.append((address, attempt))
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

    def _merge(self, result: RunPreResult, attempt: _ReferenceSectionMatch,
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

    def _match_rodata(self, helper: ObjectFile, result: RunPreResult) -> None:
        """Byte-match read-only data whose address is already known."""
        for section in helper.sections.values():
            if not section.name.startswith(".rodata"):
                continue
            symbols = helper.symbols_in_section(section.name)
            anchor = next((s for s in symbols if s.value == 0), None)
            if anchor is None:
                continue
            address = result.symbol_values.get(anchor.name)
            if address is None:
                entries = self.kallsyms.candidates(anchor.name)
                if len(entries) != 1:
                    continue
                address = entries[0].address
            reloc_holes = {r.offset for r in section.relocations}
            try:
                run_bytes = self.memory.read_bytes(address, section.size)
            except MachineError:
                raise RunPreMismatchError(
                    "rodata %s not mapped at 0x%08x"
                    % (section.name, address))
            for offset, (pre_byte, run_byte) in enumerate(
                    zip(section.data, run_bytes)):
                if any(h <= offset < h + 4 for h in reloc_holes):
                    continue
                if pre_byte != run_byte:
                    raise RunPreMismatchError(
                        "rodata %s differs at +%d" % (section.name, offset))
            result.bytes_matched += section.size


REFERENCE_ARCH = replace(K86, decode=_reference_disassemble_one)

# ---------------------------------------------------------------------------
# Harness


def _booter():
    """A kernel-per-version memo: the lookup and the dict it fills."""
    machines: Dict[str, object] = {}

    def machine(version):
        if version not in machines:
            kernel = kernel_for_version(version)
            machines[version] = boot_kernel(kernel.tree,
                                            build=run_build_for(kernel))
        return machines[version]

    return machine, machines


@pytest.fixture(scope="module")
def machine_for():
    """One freshly booted kernel per version, released with the module;
    matching only reads it (the byte-flip test restores what it
    flips)."""
    machine, machines = _booter()
    yield machine
    machines.clear()


@pytest.fixture(scope="module")
def sibling_for():
    """A second kernel per version, booted from the same build: the
    fleet member that matched first."""
    machine, machines = _booter()
    yield machine
    machines.clear()


def _outcome(matcher, helper):
    try:
        result = matcher.match_unit(helper)
    except KspliceError as exc:
        return type(exc).__name__, str(exc)
    return ("ok", result.unit, result.symbol_values,
            result.matched_functions, result.bytes_matched,
            result.nop_bytes_skipped, result.relocations_solved)


def _fast(machine, override=None):
    return RunPreMatcher(memory=machine.memory,
                         kallsyms=machine.image.kallsyms,
                         candidate_override=override)


def _reference(machine, override=None):
    return ReferenceMatcher(memory=machine.memory,
                            kallsyms=machine.image.kallsyms,
                            candidate_override=override,
                            arch=REFERENCE_ARCH)


def _both(machine, helper):
    """A fresh walk's outcome (the store is emptied first) and the
    reference's."""
    clear_replays()
    return (_outcome(_fast(machine), helper),
            _outcome(_reference(machine), helper))


def _replayed(machine, sibling, helper):
    """The outcome on ``machine`` once ``sibling`` has matched
    ``helper`` first, and how many replays that match took."""
    clear_replays()
    _outcome(_fast(sibling), helper)
    before = replay_stats()["replays"]
    outcome = _outcome(_fast(machine), helper)
    return outcome, replay_stats()["replays"] - before


def _recorded_spans(helper):
    """The run spans of the one walk recorded for ``helper``."""
    (record,) = runpre._RECORDS[id(helper)]
    return record.reads[2]


def _assert_units_agree(spec, machine_for, sibling_for):
    machine = machine_for(spec.kernel_version)
    sibling = sibling_for(spec.kernel_version)
    pack = create_corpus_cve(spec).pack
    for uu in pack.units:
        fast, reference = _both(machine, uu.helper)
        assert fast == reference, (spec.cve_id, uu.unit)
        assert fast[0] == "ok", (spec.cve_id, uu.unit, fast)
        assert _replayed(machine, sibling, uu.helper) == (reference, 1), \
            (spec.cve_id, uu.unit)
    return len(pack.units)


@pytest.mark.parametrize("cve_id", [spec.cve_id for spec in CORPUS])
def test_corpus_helpers_match_like_the_reference(cve_id, machine_for,
                                                 sibling_for):
    assert _assert_units_agree(corpus_by_id(cve_id), machine_for,
                               sibling_for) >= 1


def test_generated_helpers_match_like_the_reference(machine_for,
                                                    sibling_for):
    corpus = GeneratedCorpus.generate(11, 32)
    units = sum(_assert_units_agree(scenario.spec, machine_for,
                                    sibling_for)
                for scenario in corpus.scenarios)
    assert units >= len(corpus.scenarios)


# -- single-byte flips in the run code -------------------------------------

_CATEGORIES = ("opcode", "register", "immediate", "rel8", "rel32")


def _flip_sites(machine, helper, matched):
    """Category -> run addresses to flip inside each matched function:
    every non-nop opcode byte, and every byte of each operand field."""
    memory = machine.memory
    sites: Dict[str, List[int]] = {c: [] for c in _CATEGORIES}
    for section in helper.sections.values():
        if not section.kind.is_code:
            continue
        names = [s.name for s in helper.symbols_in_section(section.name)
                 if s.kind is SymbolKind.FUNC and s.value == 0]
        if not names or names[0] not in matched:
            continue
        address = matched[names[0]]
        # short run jumps can make the run code shorter than the pre
        # section: stop at whatever follows it
        end = address + section.size
        while address < end:
            try:
                insn = decode_instruction(memory.read_bytes(address, 8))
            except (DisassemblyError, MachineError):
                break
            if not insn.spec.is_nop:
                sites["opcode"].append(address)
            for kind, offset in insn.spec.operand_fields:
                width = FIELD_SIZES[kind]
                category = {OperandKind.REG: "register",
                            OperandKind.IMM32: "immediate",
                            OperandKind.ABS32: "immediate",
                            OperandKind.REL8: "rel8",
                            OperandKind.REL32: "rel32"}[kind]
                sites[category].extend(
                    address + offset + i for i in range(width))
            address += insn.length
    return sites


FLIP_CVES = [spec.cve_id for spec in CORPUS][::8]


@pytest.mark.parametrize("cve_id", FLIP_CVES)
def test_flipped_run_bytes_fail_like_the_reference(cve_id, machine_for,
                                                   sibling_for):
    """Each flip is matched by a fresh walk, and again after an
    unflipped sibling's walk was recorded: that replays exactly when
    the flip lies outside every recorded span."""
    spec = corpus_by_id(cve_id)
    machine = machine_for(spec.kernel_version)
    sibling = sibling_for(spec.kernel_version)
    rng = random.Random(cve_id)
    flipped = {c: 0 for c in _CATEGORIES}
    errors = 0
    for uu in create_corpus_cve(spec).pack.units:
        baseline = _both(machine, uu.helper)[1]
        assert baseline[0] == "ok"
        sites = _flip_sites(machine, uu.helper, baseline[3])
        _outcome(_fast(sibling), uu.helper)
        spans = _recorded_spans(uu.helper)
        for category in _CATEGORIES:
            for address in rng.sample(sites[category],
                                      min(3, len(sites[category]))):
                segment = machine.memory.segment_for(address)
                offset = address - segment.base
                original = segment.data[offset]
                segment.data[offset] = original ^ rng.choice(
                    (0x01, 0x02, 0x07, 0x10, 0x80))
                machine.memory.notify_exec_write(address, 1)
                try:
                    fast, reference = _both(machine, uu.helper)
                    replayed = _replayed(machine, sibling, uu.helper)
                finally:
                    segment.data[offset] = original
                    machine.memory.notify_exec_write(address, 1)
                where = (cve_id, uu.unit, category, hex(address))
                assert fast == reference, where
                outside = not any(start <= address < start + len(raw)
                                  for start, raw in spans)
                assert replayed == (reference, int(outside)), where
                flipped[category] += 1
                errors += fast[0] != "ok"
    assert flipped["opcode"] and flipped["register"] and \
        flipped["immediate"] and flipped["rel32"], flipped
    assert errors, "no flip was ever caught"


def test_flips_cover_short_jumps(machine_for):
    """Across the flip sample, rel8 displacements (short jumps in the
    merged run build) are exercised too."""
    total = 0
    for cve_id in FLIP_CVES:
        spec = corpus_by_id(cve_id)
        machine = machine_for(spec.kernel_version)
        for uu in create_corpus_cve(spec).pack.units:
            matched = _both(machine, uu.helper)[1][3]
            total += len(_flip_sites(machine, uu.helper, matched)["rel8"])
    assert total > 0


# -- the replay store --------------------------------------------------------


def _flip(machine, address):
    """Flip one run byte; returns the undo."""
    segment = machine.memory.segment_for(address)
    offset = address - segment.base
    original = segment.data[offset]
    segment.data[offset] = original ^ 0x10
    machine.memory.notify_exec_write(address, 1)

    def restore():
        segment.data[offset] = original
        machine.memory.notify_exec_write(address, 1)
    return restore


def test_replay_rechecks_every_span_and_nothing_else(machine_for,
                                                     sibling_for):
    """A flip inside a recorded span walks; a flip in a data word or in
    a function the helper does not contain still replays."""
    spec = corpus_by_id("CVE-2006-2451")
    machine = machine_for(spec.kernel_version)
    sibling = sibling_for(spec.kernel_version)
    helper = create_corpus_cve(spec).pack.units[0].helper
    reference = _both(machine, helper)[1]
    _outcome(_fast(sibling), helper)
    spans = _recorded_spans(helper)

    def outside(entry):
        return not any(start < entry.address + max(entry.size, 1) and
                       entry.address < start + len(raw)
                       for start, raw in spans)

    helper_names = {symbol.name for symbol in helper.symbols}
    entries = machine.image.kallsyms.entries
    data_word = next(e for e in entries if e.kind is SymbolKind.OBJECT
                     and e.size >= 4 and outside(e))
    other_function = next(e for e in entries if e.kind is SymbolKind.FUNC
                          and e.name not in helper_names and outside(e))
    inside = spans[0][0] + len(spans[0][1]) // 2
    for address, replays in ((data_word.address, 1),
                             (other_function.address, 1), (inside, 0)):
        restore = _flip(machine, address)
        try:
            replayed = _replayed(machine, sibling, helper)
            walked = _both(machine, helper)
        finally:
            restore()
        assert replayed == (walked[1], replays), hex(address)
        assert walked[0] == walked[1]
    assert _replayed(machine, sibling, helper) == (reference, 1)


@pytest.mark.parametrize("cve_id", ["CVE-2005-1263", "CVE-2006-2451"])
def test_a_lookup_answered_differently_walks(cve_id, machine_for,
                                             sibling_for):
    """The run bytes are identical, the lookups are not: a member whose
    kallsyms lacks local symbols, or whose stacking override sends the
    first function to another one, walks and gets its own reference
    outcome."""
    spec = corpus_by_id(cve_id)
    machine = machine_for(spec.kernel_version)
    sibling = sibling_for(spec.kernel_version)
    helper = create_corpus_cve(spec).pack.units[0].helper
    matched = _both(machine, helper)[1][3]
    first, other = list(matched)[0], list(matched)[-1]
    stripped = machine.image.kallsyms.stripped_of_locals()

    def redirect(unit, name):
        return [matched[other]] if name == first else None

    for kallsyms, override in ((stripped, None),
                               (machine.image.kallsyms, redirect)):
        reference = _outcome(ReferenceMatcher(
            memory=machine.memory, kallsyms=kallsyms,
            candidate_override=override, arch=REFERENCE_ARCH), helper)
        clear_replays()
        _outcome(_fast(sibling), helper)
        outcome = _outcome(RunPreMatcher(
            memory=machine.memory, kallsyms=kallsyms,
            candidate_override=override), helper)
        assert (outcome, replay_stats()["replays"]) == (reference, 0)


_NOTESIZE = """
static int notesize(int x) {
    int pad = x %% %d;
    if (pad) { return x + %d - pad; }
    return x;
}
int %s_entry(int x) { return notesize(x) + 1; }
"""


def test_a_failed_candidate_is_rechecked_too():
    """``notesize`` has two kallsyms candidates and only fs/a.c's
    matches the helper.  On a member where fs/b.c's copy became
    identical to fs/a.c's, both match, so the walk must refuse to
    guess; a replay that skipped the failed candidate's span would
    answer fs/a.c's address instead."""
    tree = SourceTree(version="replay-ambiguous", files={
        "fs/a.c": _NOTESIZE % (4, 4, "a"),
        "fs/b.c": _NOTESIZE % (8, 8, "b")})
    options = CompilerOptions(opt_level=0)
    recorder = boot_kernel(tree, options=options)
    member = boot_kernel(tree, options=options)
    helper = build_units(tree, ["fs/a.c"], options.pre_post_flavor()
                         ).object_for("fs/a.c")
    entries = {e.unit: e for e in
               member.image.kallsyms.candidates("notesize")}
    a, b = entries["fs/a.c"], entries["fs/b.c"]
    assert a.size == b.size
    clear_replays()
    assert _outcome(_fast(recorder), helper)[0] == "ok"
    segment = member.memory.segment_for(b.address)
    offset = b.address - segment.base
    segment.data[offset:offset + b.size] = \
        member.memory.read_bytes(a.address, a.size)
    member.memory.notify_exec_write(b.address, b.size)
    reference = _outcome(_reference(member), helper)
    assert reference[0] == "SymbolResolutionError"
    assert _outcome(_fast(member), helper) == reference
    assert replay_stats()["replays"] == 0


_COUNT_C = """
int counter;

int bump(int x) {
    counter = counter + x;
    return counter;
}

int peek(int x) {
    return counter + x;
}
"""
_COUNT_V2 = _COUNT_C.replace("    return counter;\n",
                             "    return counter + 1;\n")
_COUNT_V3 = _COUNT_V2.replace("return counter + x;",
                              "return counter + x + 2;")


def _count_update(old, new, version):
    diff = make_patch({"kernel/count.c": old}, {"kernel/count.c": new})
    return ksplice_create(
        SourceTree(version=version, files={"kernel/count.c": old}), diff)


@pytest.mark.parametrize("first", ["stacked", "plain"])
def test_stacked_member_walks_whoever_matched_first(first):
    """Member A runs an update of ``kernel/count.c``, member B does
    not.  A later helper of that unit (and the first update's own
    helper again) matched on A walks in full and equals the reference,
    whether A or B matched it first: A's stacking override answers the
    replaced function's lookup differently."""
    tree = SourceTree(version="replay-stack",
                      files={"kernel/count.c": _COUNT_C})
    one = _count_update(_COUNT_C, _COUNT_V2, tree.version)
    two = _count_update(_COUNT_V2, _COUNT_V3, tree.version + "+")
    stacked, plain = boot_kernel(tree), boot_kernel(tree)
    core = KspliceCore(stacked)
    core.apply(one)
    override = core._candidate_override
    kinds = {"ok": 0, "RunPreMismatchError": 0}
    for helper in (two.units[0].helper, one.units[0].helper):
        reference = _outcome(_reference(stacked, override), helper)
        clear_replays()
        if first == "plain":
            _outcome(_fast(plain), helper)
        walks = replay_stats()["walks"]
        assert _outcome(_fast(stacked, override), helper) == reference
        assert replay_stats()["walks"] == walks + 1
        if first == "stacked":
            _outcome(_fast(plain), helper)
            assert replay_stats()["walks"] == walks + 2
        kinds[reference[0]] += 1
    # the later helper matches only the stacked member, the first
    # update's helper only the plain one
    assert kinds == {"ok": 1, "RunPreMismatchError": 1}


def test_concurrent_matches_get_the_reference_result(machine_for,
                                                     sibling_for):
    """Four threads, two per machine, match one helper at once, over
    and over with a short switch interval: each gets the reference
    outcome, the counters lose no match, and the store keeps one
    record."""
    spec = corpus_by_id("CVE-2006-2451")
    machines = (machine_for(spec.kernel_version),
                sibling_for(spec.kernel_version)) * 2
    helper = create_corpus_cve(spec).pack.units[0].helper
    reference = _both(machines[0], helper)[1]
    outcomes: List[tuple] = []
    rounds = 10
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(rounds):
            clear_replays()
            barrier = threading.Barrier(len(machines))

            def match(machine):
                barrier.wait(timeout=60)
                outcomes.append(_outcome(_fast(machine), helper))
            threads = [threading.Thread(target=match, args=(m,))
                       for m in machines]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            stats = replay_stats()
            assert stats["replays"] + stats["walks"] == len(machines)
            assert stats["walks"] >= 1 and stats["records"] == 1
    finally:
        sys.setswitchinterval(interval)
    assert outcomes == [reference] * (rounds * len(machines))


def test_corpus_rollouts_replay_like_a_reference_walk(monkeypatch):
    """Every corpus CVE rolled out to 3 members: the first member of
    each rollout walks, the other two replay, and every replayed result
    equals a reference walk on the member that replayed it."""
    match_unit = RunPreMatcher.match_unit
    differences: List[str] = []

    def checked(matcher, helper):
        replays = replay_stats()["replays"]
        result = match_unit(matcher, helper)
        if replay_stats()["replays"] > replays:
            reference = ReferenceMatcher(
                memory=matcher.memory, kallsyms=matcher.kallsyms,
                candidate_override=matcher.candidate_override,
                arch=REFERENCE_ARCH).match_unit(helper)
            if result != reference:
                differences.append(helper.name)
        return result

    monkeypatch.setattr(RunPreMatcher, "match_unit", checked)
    clear_replays()
    outcomes = {rollout_corpus_cve(RolloutPlan(spec.cve_id,
                                               fleet_size=3)).outcome
                for spec in CORPUS}
    stats = replay_stats()
    assert outcomes == {"complete"}
    assert differences == []
    assert stats["walks"] >= len(CORPUS)
    assert stats["replays"] == 2 * stats["walks"]
