"""Relocation call graph over the run kernel's object units.

Nodes are ``(unit, function)`` pairs.  Edges come from two places:
*text-section* relocations whose target resolves to a defined function
(cross-unit calls and code-taken addresses), and decoded ``call``
instructions whose displacement was resolved at assembly time — the
run build is a merged-section build, so same-unit calls leave no
relocation behind, only a fixed offset into the shared text section.
Either way the edge is attributed to the function whose extent contains
the call site.  Data-section relocations to
functions (e.g. the syscall table's ``.word`` entries) are kept apart
in :attr:`CallGraph.data_referenced`: they make a function reachable
from arbitrary threads at run time but are not stack-visible call
chains, and conflating the two would poison the quiescence analysis.

Inlined-copy propagation rides on the compiler's inline metadata
(:class:`repro.compiler.inliner.InlineReport`): a function hosting an
inlined copy of a callee is recorded as an inline host — effectively a
caller whose call sites left no relocation behind.  Sleep points are
functions whose compiled text contains a ``sched`` or ``hlt``
instruction (the MiniC ``__sched()``/``__hlt`` builtins lower to
these); anything that can reach one by direct calls can sit on a
sleeping thread's stack across stop_machine retries.

The graph is the analyzer's only reader of the run build: the same
walks also record definition counts (lint), relocation sites (data
layout) and the argument words each call pushes (ABI).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.arch.disassembler import disassemble_one, iter_instructions
from repro.arch.isa import REG_SP, SPEC_BY_MNEMONIC
from repro.errors import DisassemblyError
from repro.kbuild import BuildResult
from repro.objfile import ObjectFile, Section, SectionKind, SymbolKind

#: mnemonics that park the executing thread (see ``repro.arch.isa``)
SLEEP_MNEMONICS = ("sched", "hlt")

#: functions the boot sequence calls directly, outside any call chain
BOOT_ENTRYPOINTS = ("kernel_init",)

#: where a relocated ``call``'s relocation sits: its rel32 field
CALL_FIELD = SPEC_BY_MNEMONIC["call"].operand_fields[0][1]

Node = Tuple[str, str]

#: ``(unit, section, offset, in a text section)`` of one relocation
RelocSite = Tuple[str, str, int, bool]


def format_node(node: Node) -> str:
    return "%s:%s" % node


@dataclass
class CallGraph:
    """The run kernel's inter-procedural reference structure."""

    #: caller node -> callee nodes (text-relocation call edges)
    calls: Dict[Node, Set[Node]] = field(default_factory=dict)
    #: callee node -> caller nodes (reverse of ``calls``)
    callers: Dict[Node, Set[Node]] = field(default_factory=dict)
    #: functions whose address a data-section relocation takes
    data_referenced: Set[Node] = field(default_factory=set)
    #: function node -> "unit:section" data sites referencing it
    data_ref_sites: Dict[Node, Set[str]] = field(default_factory=dict)
    #: functions whose own text contains a sleep instruction
    sleep_points: Set[Node] = field(default_factory=set)
    #: (caller, callee) -> call-site offsets inside the caller's section
    call_sites: Dict[Tuple[Node, Node], Set[int]] = field(
        default_factory=dict)
    #: sleeping node -> offsets of its sched/hlt instructions
    sleep_sites: Dict[Node, Set[int]] = field(default_factory=dict)
    #: (unit, callee name) -> nodes holding an inlined copy of callee
    inline_hosts: Dict[Node, Set[Node]] = field(default_factory=dict)
    #: function name -> defining nodes (all bindings)
    definitions: Dict[str, List[Node]] = field(default_factory=dict)
    #: symbol name -> how many run-kernel symbols of any kind define it
    definition_counts: Dict[str, int] = field(default_factory=dict)
    #: symbol name -> every relocation naming it, in (unit, section,
    #: offset) order
    reloc_sites: Dict[str, List[RelocSite]] = field(default_factory=dict)
    #: callee name -> ``unit:host`` -> fewest argument words a call site
    #: in that host pops straight after the call (``addi sp, +4n``)
    arg_words: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def node_for(self, unit: str, name: str) -> Optional[Node]:
        node = (unit, name)
        return node if node in set(self.definitions.get(name, [])) else None

    def predecessors(self, node: Node) -> Set[Node]:
        """Callers plus inline hosts — everything whose execution can
        put ``node``'s code on a stack or transfer into it."""
        preds = set(self.callers.get(node, ()))
        preds |= self.inline_hosts.get(node, set())
        preds.discard(node)
        return preds

    def caller_closure(self, roots: Iterable[Node]) -> Set[Node]:
        """Transitive callers (inline hosts included) of ``roots``,
        excluding the roots themselves."""
        seen: Set[Node] = set()
        frontier: List[Node] = sorted(set(roots))
        root_set = set(frontier)
        while frontier:
            node = frontier.pop()
            for pred in sorted(self.predecessors(node)):
                if pred not in seen and pred not in root_set:
                    seen.add(pred)
                    frontier.append(pred)
        return seen

    def sleep_path(self, node: Node) -> Optional[List[Node]]:
        """Shortest direct-call chain from ``node`` to a sleep point
        (``[node]`` itself when its own text sleeps), else None."""
        if node in self.sleep_points:
            return [node]
        parents: Dict[Node, Node] = {}
        seen: Set[Node] = {node}
        frontier: List[Node] = [node]
        while frontier:
            next_frontier: List[Node] = []
            for current in frontier:
                for callee in sorted(self.calls.get(current, ())):
                    if callee in seen:
                        continue
                    seen.add(callee)
                    parents[callee] = current
                    if callee in self.sleep_points:
                        path = [callee]
                        while path[-1] != node:
                            path.append(parents[path[-1]])
                        return list(reversed(path))
                    next_frontier.append(callee)
            frontier = next_frontier
        return None

    def is_init_only(self, node: Node,
                     entrypoints: Tuple[str, ...] = BOOT_ENTRYPOINTS) -> bool:
        """True when ``node`` is reachable *only* from the boot path:
        never address-taken by data, has at least one caller, and every
        call chain leading to it starts at a boot entry point.  Such a
        function already ran during boot and will never run again — so
        replacing its code cannot re-fix the state it initialized."""
        if node in self.data_referenced:
            return False
        closure = self.caller_closure([node])
        if not closure:
            return False
        if any(caller in self.data_referenced for caller in closure):
            return False
        roots = [caller for caller in closure
                 if not self.predecessors(caller)]
        return bool(roots) and all(name in entrypoints
                                   for _unit, name in roots)

    def add_call(self, caller: Node, callee: Node, offset: int) -> None:
        self.calls.setdefault(caller, set()).add(callee)
        self.callers.setdefault(callee, set()).add(caller)
        self.call_sites.setdefault((caller, callee), set()).add(offset)

    def references_of(self, node: Node) -> List[str]:
        """Everything referencing ``node``, rendered deterministically:
        call-edge callers and inline hosts as ``unit:function``, data
        reference sites as ``unit:section``."""
        refs = {format_node(p) for p in self.predecessors(node)}
        refs |= self.data_ref_sites.get(node, set())
        return sorted(refs)


def _function_extents(obj: ObjectFile,
                      section: Section) -> List[Tuple[int, int, str]]:
    """``(start, end, name)`` per function symbol, covering the whole
    section: a function's extent runs to the next function's start, so
    inter-function alignment padding is attributed to its predecessor
    (harmless — padding is nops)."""
    funcs = sorted(
        ((sym.value, sym.name) for sym in obj.symbols_in_section(section.name)
         if sym.kind is SymbolKind.FUNC),
        key=lambda item: (item[0], item[1]))
    extents: List[Tuple[int, int, str]] = []
    for index, (start, name) in enumerate(funcs):
        end = funcs[index + 1][0] if index + 1 < len(funcs) \
            else section.size
        extents.append((start, end, name))
    return extents


def _containing(extents: List[Tuple[int, int, str]],
                offset: int) -> Optional[str]:
    for start, end, name in extents:
        if start <= offset < end:
            return name
    return None


def build_call_graph(build: BuildResult) -> CallGraph:
    """Construct the graph from every object of the run kernel's build."""
    graph = CallGraph()
    local_funcs: Dict[str, Set[str]] = {}
    global_funcs: Dict[str, List[Node]] = {}
    extents: Dict[Tuple[str, str], List[Tuple[int, int, str]]] = {}

    for unit in sorted(build.objects):
        obj = build.objects[unit]
        local_funcs[unit] = set()
        for sym in obj.defined_symbols():
            graph.definition_counts[sym.name] = \
                graph.definition_counts.get(sym.name, 0) + 1
            if sym.kind is not SymbolKind.FUNC:
                continue
            graph.definitions.setdefault(sym.name, []).append((unit, sym.name))
            local_funcs[unit].add(sym.name)
            if not sym.is_local:
                global_funcs.setdefault(sym.name, []).append((unit, sym.name))
        for section in obj.text_sections():
            section_extents = _function_extents(obj, section)
            extents[(unit, section.name)] = section_extents
            _scan_text(graph, unit, section, section_extents)

    def resolve(unit: str, name: str) -> Optional[Node]:
        if name in local_funcs.get(unit, ()):
            return (unit, name)
        targets = global_funcs.get(name, [])
        return targets[0] if len(targets) == 1 else None

    for unit in sorted(build.objects):
        obj = build.objects[unit]
        for section_name in sorted(obj.sections):
            section = obj.sections[section_name]
            in_text = section.kind is SectionKind.TEXT
            for reloc in section.sorted_relocations():
                graph.reloc_sites.setdefault(reloc.symbol, []).append(
                    (unit, section_name, reloc.offset, in_text))
                target = resolve(unit, reloc.symbol)
                if target is None:
                    continue
                if in_text:
                    caller_name = _containing(
                        extents.get((unit, section_name), []), reloc.offset)
                    if caller_name is None:
                        continue
                    if (unit, caller_name) != target:
                        graph.add_call((unit, caller_name), target,
                                       reloc.offset)
                else:
                    graph.data_referenced.add(target)
                    graph.data_ref_sites.setdefault(target, set()).add(
                        "%s:%s" % (unit, section_name))

    for unit in sorted(build.inline_reports):
        report = build.inline_reports[unit]
        for callee in sorted(report.inlined):
            for caller, _count in report.inlined[callee]:
                graph.inline_hosts.setdefault((unit, callee), set()).add(
                    (unit, caller))
    return graph


def _scan_text(graph: CallGraph, unit: str, section: Section,
               section_extents: List[Tuple[int, int, str]]) -> None:
    """One decode pass per text section: sleep points, the argument
    words of each call, and the edges of calls the assembler resolved
    (a merged build leaves no relocation for a same-unit call).

    A call's callee is the symbol relocated at its rel32 field, else
    the function whose extent *starts* at its target; its edge goes to
    the extent that *contains* the target.  Argument words count only
    when the whole section decodes."""
    reloc_at = {reloc.offset: reloc.symbol for reloc in section.relocations}
    starts = {start: name for start, end, name in section_extents
              if end > start}
    named_calls: List[Tuple[int, str, str]] = []  # (end, callee, host)
    try:
        for instr in iter_instructions(section.data):
            mnemonic = instr.mnemonic
            if mnemonic in SLEEP_MNEMONICS:
                name = _containing(section_extents, instr.offset)
                if name is not None:
                    graph.sleep_points.add((unit, name))
                    graph.sleep_sites.setdefault(
                        (unit, name), set()).add(instr.offset)
                continue
            if mnemonic != "call":
                continue
            end = instr.offset + instr.length
            target = end + instr.instruction.operands[0]
            caller = _containing(section_extents, instr.offset)
            relocated = reloc_at.get(instr.offset + CALL_FIELD)
            named = relocated if relocated is not None \
                else starts.get(target)
            if named is not None:
                named_calls.append((end, named,
                                    "%s:%s" % (unit, caller or "?")))
            if relocated is not None:
                continue  # the relocation walk adds its edge
            callee = _containing(section_extents, target)
            if caller is not None and callee is not None \
                    and caller != callee:
                graph.add_call((unit, caller), (unit, callee), instr.offset)
    except DisassemblyError:
        # Undecodable text (hand-written constants in code): keep what
        # the decoded prefix showed, minus its argument words.
        return
    for end, named, host in named_calls:
        words = 0  # unless the next instruction pops the arguments
        if end < len(section.data):
            after = disassemble_one(section.data, end)
            ops = after.instruction.operands
            if after.mnemonic == "addi" and ops[0] == REG_SP \
                    and 0 < ops[1] < 0x80000000:
                words = ops[1] // 4
        hosts = graph.arg_words.setdefault(named, {})
        hosts[host] = min(hosts.get(host, words), words)


def text_sleeps(section_data: bytes) -> bool:
    """Does this (function-sections) text contain a sleep instruction?"""
    try:
        return any(instr.mnemonic in SLEEP_MNEMONICS
                   for instr in iter_instructions(section_data))
    except DisassemblyError:
        return False
