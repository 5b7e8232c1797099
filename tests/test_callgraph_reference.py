"""The call graph's run-kernel facts against the walks they replaced.

:func:`~repro.analysis.callgraph.build_call_graph` is the analyzer's
only reader of a run build.  Its symbol loop counts definitions (for
the lint), its relocation walk records every relocation site (for the
data-layout and escape witnesses), and its decode sweep records the
argument words each call site pushes (for the ABI pass).  This suite
keeps the three separate walks those passes used to run, verbatim, and
requires the graph to answer exactly as they do on every symbol name
the corpus and generated run builds define or relocate against.  Then
it pins the sweep's two call-target rules on hand-assembled sections,
and checks that no other analysis module names ``BuildResult``.
"""

import ast
import pathlib
from typing import Dict, List, Optional, Tuple

import pytest

from repro.analysis.absint.abi import caller_arg_counts
from repro.analysis.callgraph import _function_extents, build_call_graph
from repro.analysis.datalayout import run_kernel_references
from repro.arch import isa
from repro.arch.disassembler import iter_instructions
from repro.arch.isa import REG_SP
from repro.compiler import CompilerOptions
from repro.errors import DisassemblyError
from repro.evaluation.corpus import CORPUS
from repro.evaluation.engine import run_build_for
from repro.evaluation.kernels import kernel_for_version
from repro.kbuild import BuildResult
from repro.objfile import (
    ObjectFile,
    Relocation,
    RelocationType,
    Section,
    SectionKind,
    Symbol,
    SymbolKind,
)
from repro.scenarios import GeneratedCorpus

ANALYSIS = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro" \
    / "analysis"


# -- the walks the graph replaced, verbatim --------------------------------


def reference_caller_arg_counts(build: Optional[BuildResult],
                                fn: str) -> Dict[str, int]:
    """How many argument words each run-kernel call site of ``fn``
    pushes, recovered from the caller's code: the words the caller
    pops (``addi sp, +4n``) straight after the ``call``.

    Keys are ``unit:function`` of the calling site's host; when a
    function is called from several sites the *minimum* count is kept
    (the weakest caller is the one a wider replacement would break).
    """
    if build is None:
        return {}

    counts: Dict[str, int] = {}
    for unit in sorted(build.objects):
        obj = build.objects[unit]
        for section in obj.text_sections():
            extents = _function_extents(obj, section)
            starts = {name: start for start, _end, name in extents}
            if fn not in starts and not any(
                    r.symbol == fn for r in section.relocations):
                continue
            try:
                instrs = list(iter_instructions(section.data))
            except DisassemblyError:
                continue
            reloc_syms = {r.offset: r.symbol
                          for r in section.relocations}
            for index, instr in enumerate(instrs):
                if instr.mnemonic != "call":
                    continue
                target = reloc_syms.get(instr.offset + 1)
                if target is None:
                    branch = instr.branch_target_offset()
                    target = next(
                        (name for start, end, name in extents
                         if branch is not None
                         and start <= branch < end
                         and branch == start), None)
                if target != fn:
                    continue
                pushed = 0
                if index + 1 < len(instrs):
                    after = instrs[index + 1]
                    ops = after.instruction.operands
                    if after.mnemonic == "addi" and ops[0] == REG_SP \
                            and 0 < ops[1] < 0x80000000:
                        pushed = ops[1] // 4
                host = next((name for start, end, name in extents
                             if start <= instr.offset < end), "?")
                key = "%s:%s" % (unit, host)
                counts[key] = min(counts.get(key, pushed), pushed)
    return counts


def reference_definition_counts(run_build: BuildResult) -> Dict[str, int]:
    """The lint's own walk over the run build's defined symbols."""
    run_defs: Dict[str, int] = {}
    for unit in sorted(run_build.objects):
        for sym in run_build.objects[unit].defined_symbols():
            run_defs[sym.name] = run_defs.get(sym.name, 0) + 1
    return run_defs


def reference_run_kernel_references(build: Optional[BuildResult],
                                    symbol: str) -> Tuple[List[str], int]:
    """``unit:section+0xNN`` relocation sites targeting ``symbol``, and
    how many of them sit in data sections (address-taking anchors)."""
    sites: List[str] = []
    data_anchors = 0
    if build is None:
        return sites, data_anchors
    for unit in sorted(build.objects):
        obj = build.objects[unit]
        for section_name in sorted(obj.sections):
            section = obj.sections[section_name]
            for reloc in section.sorted_relocations():
                if reloc.symbol != symbol:
                    continue
                what = "references" if section.kind is SectionKind.TEXT \
                    else "embeds the address of"
                if section.kind is not SectionKind.TEXT:
                    data_anchors += 1
                sites.append("%s:%s+0x%x: %s %s"
                             % (unit, section_name, reloc.offset,
                                what, symbol))
    return sites, data_anchors


# -- every name of the corpus and generated run builds ----------------------


@pytest.fixture(scope="module")
def run_builds() -> List[Tuple[str, BuildResult]]:
    versions = sorted({spec.kernel_version for spec in CORPUS}) \
        + GeneratedCorpus.generate(1, 32).kernel_versions()
    return [(version, run_build_for(kernel_for_version(version)))
            for version in versions]


def symbol_names(build: BuildResult) -> List[str]:
    """Every name the build defines or relocates against."""
    names = set()
    for obj in build.objects.values():
        names.update(sym.name for sym in obj.defined_symbols())
        names.update(obj.referenced_symbol_names())
    return sorted(names)


def test_graph_facts_equal_the_reference_walks(run_builds):
    assert len(run_builds) == 14 + 4
    names = counted = sites = 0
    for version, build in run_builds:
        graph = build_call_graph(build)
        assert graph.definition_counts == \
            reference_definition_counts(build), version
        for name in symbol_names(build):
            expected = reference_caller_arg_counts(build, name)
            assert caller_arg_counts(graph, name) == expected, \
                (version, name)
            refs = reference_run_kernel_references(build, name)
            assert run_kernel_references(graph, name) == refs, \
                (version, name)
            names += 1
            counted += bool(expected)
            sites += len(refs[0])
    # Not vacuous: many names are called with recovered argument
    # words, and many are relocated against.
    assert names > 2000 and counted > 400 and sites > 3000


def test_without_a_graph_every_fact_is_empty():
    assert caller_arg_counts(None, "anything") == {}
    assert run_kernel_references(None, "anything") == ([], 0)


# -- hand-assembled sections ------------------------------------------------

UNIT = "hand.c"


def hand_build(*items) -> BuildResult:
    """One run build whose one ``.text`` section holds ``items``: a
    string starts the function of that name, a tuple is an instruction.
    A ``call``'s operand is ``(function, bytes into it)``; a
    ``("callrel", function)`` is a call left to a pc32 relocation.
    ``b"..."`` items are raw bytes."""
    labels: Dict[str, int] = {}
    at = 0
    for item in items:
        if isinstance(item, str):
            labels[item] = at
        elif isinstance(item, bytes):
            at += len(item)
        else:
            mnemonic = "call" if item[0] == "callrel" else item[0]
            at += isa.SPEC_BY_MNEMONIC[mnemonic].length
    code = bytearray()
    relocations: List[Relocation] = []
    for item in items:
        if isinstance(item, str):
            continue
        if isinstance(item, bytes):
            code += item
        elif item[0] == "callrel":
            relocations.append(Relocation(
                offset=len(code) + 1, symbol=item[1],
                type=RelocationType.PC32, addend=-4))
            code += isa.encode_instruction(isa.make("call", 0))
        elif item[0] == "call":
            name, into = item[1]
            code += isa.encode_instruction(isa.make(
                "call", labels[name] + into - (len(code) + 5)))
        else:
            code += isa.encode_instruction(isa.make(*item))
    obj = ObjectFile(name=UNIT)
    obj.add_section(Section(name=".text", kind=SectionKind.TEXT,
                            data=bytes(code), relocations=relocations))
    for name, value in labels.items():
        obj.add_symbol(Symbol(name=name, kind=SymbolKind.FUNC,
                              section=".text", value=value))
    return BuildResult(tree_version="hand", options=CompilerOptions(),
                       objects={UNIT: obj})


def arg_words(build: BuildResult) -> Dict[str, Dict[str, int]]:
    """The graph's argument words per callee, checked against the
    reference on every name of the build."""
    graph = build_call_graph(build)
    for name in symbol_names(build):
        assert caller_arg_counts(graph, name) == \
            reference_caller_arg_counts(build, name), name
    return graph.arg_words


def edges(build: BuildResult) -> Dict[str, List[str]]:
    graph = build_call_graph(build)
    return {caller[1]: sorted(callee[1] for callee in callees)
            for caller, callees in graph.calls.items()}


def test_decode_error_drops_counts_but_keeps_the_prefix():
    build = hand_build(
        "g", ("sched",), ("ret",),
        "f", ("call", ("g", 0)), ("addi", REG_SP, 4), ("ret",),
        b"\xff")
    assert arg_words(build) == {}
    assert edges(build) == {"f": ["g"]}
    assert build_call_graph(build).sleep_points == {(UNIT, "g")}


def test_a_call_that_ends_its_section_pushes_nothing():
    build = hand_build("g", ("ret",), "f", ("call", ("g", 0)))
    assert arg_words(build) == {"g": {"hand.c:f": 0}}
    assert edges(build) == {"f": ["g"]}


def test_a_self_call_counts_but_makes_no_edge():
    build = hand_build("f", ("call", ("f", 0)), ("addi", REG_SP, 8),
                       ("ret",))
    assert arg_words(build) == {"f": {"hand.c:f": 2}}
    assert edges(build) == {}


def test_a_call_into_a_function_body_is_an_edge_but_no_count():
    build = hand_build("g", ("nop",), ("ret",),
                       "f", ("call", ("g", 1)), ("addi", REG_SP, 4),
                       ("ret",))
    assert arg_words(build) == {}
    assert edges(build) == {"f": ["g"]}


def test_the_fewest_words_of_one_host_are_kept():
    build = hand_build("g", ("ret",),
                       "f", ("call", ("g", 0)), ("addi", REG_SP, 12),
                       ("callrel", "g"), ("addi", REG_SP, 4),
                       ("callrel", "ext"), ("addi", REG_SP, 8), ("ret",))
    assert arg_words(build) == {"g": {"hand.c:f": 1},
                                "ext": {"hand.c:f": 2}}
    assert edges(build) == {"f": ["g"]}


# -- structure --------------------------------------------------------------


def test_only_the_analyzer_and_the_call_graph_name_build_result():
    naming = []
    for path in sorted(ANALYSIS.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            if "BuildResult" in names:
                naming.append(path.relative_to(ANALYSIS).as_posix())
    assert sorted(set(naming)) == ["analyzer.py", "callgraph.py"]
