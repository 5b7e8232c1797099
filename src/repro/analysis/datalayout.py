"""Data-layout and data-semantics analysis (§3.4 of the paper).

Three signals, each decided once and returned with the evidence that
proves it:

- a **persistent-data image change** (initializer edits, removed data,
  rodata changes): applying replacement code alone leaves the running
  kernel's copy stale — ``needs-hooks``.  The ``data-image`` witness is
  the exact differing byte span plus every run-kernel relocation that
  reads or writes the symbol;
- **shadow-API adoption**: the replacement code starts calling the
  shadow data-structure API the pre code never used, i.e. the patch
  depends on per-object state the running kernel does not have —
  ``needs-shadow``.  The ``shadow-api`` witness is the exact call sites
  the replacement introduces;
- an **init-only data writer**: a changed function that initializes
  persistent data but is reachable solely from the boot path.  Its
  fixed code will never run again in the live kernel, so replacing it
  cannot repair the state it wrote during boot — ``needs-hooks``.
  This is exactly the Table-1 shape: the original patch edits an
  ``*_init`` function's fill values, and only hook code can fix the
  already-initialized state.  The ``data-image`` witness is the
  instructions that reference the data plus the boot-only caller
  closure.

A **resized data section** — the closest object-level analog of adding
a field to a struct — is decided by the pointer-escape pass
(:mod:`repro.analysis.absint.escape`): whether the live object can keep
its old layout depends on whether anything holds a pointer into it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph, format_node
from repro.analysis.model import (
    EVIDENCE_DATA_IMAGE,
    EVIDENCE_SHADOW_API,
    VERDICT_NEEDS_HOOKS,
    VERDICT_NEEDS_SHADOW,
    VERDICT_SAFE,
    Evidence,
    Finding,
)
from repro.objfile import ObjectFile, SectionKind, SymbolKind

if TYPE_CHECKING:
    from repro.core.objdiff import UnitDiff

#: the shadow-structure API exported by the ksplice core module
#: (see ``repro.core.shadow.KSPLICE_CORE_SOURCE``)
SHADOW_API = (
    "ksplice_shadow_attach",
    "ksplice_shadow_detach",
    "ksplice_shadow_get",
    "ksplice_shadow_has",
    "ksplice_shadow_set",
)


def strip_data_prefix(section_name: str) -> str:
    for prefix in (".data.", ".bss.", ".rodata."):
        if section_name.startswith(prefix):
            return section_name[len(prefix):]
    return section_name


def run_kernel_references(graph: Optional[CallGraph],
                          symbol: str) -> Tuple[List[str], int]:
    """``unit:section+0xNN`` relocation sites targeting ``symbol``, and
    how many of them sit in data sections (address-taking anchors)."""
    found = graph.reloc_sites.get(symbol, []) if graph is not None else []
    sites = ["%s:%s+0x%x: %s %s"
             % (unit, section_name, offset,
                "references" if in_text else "embeds the address of",
                symbol)
             for unit, section_name, offset, in_text in found]
    return sites, sum(1 for site in found if not site[3])


def analyze_data_layout(unit_diffs: Dict[str, "UnitDiff"],
                        pre_objects: Dict[str, ObjectFile],
                        post_objects: Dict[str, ObjectFile],
                        graph: Optional[CallGraph] = None,
                        ) -> Tuple[List[Finding], List[Evidence]]:
    """Persistent-image and shadow-API findings per unit, with their
    witnesses, plus an informational note per hook-carrying unit."""
    findings: List[Finding] = []
    evidence: List[Evidence] = []
    for unit in sorted(unit_diffs):
        diff = unit_diffs[unit]
        pre = pre_objects.get(unit)
        post = post_objects.get(unit)
        for section_name in diff.persistent_data_sections():
            finding, witness = _image_change(unit, section_name, pre, post,
                                             graph)
            findings.append(finding)
            evidence.append(witness)
        for finding, witness in _shadow_api_adoption(unit, pre, post):
            findings.append(finding)
            evidence.append(witness)
        if diff.has_hooks:
            detail = "transform hooks supplied: %s" \
                % ", ".join(sorted(diff.hook_sections))
            if not (diff.has_code_changes or diff.changes_persistent_data):
                detail = "hook-only unit (no code or data changes); " + detail
            findings.append(Finding(analysis="data-layout",
                                    verdict=VERDICT_SAFE,
                                    unit=unit, detail=detail))
    return findings, evidence


def _diff_span(pre: bytes, post: bytes) -> Dict[str, int]:
    """First/last differing byte offsets between two images."""
    limit = min(len(pre), len(post))
    first = next((i for i in range(limit) if pre[i] != post[i]),
                 limit if len(pre) != len(post) else -1)
    last = -1
    for i in range(limit - 1, -1, -1):
        if pre[i] != post[i]:
            last = i
            break
    if len(pre) != len(post):
        last = max(last, max(len(pre), len(post)) - 1)
    return {"first_diff": first, "last_diff": last,
            "pre_size": len(pre), "post_size": len(post)}


def _image_change(unit: str, section_name: str,
                  pre: Optional[ObjectFile], post: Optional[ObjectFile],
                  graph: Optional[CallGraph],
                  ) -> Tuple[Finding, Evidence]:
    """One changed persistent-data section: the finding and the
    differing byte span behind it."""
    symbol = strip_data_prefix(section_name)
    if section_name.startswith(".rodata"):
        detail = ("read-only data image changed; the running "
                  "kernel's copy must be rewritten by hook code")
    else:
        detail = ("persistent data initializer changed; applying "
                  "the code alone leaves live state stale — "
                  "supply transform hook code")
    finding = Finding(analysis="data-layout", verdict=VERDICT_NEEDS_HOOKS,
                      unit=unit, symbol=symbol, detail=detail)

    pre_section = pre.sections.get(section_name) if pre is not None \
        else None
    post_section = post.sections.get(section_name) if post is not None \
        else None
    facts = _diff_span(pre_section.data if pre_section else b"",
                       post_section.data if post_section else b"")
    sites = []
    if facts["first_diff"] >= 0:
        sites.append("%s:%s bytes [0x%x..0x%x] differ between the "
                     "pre and post images"
                     % (unit, section_name, facts["first_diff"],
                        max(facts["first_diff"], facts["last_diff"])))
    run_sites, _anchors = run_kernel_references(graph, symbol)
    sites.extend(run_sites)
    facts["run_kernel_references"] = len(run_sites)
    return finding, Evidence(
        kind=EVIDENCE_DATA_IMAGE, unit=unit, symbol=symbol,
        detail="persistent image of %s differs (%d -> %d bytes); the "
               "running kernel's copy stays on the old image unless "
               "hook code rewrites it" % (symbol, facts["pre_size"],
                                          facts["post_size"]),
        sites=sites, facts=facts)


def _shadow_api_adoption(unit: str, pre: Optional[ObjectFile],
                         post: Optional[ObjectFile],
                         ) -> List[Tuple[Finding, Evidence]]:
    """Each ``ksplice_shadow_*`` symbol the replacement newly
    references, with its call sites."""
    if post is None:
        return []
    pre_refs: Set[str] = set(pre.referenced_symbol_names()) \
        if pre is not None else set()
    adopted = sorted((set(post.referenced_symbol_names()) - pre_refs)
                     & set(SHADOW_API))
    out: List[Tuple[Finding, Evidence]] = []
    for api in adopted:
        sites: List[str] = []
        for section in post.text_sections():
            fn = section.name[len(".text."):] \
                if section.name.startswith(".text.") else section.name
            for reloc in section.sorted_relocations():
                if reloc.symbol == api:
                    sites.append("%s:%s+0x%x: call %s"
                                 % (unit, fn, reloc.offset, api))
        out.append((
            Finding(analysis="data-layout", verdict=VERDICT_NEEDS_SHADOW,
                    unit=unit, symbol=api,
                    detail="replacement code adopts the shadow data API "
                           "(%s): it depends on per-object state the "
                           "running kernel does not carry" % api),
            Evidence(kind=EVIDENCE_SHADOW_API, unit=unit, symbol=api,
                     detail="replacement code calls %s at %d site(s): it "
                            "depends on per-object shadow state the "
                            "running kernel does not carry"
                            % (api, len(sites)),
                     sites=sites, facts={"call_sites": len(sites)})))
    return out


def analyze_init_only_writers(graph: CallGraph,
                              unit_diffs: Dict[str, "UnitDiff"],
                              pre_objects: Dict[str, ObjectFile],
                              post_objects: Dict[str, ObjectFile],
                              ) -> Tuple[List[Finding], List[Evidence]]:
    """Changed functions that write persistent data but only run at
    boot, each with the referencing instructions and its boot-only
    caller closure."""
    findings: List[Finding] = []
    evidence: List[Evidence] = []
    for unit in sorted(unit_diffs):
        pre = pre_objects.get(unit)
        post = post_objects.get(unit)
        for fn in sorted(unit_diffs[unit].changed_functions):
            node = graph.node_for(unit, fn)
            if node is None or not graph.is_init_only(node):
                continue
            section = post.sections.get(".text.%s" % fn) \
                if post is not None else None
            if section is None:
                continue
            sites: List[str] = []
            data_refs: Set[str] = set()
            for reloc in section.sorted_relocations():
                if _is_persistent_data(post, pre, reloc.symbol):
                    data_refs.add(reloc.symbol)
                    sites.append("%s:%s+0x%x: references persistent "
                                 "data %s" % (unit, fn, reloc.offset,
                                              reloc.symbol))
            if not data_refs:
                continue
            names = ", ".join(sorted(data_refs))
            findings.append(Finding(
                analysis="data-layout",
                verdict=VERDICT_NEEDS_HOOKS,
                unit=unit, symbol=fn,
                detail="changed function initializes persistent data "
                       "(%s) but is reachable only from the boot path; "
                       "the live kernel will never re-run it — supply "
                       "hook code to fix the already-initialized state"
                       % names))
            evidence.append(Evidence(
                kind=EVIDENCE_DATA_IMAGE, unit=unit, symbol=fn,
                detail="changed function initializes %s but every call "
                       "chain starts at a boot entry point; its fixed "
                       "code will never re-run, so only hook code can "
                       "repair the already-initialized state" % names,
                sites=sites,
                facts={"data_symbols": sorted(data_refs),
                       "boot_only": True,
                       "caller_closure": sorted(
                           format_node(n)
                           for n in graph.caller_closure([node]))}))
    return findings, evidence


def _is_persistent_data(post: Optional[ObjectFile],
                        pre: Optional[ObjectFile], name: str) -> bool:
    """Is ``name`` a data object defined in a data, bss or rodata
    section (post definition first, pre as fallback)?"""
    for obj in (post, pre):
        if obj is None:
            continue
        symbol = obj.find_symbol(name)
        if symbol is None or not symbol.is_defined:
            continue
        if symbol.kind is not SymbolKind.OBJECT:
            return False
        defining = obj.sections.get(symbol.section or "")
        return defining is not None and defining.kind in (
            SectionKind.DATA, SectionKind.BSS, SectionKind.RODATA)
    return False
