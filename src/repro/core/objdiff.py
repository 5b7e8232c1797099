"""Pre-post differencing (§3).

Two sections are *equivalent* when their bytes are identical and their
relocation lists agree (same offsets, symbol names, types, addends).
Because the pre/post builds use function/data sections, equivalence of a
function's section means the compiler produced the same position-
independent code for it — any difference, whether from the patch text
itself or from a changed inlining/prototype decision, marks the function
as changed.  Extraneous differences are harmless (the paper: replacing a
function with a different binary representation of the same source is
safe); missing a difference is what differencing at the source level
risks and object-level differencing rules out.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List

from repro.objfile import HOOK_SECTIONS, ObjectFile, Section


class SectionStatus(enum.Enum):
    UNCHANGED = "unchanged"
    CHANGED = "changed"
    NEW = "new"
    REMOVED = "removed"


def sections_equivalent(pre: Section, post: Section) -> bool:
    """Byte and relocation-metadata equality."""
    if pre.data != post.data:
        return False
    pre_relocs = [(r.offset, r.symbol, r.type, r.addend)
                  for r in pre.sorted_relocations()]
    post_relocs = [(r.offset, r.symbol, r.type, r.addend)
                   for r in post.sorted_relocations()]
    return pre_relocs == post_relocs


def _function_name(section_name: str) -> str:
    return section_name[len(".text."):]


def _data_symbol(section_name: str) -> str:
    for prefix in (".data.", ".bss.", ".rodata."):
        if section_name.startswith(prefix):
            return section_name[len(prefix):]
    return section_name


@dataclass
class UnitDiff:
    """What changed in one compilation unit between pre and post."""

    unit: str
    section_status: Dict[str, SectionStatus] = field(default_factory=dict)
    changed_functions: List[str] = field(default_factory=list)
    new_functions: List[str] = field(default_factory=list)
    removed_functions: List[str] = field(default_factory=list)
    changed_data: List[str] = field(default_factory=list)
    new_data: List[str] = field(default_factory=list)
    removed_data: List[str] = field(default_factory=list)
    #: persistent data whose size changed — the struct-growth analog
    resized_data: List[str] = field(default_factory=list)
    hook_sections: List[str] = field(default_factory=list)

    @property
    def has_code_changes(self) -> bool:
        return bool(self.changed_functions or self.new_functions)

    @property
    def changes_persistent_data(self) -> bool:
        """True when the patch alters the initialization image or removes
        existing data — the condition that requires custom code (§2)."""
        return bool(self.changed_data or self.removed_data)

    @property
    def has_hooks(self) -> bool:
        return bool(self.hook_sections)

    def persistent_data_sections(self) -> List[str]:
        """Full names of the non-text sections whose initialization
        image the patch changes or removes (hook sections excluded)."""
        return [name for name in sorted(self.section_status)
                if self.section_status[name] in (SectionStatus.CHANGED,
                                                 SectionStatus.REMOVED)
                and not name.startswith(".text.")
                and name not in HOOK_SECTIONS]

    @property
    def rodata_only_change(self) -> bool:
        """True when every persistent-data difference is read-only data
        — no live state to transform, but the running copy still needs
        patching by hook code."""
        sections = self.persistent_data_sections()
        return bool(sections) and all(name.startswith(".rodata")
                                      for name in sections)


def diff_objects(pre: ObjectFile, post: ObjectFile) -> UnitDiff:
    """Compare the pre and post object files of one unit.

    Both objects must come from function/data-sections builds.
    """
    diff = UnitDiff(unit=post.name)
    pre_names = set(pre.sections)
    post_names = set(post.sections)

    for name in sorted(pre_names | post_names):
        pre_section = pre.sections.get(name)
        post_section = post.sections.get(name)
        if name in HOOK_SECTIONS:
            if post_section is not None:
                diff.section_status[name] = SectionStatus.NEW
                diff.hook_sections.append(name)
            continue
        if pre_section is None:
            status = SectionStatus.NEW
        elif post_section is None:
            status = SectionStatus.REMOVED
        elif sections_equivalent(pre_section, post_section):
            status = SectionStatus.UNCHANGED
        else:
            status = SectionStatus.CHANGED
        diff.section_status[name] = status
        _classify(diff, name, status)
        if (status is SectionStatus.CHANGED
                and not name.startswith(".text.")
                and pre_section is not None and post_section is not None
                and pre_section.size != post_section.size):
            diff.resized_data.append(_data_symbol(name))
    return diff


def _classify(diff: UnitDiff, name: str, status: SectionStatus) -> None:
    if status is SectionStatus.UNCHANGED:
        return
    if name.startswith(".text."):
        fn = _function_name(name)
        if status is SectionStatus.CHANGED:
            diff.changed_functions.append(fn)
        elif status is SectionStatus.NEW:
            diff.new_functions.append(fn)
        else:
            diff.removed_functions.append(fn)
        return
    symbol = _data_symbol(name)
    if status is SectionStatus.CHANGED:
        diff.changed_data.append(symbol)
    elif status is SectionStatus.NEW:
        diff.new_data.append(symbol)
    else:
        diff.removed_data.append(symbol)
