"""Sections: named byte containers with relocations."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List

from repro.objfile.relocation import Relocation


class SectionKind(enum.Enum):
    TEXT = "text"
    DATA = "data"
    RODATA = "rodata"
    BSS = "bss"
    KSPLICE = "ksplice"  # hook function-pointer tables

    @property
    def is_code(self) -> bool:
        return self is SectionKind.TEXT


def kind_for_name(name: str) -> SectionKind:
    """Infer the section kind from an ELF-style section name."""
    if name == ".text" or name.startswith(".text."):
        return SectionKind.TEXT
    if name == ".rodata" or name.startswith(".rodata."):
        return SectionKind.RODATA
    if name == ".bss" or name.startswith(".bss."):
        return SectionKind.BSS
    if name.startswith(".ksplice"):
        return SectionKind.KSPLICE
    return SectionKind.DATA


@dataclass
class Section:
    """One named section.

    ``data`` is the section image (for BSS, zeros of the right length —
    keeping the bytes explicit keeps differencing uniform).  ``relocations``
    are sorted by offset on demand, not by construction.
    """

    name: str
    kind: SectionKind
    data: bytes = b""
    alignment: int = 1
    relocations: List[Relocation] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.data)

    def sorted_relocations(self) -> List[Relocation]:
        return sorted(self.relocations, key=lambda r: r.offset)

    def has_relocation_at(self, offset: int) -> bool:
        return any(reloc.offset == offset for reloc in self.relocations)

    def copy(self) -> "Section":
        return Section(
            name=self.name,
            kind=self.kind,
            data=bytes(self.data),
            alignment=self.alignment,
            relocations=[r.copy() for r in self.relocations],
        )
