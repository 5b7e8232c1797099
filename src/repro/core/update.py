"""Update packs: what ``ksplice-create`` writes and ``ksplice-apply`` reads.

A pack carries one :class:`UnitUpdate` per patched compilation unit, each
holding the unit's helper (pre) object, primary (replacement) object, and
the diff summary.  Packs serialize to a single JSON document with
hex-encoded KELF payloads — the moral equivalent of the paper's
``ksplice-xxxxxx.tar.gz``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import List

from repro.errors import KspliceError
from repro.objfile import ObjectFile, dump_object, load_object

PACK_FORMAT_VERSION = 1


@dataclass
class UnitUpdate:
    """Helper + primary + diff for one compilation unit."""

    unit: str
    helper: ObjectFile
    primary: ObjectFile
    changed_functions: List[str] = field(default_factory=list)
    new_functions: List[str] = field(default_factory=list)
    changed_data: List[str] = field(default_factory=list)
    new_data: List[str] = field(default_factory=list)
    hook_sections: List[str] = field(default_factory=list)


@dataclass
class UpdatePack:
    """One hot update, ready to apply."""

    update_id: str
    kernel_version: str
    description: str = ""
    units: List[UnitUpdate] = field(default_factory=list)
    #: patch statistics recorded at create time (for reporting)
    patch_lines: int = 0

    def all_changed_functions(self) -> List[str]:
        out: List[str] = []
        for uu in self.units:
            out.extend(uu.changed_functions)
        return out

    def has_hooks(self) -> bool:
        return any(uu.hook_sections for uu in self.units)

    # -- serialization --------------------------------------------------------

    def to_bytes(self) -> bytes:
        document = {
            "format": PACK_FORMAT_VERSION,
            "update_id": self.update_id,
            "kernel_version": self.kernel_version,
            "description": self.description,
            "patch_lines": self.patch_lines,
            "units": [
                {
                    "unit": uu.unit,
                    "helper": dump_object(uu.helper).hex(),
                    "primary": dump_object(uu.primary).hex(),
                    "changed_functions": uu.changed_functions,
                    "new_functions": uu.new_functions,
                    "changed_data": uu.changed_data,
                    "new_data": uu.new_data,
                    "hook_sections": uu.hook_sections,
                }
                for uu in self.units
            ],
        }
        return json.dumps(document, indent=1).encode("utf-8")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "UpdatePack":
        try:
            document = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise KspliceError("malformed update pack: %s" % exc) from None
        if document.get("format") != PACK_FORMAT_VERSION:
            raise KspliceError("unsupported update pack format %r"
                               % document.get("format"))
        pack = cls(update_id=document["update_id"],
                   kernel_version=document["kernel_version"],
                   description=document.get("description", ""),
                   patch_lines=document.get("patch_lines", 0))
        for entry in document["units"]:
            pack.units.append(UnitUpdate(
                unit=entry["unit"],
                helper=load_object(bytes.fromhex(entry["helper"])),
                primary=load_object(bytes.fromhex(entry["primary"])),
                changed_functions=list(entry["changed_functions"]),
                new_functions=list(entry["new_functions"]),
                changed_data=list(entry["changed_data"]),
                new_data=list(entry["new_data"]),
                hook_sections=list(entry["hook_sections"]),
            ))
        return pack


def update_id_for(patch_text: str, kernel_version: str) -> str:
    """Deterministic ksplice-style id, e.g. ``ksplice-8c4o6u``."""
    digest = hashlib.sha256(
        (kernel_version + "\0" + patch_text).encode("utf-8")).digest()
    alphabet = "0123456789abcdefghijklmnopqrstuvwxyz"
    value = int.from_bytes(digest[:8], "big")
    chars = []
    for _ in range(6):
        value, idx = divmod(value, len(alphabet))
        chars.append(alphabet[idx])
    return "ksplice-" + "".join(chars)
