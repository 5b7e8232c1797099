"""The build driver."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.compiler import (
    CompilerOptions,
    InlineReport,
    compile_source_cached,
)
from repro.errors import BuildError
from repro.kbuild.config import KernelConfig
from repro.kbuild.source_tree import SourceTree
from repro.objfile import ObjectFile


@dataclass
class BuildResult:
    """Objects and compiler metadata from one build."""

    tree_version: str
    options: CompilerOptions
    objects: Dict[str, ObjectFile] = field(default_factory=dict)
    inline_reports: Dict[str, InlineReport] = field(default_factory=dict)

    def object_for(self, unit_path: str) -> ObjectFile:
        try:
            return self.objects[unit_path]
        except KeyError:
            raise BuildError("no object for unit %s" % unit_path) from None

    def merged_inline_report(self) -> InlineReport:
        merged = InlineReport()
        for report in self.inline_reports.values():
            merged.merge(report)
        return merged

    def function_inlined_anywhere(self, fn_name: str) -> bool:
        return any(report.was_inlined(fn_name)
                   for report in self.inline_reports.values())


def build_units(tree: SourceTree, unit_paths: Iterable[str],
                options: Optional[CompilerOptions] = None) -> BuildResult:
    """Compile only ``unit_paths`` from ``tree`` (incremental build).

    Compiles are content-addressed (``repro.compiler.cache``): a unit
    whose source and options match an earlier compile — the same base
    unit in another kernel version, an unpatched unit in a later
    ksplice-create pre build — reuses the cached object instead of
    recompiling.
    """
    options = options or CompilerOptions()
    result = BuildResult(tree_version=tree.version, options=options)
    for path in unit_paths:
        compiled = compile_source_cached(tree.read(path), path, options)
        result.objects[path] = compiled.objfile
        result.inline_reports[path] = compiled.inline_report
    return result


def build_tree(tree: SourceTree,
               options: Optional[CompilerOptions] = None,
               config: Optional[KernelConfig] = None) -> BuildResult:
    """Compile every enabled unit in ``tree``."""
    config = config or KernelConfig.default()
    units = config.filter_units(tree.source_units())
    if not units:
        raise BuildError("%s: nothing to build" % tree.version)
    return build_units(tree, units, options)
