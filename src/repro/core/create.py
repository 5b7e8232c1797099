"""ksplice-create: turn a source patch into an update pack (§3, §5).

Pipeline (Figure 1 of the paper), run as explicit named stages (see
:mod:`repro.pipeline`) — ``patch``, ``build-pre``, ``build-post``,
``diff``, ``analyze`` — each emitting a stage report into the caller's
trace:

1. apply the patch to a copy of the tree;
2. build the touched units twice — original source (*pre*) and patched
   source (*post*) — with function/data sections enabled;
3. diff pre vs post object code per unit;
4. refuse (``DataSemanticsError``) if the patch changes the
   initialization image of persistent data and supplies no hook code;
5. run the static safety analyzer (:mod:`repro.analysis`) over the
   diffs and, when the caller supplies ``run_build``, the running
   kernel's build — its verdict lands on ``CreateReport.analysis``;
6. extract primaries, package helpers, emit the update pack.

Any abort carries a ``stage_context`` naming the stage (and, in the
diff stage, the unit) that rejected the patch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.analysis import AnalysisReport, analyze_update
from repro.compiler import CompilerOptions
from repro.core.extract import build_helper_object, build_primary_object
from repro.core.objdiff import UnitDiff, diff_objects
from repro.core.update import UnitUpdate, UpdatePack, update_id_for
from repro.errors import DataSemanticsError, KspliceCreateError
from repro.kbuild import BuildResult, SourceTree, build_units
from repro.objfile import ObjectFile
from repro.patch import Patch, count_patch_lines, parse_patch
from repro.pipeline import Trace


@dataclass
class CreateReport:
    """Diagnostics from one ksplice-create run."""

    unit_diffs: Dict[str, UnitDiff] = field(default_factory=dict)
    changed_units: List[str] = field(default_factory=list)
    #: the static safety analyzer's combined report (``analyze`` stage)
    analysis: Optional[AnalysisReport] = None


def ksplice_create(tree: SourceTree, patch: Union[Patch, str],
                   options: Optional[CompilerOptions] = None,
                   description: str = "",
                   allow_data_changes: bool = False,
                   report: Optional[CreateReport] = None,
                   run_build: Optional[BuildResult] = None,
                   trace: Optional[Trace] = None) -> UpdatePack:
    """Construct an update pack from ``tree`` and a unified diff.

    ``options`` must describe how the *running* kernel was compiled
    (compiler version, optimization level); the pre/post builds derive
    their function-sections flavour from it.  ``allow_data_changes``
    overrides the data-semantics refusal for callers who know the hook
    code handles the transition some other way.  ``run_build`` is the
    running kernel's build, when the caller has it: the static analyzer
    then gets a whole-kernel call graph for its reachability and
    quiescence analyses instead of judging from the patched units
    alone.  ``trace`` receives one stage report per pipeline step; pass
    the enclosing operation's trace to nest them under its current
    stage.
    """
    trace = trace if trace is not None else Trace(label="ksplice-create")
    options = options or CompilerOptions()
    flavor = options.pre_post_flavor()

    with trace.stage("patch") as rep:
        patch_text = patch if isinstance(patch, str) else None
        parsed = parse_patch(patch) if isinstance(patch, str) else patch
        if not parsed.files:
            raise KspliceCreateError("patch is empty")
        post_tree = tree.patched(parsed)
        changed = tree.changed_units(post_tree)
        rep.counters["files"] = len(parsed.files)
        rep.counters["changed_units"] = len(changed)
        if not changed:
            raise KspliceCreateError(
                "patch does not change any compilation unit")

    with trace.stage("build-pre") as rep:
        pre_units = [u for u in changed if u in tree.files]
        rep.counters["units"] = len(pre_units)
        pre_build = build_units(tree, pre_units, flavor)
    with trace.stage("build-post") as rep:
        post_units = [u for u in changed if u in post_tree.files]
        rep.counters["units"] = len(post_units)
        post_build = build_units(post_tree, post_units, flavor)

    pack = UpdatePack(
        update_id=update_id_for(patch_text or _stable_patch_key(parsed),
                                tree.version),
        kernel_version=tree.version,
        description=description,
        patch_lines=count_patch_lines(parsed),
    )

    diffs: Dict[str, UnitDiff] = {}
    pre_objects: Dict[str, ObjectFile] = {}
    post_objects: Dict[str, ObjectFile] = {}
    with trace.stage("diff") as rep:
        for unit in changed:
            rep.artifacts["unit"] = unit
            if unit not in post_tree.files:
                raise KspliceCreateError(
                    "patch deletes unit %s; removing compiled code from a "
                    "running kernel is not supported" % unit)
            post_obj = post_build.object_for(unit)
            if unit not in tree.files:
                # Entirely new unit: nothing to replace, everything is new.
                pre_obj = type(post_obj)(name=unit)
            else:
                pre_obj = pre_build.object_for(unit)
            diff = diff_objects(pre_obj, post_obj)
            diffs[unit] = diff
            pre_objects[unit] = pre_obj
            post_objects[unit] = post_obj
            if report is not None:
                report.unit_diffs[unit] = diff
            refusal = data_semantics_refusal(unit, diff)
            if refusal and not allow_data_changes:
                raise DataSemanticsError(refusal)
            if not (diff.has_code_changes or diff.has_hooks
                    or diff.changes_persistent_data):
                continue  # extraneous-only differences: nothing to ship
            rep.count("changed_functions", len(diff.changed_functions))
            rep.count("units_shipped")
            pack.units.append(UnitUpdate(
                unit=unit,
                helper=build_helper_object(pre_obj),
                primary=build_primary_object(post_obj, diff),
                changed_functions=list(diff.changed_functions),
                new_functions=list(diff.new_functions),
                changed_data=list(diff.changed_data),
                new_data=list(diff.new_data),
                hook_sections=list(diff.hook_sections),
            ))
        if report is not None:
            report.changed_units = changed
        if not pack.units:
            raise KspliceCreateError(
                "patch produced no object-code changes to ship")

    with trace.stage("analyze") as rep:
        analysis = analyze_update(pack, diffs, pre_objects, post_objects,
                                  run_build=run_build, trace=trace)
        rep.counters["findings"] = len(analysis.findings)
        rep.counters["evidence"] = len(analysis.evidence)
        rep.artifacts["verdict"] = analysis.verdict
        rep.artifacts["proven"] = "yes" if analysis.is_proven() else "no"
        if report is not None:
            report.analysis = analysis
    return pack


def data_semantics_refusal(unit: str, diff: UnitDiff) -> str:
    """Why shipping ``diff`` would leave running state stale, or "".

    A patch that changes the initialization image of persistent data
    only changes what a *fresh boot* would see; the running kernel
    keeps its old values unless the update carries hook code to
    transform them.  ``ksplice_create`` raises this text as a
    :class:`DataSemanticsError` unless ``allow_data_changes`` is set,
    and memoised packs record it so a later shipper refuses alike.
    """
    if diff.changes_persistent_data and not diff.has_hooks:
        return ("unit %s: patch changes persistent data (%s); supply "
                "ksplice hook code to transform existing state"
                % (unit, ", ".join(diff.changed_data + diff.removed_data)))
    return ""


def _stable_patch_key(parsed: Patch) -> str:
    lines: List[str] = []
    for fp in parsed.files:
        lines.append("%s->%s" % (fp.old_path, fp.new_path))
        for hunk in fp.hunks:
            lines.append(hunk.header())
            lines.extend(hunk.lines)
    return "\n".join(lines)
