"""ksplice-apply / ksplice-undo: the Ksplice core "kernel module" (§5).

Apply pipeline:

1. load each unit's **helper** module (whole pre object) — never executed,
   so its relocations stay unapplied;
2. **run-pre match** every helper against the running kernel; any
   mismatch aborts with nothing modified;
3. load each **primary** module, resolving its relocations from the
   trusted run-pre symbol values (then the ksplice core's own exports,
   then unambiguous kallsyms entries);
4. run ``ksplice_pre_apply`` hooks;
5. under **stop_machine**: run the **stack check** over every thread's
   instruction pointer and stack words; on success write a 5-byte jump at
   each obsolete function's entry and run ``ksplice_apply`` hooks; on
   failure release the machine, let it run briefly, and retry (bounded);
6. run ``ksplice_post_apply`` hooks, unload helpers, record the update.

Undo reverses the jumps under the same stop_machine/stack-check regime
(now checking the *replacement* code for quiescence) and runs the three
reverse hook phases.  Updates stack (§5.4): a later update's run-pre
matching is pointed at the current replacement code of any function that
was already replaced.

Both apply and undo run as explicit named stages (see
:mod:`repro.pipeline`): apply emits ``load-helpers`` → ``run-pre`` →
``load-primaries`` → ``plan`` → ``pre-hooks`` → ``stop_machine`` (one
``stack-check`` child per attempt) → ``post-hooks``; undo emits the
same ``stop_machine``/``stack-check`` reports around its ``plan``,
hook, and ``unload`` stages.  Every abort carries a ``stage_context``
naming the stage, unit/function, and retry count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.arch.info import DEFAULT_ARCH, ArchInfo
from repro.core.hooks import run_hooks
from repro.core.runpre import RunPreMatcher, RunPreResult
from repro.core.shadow import ShadowRegistry, load_ksplice_core_module
from repro.core.update import UpdatePack
from repro.errors import (
    KspliceError,
    StackCheckError,
    SymbolResolutionError,
    UpdateStateError,
)
from repro.kernel.machine import Machine
from repro.kernel.modules import LoadedModule
from repro.kernel.stop_machine import STACK_CHECK_RETRIES, StopMachineReport
from repro.kernel.threads import Thread
from repro.pipeline import FAILED, StageReport, Trace

#: default redirection-jump size (k86); the core takes it from ArchInfo
JUMP_SIZE = DEFAULT_ARCH.jump_size


@dataclass
class ReplacedFunction:
    """One installed redirection."""

    unit: str
    name: str
    old_address: int
    new_address: int
    run_size: int
    saved_bytes: bytes


@dataclass
class AppliedUpdate:
    """Book-keeping for one live update."""

    pack: UpdatePack
    primaries: Dict[str, LoadedModule] = field(default_factory=dict)
    replaced: List[ReplacedFunction] = field(default_factory=list)
    runpre_results: Dict[str, RunPreResult] = field(default_factory=dict)
    helper_bytes: int = 0
    primary_bytes: int = 0
    stop_report: Optional[StopMachineReport] = None
    stack_check_attempts: int = 0
    reversed: bool = False
    #: stage reports for the apply run, and (after undo) the undo run
    trace: Optional[Trace] = None
    undo_trace: Optional[Trace] = None

    @property
    def update_id(self) -> str:
        return self.pack.update_id


class KspliceCore:
    """Kernel-resident update manager for one machine."""

    def __init__(self, machine: Machine,
                 stack_check_retries: int = STACK_CHECK_RETRIES,
                 retry_run_instructions: int = 5_000,
                 arch: ArchInfo = DEFAULT_ARCH):
        self.machine = machine
        self.arch = arch
        self.stack_check_retries = stack_check_retries
        self.retry_run_instructions = retry_run_instructions
        self.applied: List[AppliedUpdate] = []
        # (unit, fn) -> stack of installed replacements, newest last
        self._replaced_stacks: Dict[Tuple[str, str],
                                    List[ReplacedFunction]] = {}
        self.core_module = load_ksplice_core_module(machine)
        self.shadow = ShadowRegistry(machine, self.core_module)

    # -- symbol resolution ----------------------------------------------------

    def _candidate_override(self, unit: str,
                            name: str) -> Optional[List[int]]:
        stack = self._replaced_stacks.get((unit, name))
        if stack:
            return [stack[-1].new_address]
        return None

    def _primary_resolver(self, solved: Dict[str, int],
                          update_exports: Dict[str, int]):
        """Resolution order for replacement-code relocations:

        1. the module's own definitions (handled by the loader),
        2. trusted run-pre values for this unit,
        3. symbols defined by the *other* primary modules of this same
           update (multi-unit patches: unit A's replacement code may
           call a function the patch added to unit B),
        4. the ksplice core module's exports (shadow helpers),
        5. unambiguous kallsyms entries.
        """
        def resolve(name: str) -> int:
            if name in solved:
                return solved[name]
            if name in update_exports:
                return update_exports[name]
            if name in self.core_module.symbol_addresses:
                return self.core_module.symbol_addresses[name]
            return self.machine.image.kallsyms.unique_address(name)
        return resolve

    # -- apply -------------------------------------------------------------------

    def apply(self, pack: UpdatePack,
              trace: Optional[Trace] = None) -> AppliedUpdate:
        """Apply an update pack; raises (leaving the kernel untouched, or
        restored) on any of the paper's three failure classes.

        ``trace`` receives one stage report per pipeline step (pass the
        enclosing operation's trace to nest them); without one, the
        reports land on ``applied.trace``.
        """
        if not pack.units:
            raise KspliceError("update %s has no units: it replaces "
                               "nothing, so it is not applied"
                               % pack.update_id)
        if pack.update_id in {a.update_id for a in self.applied}:
            raise UpdateStateError(
                "update %s is already applied" % pack.update_id)
        trace = trace if trace is not None else Trace(
            label="apply %s" % pack.update_id)
        applied = AppliedUpdate(pack=pack, trace=trace)
        helpers: List[LoadedModule] = []
        try:
            matcher = RunPreMatcher(
                memory=self.machine.memory,
                kallsyms=self.machine.image.kallsyms,
                candidate_override=self._candidate_override,
                arch=self.arch)
            with trace.stage("load-helpers") as rep:
                for uu in pack.units:
                    rep.artifacts["unit"] = uu.unit
                    helper = self.machine.loader.load(
                        uu.helper, resolver=lambda name: 0,
                        defer_relocations_for=list(uu.helper.sections))
                    helpers.append(helper)
                    applied.helper_bytes += helper.size
                rep.counters["units"] = len(pack.units)
                rep.counters["helper_bytes"] = applied.helper_bytes

            with trace.stage("run-pre") as rep:
                for uu in pack.units:
                    rep.artifacts["unit"] = uu.unit
                    result = matcher.match_unit(uu.helper)
                    applied.runpre_results[uu.unit] = result
                    rep.count("functions", len(result.matched_functions))
                    rep.count("symbols", len(result.symbol_values))

            # Two-phase primary loading: place every unit's replacement
            # code first (relocations deferred), collect the update-wide
            # exports, then relocate — so units of one update can
            # reference each other's new code, as they could if all post
            # code were linked into a single module.
            from repro.objfile import SymbolBinding

            with trace.stage("load-primaries") as rep:
                for uu in pack.units:
                    rep.artifacts["unit"] = uu.unit
                    primary = self.machine.loader.load(
                        uu.primary, resolver=lambda name: 0,
                        defer_relocations_for=list(uu.primary.sections))
                    applied.primaries[uu.unit] = primary
                    applied.primary_bytes += primary.size
                update_exports: Dict[str, int] = {}
                for uu in pack.units:
                    primary = applied.primaries[uu.unit]
                    for symbol in uu.primary.defined_symbols():
                        if symbol.binding is SymbolBinding.GLOBAL:
                            update_exports.setdefault(
                                symbol.name, primary.symbol_addresses[
                                    symbol.name])
                for uu in pack.units:
                    rep.artifacts["unit"] = uu.unit
                    primary = applied.primaries[uu.unit]
                    solved = applied.runpre_results[uu.unit].symbol_values
                    resolver = self._primary_resolver(solved,
                                                      update_exports)
                    for section_name in uu.primary.sections:
                        self.machine.loader.apply_deferred_relocations(
                            primary, section_name, resolver)
                rep.counters["units"] = len(pack.units)
                rep.counters["primary_bytes"] = applied.primary_bytes

            with trace.stage("plan") as rep:
                self._plan_replacements(pack, applied, rep)
                rep.counters["replacements"] = len(applied.replaced)
            with trace.stage("pre-hooks"):
                run_hooks(self.machine, list(applied.primaries.values()),
                          ".ksplice_pre_apply")
            self._install_with_stop_machine(applied, trace)
            with trace.stage("post-hooks"):
                run_hooks(self.machine, list(applied.primaries.values()),
                          ".ksplice_post_apply")
        except Exception:
            self._unload_modules(list(applied.primaries.values()))
            self._unload_modules(helpers)
            raise
        self._unload_modules(helpers)  # §5.1: helpers freed after matching

        for replaced in applied.replaced:
            key = (replaced.unit, replaced.name)
            self._replaced_stacks.setdefault(key, []).append(replaced)
        self.applied.append(applied)
        return applied

    def _plan_replacements(self, pack: UpdatePack, applied: AppliedUpdate,
                           rep: Optional[StageReport] = None) -> None:
        for uu in pack.units:
            result = applied.runpre_results[uu.unit]
            primary = applied.primaries[uu.unit]
            for fn_name in uu.changed_functions:
                if rep is not None:
                    rep.artifacts["unit"] = uu.unit
                    rep.artifacts["function"] = fn_name
                old = result.matched_functions.get(fn_name)
                if old is None:
                    raise SymbolResolutionError(
                        "no run address for replaced function %r" % fn_name)
                new = primary.symbol_address(fn_name)
                run_size = self._run_extent(old, uu, fn_name)
                if run_size < self.arch.jump_size:
                    raise KspliceError(
                        "function %r is only %d bytes; cannot hold the "
                        "redirection jump" % (fn_name, run_size))
                applied.replaced.append(ReplacedFunction(
                    unit=uu.unit, name=fn_name, old_address=old,
                    new_address=new, run_size=run_size,
                    saved_bytes=self.machine.read_bytes(
                        old, self.arch.jump_size)))

    def _run_extent(self, old_address: int, uu, fn_name: str) -> int:
        entry = self.machine.image.kallsyms.symbol_at(old_address)
        if entry is not None and entry.address == old_address \
                and entry.size > 0:
            return entry.size
        helper_symbol = uu.helper.find_symbol(fn_name)
        if helper_symbol is not None and helper_symbol.size > 0:
            return helper_symbol.size
        return self.arch.jump_size

    def _install_with_stop_machine(self, applied: AppliedUpdate,
                                   trace: Trace) -> None:
        ranges = [(r.old_address, r.old_address + r.run_size, r.name)
                  for r in applied.replaced]

        def attempt(check: StageReport) -> bool:
            if not self._stack_check_passes(ranges, check):
                return False
            for replaced in applied.replaced:
                self._write_jump(replaced.old_address, replaced.new_address)
            try:
                run_hooks(self.machine, list(applied.primaries.values()),
                          ".ksplice_apply")
            except Exception:
                for replaced in applied.replaced:  # roll the jumps back
                    self.machine.memory.write_bytes(
                        replaced.old_address, replaced.saved_bytes)
                raise
            check.counters["installed"] = len(applied.replaced)
            return True

        self._stop_machine_with_retries(
            applied, attempt, "update %s" % applied.update_id, trace)

    def _stop_machine_with_retries(self, applied: AppliedUpdate, attempt,
                                   what: str, trace: Trace) -> None:
        """Shared by apply and undo, so both emit identical
        ``stop_machine``/``stack-check`` stage reports."""
        with trace.stage("stop_machine") as rep:
            rep.artifacts["what"] = what
            for try_number in range(self.stack_check_retries):
                applied.stack_check_attempts = try_number + 1
                rep.counters["attempts"] = try_number + 1
                with trace.stage("stack-check") as check:
                    done = self.machine.stop_machine.run(
                        lambda: attempt(check))
                if done:
                    applied.stop_report = \
                        self.machine.stop_machine.last_report
                    return
                # Give threads a chance to leave the affected functions.
                self.machine.run(self.retry_run_instructions)
            # Exhausted: surface the last offender on the parent report
            # so the StackCheckError's stage context names it.
            if rep.children:
                for key in ("function", "thread", "unit"):
                    value = rep.children[-1].artifacts.get(key)
                    if value:
                        rep.artifacts[key] = value
            raise StackCheckError(
                "%s: a thread stayed inside an affected function across %d "
                "stop_machine attempts" % (what, self.stack_check_retries))

    # -- the stack check (§5.2) -----------------------------------------------

    def _stack_check_passes(self, ranges: List[Tuple[int, int, str]],
                            check: StageReport) -> bool:
        """Run the stack check, recording the offender (if any) on the
        attempt's stage report."""
        offender = self._stack_check(ranges)
        if offender is None:
            return True
        thread, address, fn_name = offender
        check.outcome = FAILED
        check.error = "thread %s holds an address inside %s" \
            % (thread.name, fn_name)
        check.artifacts["thread"] = thread.name
        check.artifacts["function"] = fn_name
        check.artifacts["address"] = "0x%08x" % address
        return False

    def _stack_check(self, ranges: List[Tuple[int, int, str]],
                     ) -> Optional[Tuple[Thread, int, str]]:
        """None if safe, else ``(thread, address, function)`` for the
        offending thread.

        Conservative: any stack word that *looks like* an address inside
        an affected function counts, exactly like a conservative return-
        address scan.
        """
        for thread in self.machine.scheduler.threads:
            if not thread.alive:
                continue
            ip = thread.cpu.ip
            for lo, hi, label in ranges:
                if lo <= ip < hi:
                    return thread, ip, label
            for word_addr in thread.live_stack_words():
                value = self.machine.read_u32(word_addr)
                for lo, hi, label in ranges:
                    if lo <= value < hi:
                        return thread, value, label
        return None

    def _write_jump(self, old_address: int, new_address: int) -> None:
        encoded = self.arch.encode_jump(old_address, new_address)
        assert len(encoded) == self.arch.jump_size
        self.machine.memory.write_bytes(old_address, encoded)

    # -- undo ---------------------------------------------------------------------

    def undo(self, update_id: str,
             trace: Optional[Trace] = None) -> AppliedUpdate:
        """Reverse an applied update (ksplice-undo).

        Emits the same stage reports as :meth:`apply` — ``plan``,
        hooks, ``stop_machine`` with per-attempt ``stack-check``
        children — so an undo is as visible to tracing as the apply
        that preceded it.
        """
        applied = self._find_applied(update_id)
        trace = trace if trace is not None else Trace(
            label="undo %s" % update_id)
        applied.undo_trace = trace
        with trace.stage("plan") as rep:
            rep.counters["replacements"] = len(applied.replaced)
            for replaced in applied.replaced:
                rep.artifacts["unit"] = replaced.unit
                rep.artifacts["function"] = replaced.name
                stack = self._replaced_stacks.get(
                    (replaced.unit, replaced.name))
                if not stack or stack[-1] is not replaced:
                    raise UpdateStateError(
                        "cannot undo %s: function %s was re-patched by a "
                        "later update" % (update_id, replaced.name))

        primaries = list(applied.primaries.values())
        with trace.stage("pre-hooks"):
            run_hooks(self.machine, primaries, ".ksplice_pre_reverse")
        ranges = [(r.new_address, r.new_address + r.run_size, r.name)
                  for r in applied.replaced]

        def attempt(check: StageReport) -> bool:
            if not self._stack_check_passes(ranges, check):
                return False
            for replaced in applied.replaced:
                self.machine.memory.write_bytes(replaced.old_address,
                                                replaced.saved_bytes)
            run_hooks(self.machine, primaries, ".ksplice_reverse")
            check.counters["restored"] = len(applied.replaced)
            return True

        self._stop_machine_with_retries(applied, attempt,
                                        "undo %s" % update_id, trace)
        with trace.stage("post-hooks"):
            run_hooks(self.machine, primaries, ".ksplice_post_reverse")
        with trace.stage("unload") as rep:
            rep.counters["modules"] = len(primaries)
            self._unload_modules(primaries)
            for replaced in applied.replaced:
                self._replaced_stacks[(replaced.unit, replaced.name)].pop()
            applied.reversed = True
            applied.primaries.clear()
            self.applied.remove(applied)
        return applied

    # -- misc ------------------------------------------------------------------------

    def _find_applied(self, update_id: str) -> AppliedUpdate:
        for applied in self.applied:
            if applied.update_id == update_id:
                return applied
        raise UpdateStateError("update %s is not applied" % update_id)

    def _unload_modules(self, modules: List[LoadedModule]) -> None:
        for module in modules:
            if module.loaded:
                self.machine.loader.unload(module)

    def applied_ids(self) -> List[str]:
        """Update ids in application order (oldest first).

        Reversing this list is the only undo order §5.4 permits, which
        is exactly how the fleet rollback walks it.
        """
        return [applied.update_id for applied in self.applied]

    def undo_latest(self, trace: Optional[Trace] = None,
                    ) -> Optional[AppliedUpdate]:
        """Undo the most recently applied update (always LIFO-safe);
        ``None`` when nothing is applied."""
        if not self.applied:
            return None
        return self.undo(self.applied[-1].update_id, trace=trace)

    def status(self) -> List[Dict[str, object]]:
        """Structured view of the applied updates, newest last — the
        moral equivalent of /sys/kernel/livepatch."""
        rows: List[Dict[str, object]] = []
        for applied in self.applied:
            rows.append({
                "update_id": applied.update_id,
                "description": applied.pack.description,
                "kernel_version": applied.pack.kernel_version,
                "units": [uu.unit for uu in applied.pack.units],
                "functions": [
                    {"name": r.name, "unit": r.unit,
                     "old_address": r.old_address,
                     "new_address": r.new_address}
                    for r in applied.replaced
                ],
                "primary_bytes": applied.primary_bytes,
                "stop_ms": (applied.stop_report.wall_milliseconds
                            if applied.stop_report else None),
            })
        return rows

    def render_status(self) -> str:
        """Human-readable status listing."""
        rows = self.status()
        if not rows:
            return "no ksplice updates applied"
        lines: List[str] = []
        for row in rows:
            lines.append("%s  (%s)" % (row["update_id"],
                                       row["description"] or "no description"))
            for fn in row["functions"]:
                lines.append("  %-24s %s  0x%08x -> 0x%08x"
                             % (fn["name"], fn["unit"],
                                fn["old_address"], fn["new_address"]))
        return "\n".join(lines)
