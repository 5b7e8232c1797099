"""Trace: a tree of stage reports for one lifecycle run.

One :class:`Trace` covers one logical operation — one CVE evaluation,
one ksplice-create, one apply — and owns a tree of
:class:`~repro.pipeline.stage.StageReport` nodes.  Stages nest by
lexical scope: ``trace.stage(...)`` inside an open stage attaches the
new report as a child, so ``core.apply(pack, trace=trace)`` called
inside the harness's ``apply`` stage lands its load/run-pre/
stop_machine reports under that stage automatically.

Traces are plain dataclasses: picklable (they ride back from worker
processes inside each ``CveResult``) and JSON-serializable (the CLI
``trace`` view reads the last run back from disk).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.pipeline.stage import FAILED, SKIPPED, Stage, StageReport


@dataclass
class Trace:
    """A labelled tree of stage reports."""

    label: str = ""
    root: StageReport = field(
        default_factory=lambda: StageReport(name="<root>"))
    #: open-stage stack; bookkeeping only — excluded from equality so a
    #: finished trace compares by structure, and empty once every stage
    #: has exited.
    _stack: List[StageReport] = field(default_factory=list, compare=False,
                                      repr=False)

    # -- recording ----------------------------------------------------------

    def stage(self, name: str) -> Stage:
        """A context manager for one named stage (nests by scope)."""
        return Stage(self, name)

    def skip(self, name: str, reason: str = "") -> StageReport:
        """Record a stage that deliberately did not run."""
        report = StageReport(name=name, outcome=SKIPPED, error=reason)
        self.current.children.append(report)
        return report

    # -- reading ------------------------------------------------------------

    @property
    def current(self) -> StageReport:
        """The innermost open stage's report (the root when none is)."""
        return self._stack[-1] if self._stack else self.root

    @property
    def reports(self) -> List[StageReport]:
        """The top-level stage reports, in execution order."""
        return self.root.children

    def find(self, path: str) -> Optional[StageReport]:
        """Look a report up by slash path, e.g. ``"apply/stop_machine"``."""
        node: Optional[StageReport] = self.root
        for part in path.split("/"):
            node = node.child(part) if node is not None else None
            if node is None:
                return None
        return node

    def stage_ms(self, name: str) -> float:
        report = self.find(name)
        return report.wall_ms if report is not None else 0.0

    def walk(self) -> Iterator[Tuple[str, StageReport]]:
        """``(path, report)`` for every report, depth-first."""
        for child in self.root.children:
            yield from child.walk()

    def failed_stage(self) -> str:
        """The deepest failed stage path, or ``""`` if everything passed."""
        deepest = ""
        for path, report in self.walk():
            if report.outcome == FAILED and path.count("/") >= \
                    deepest.count("/"):
                deepest = path
        return deepest

    def stage_totals(self) -> Dict[str, float]:
        """Top-level stage name → wall milliseconds."""
        totals: Dict[str, float] = {}
        for report in self.reports:
            totals[report.name] = totals.get(report.name, 0.0) \
                + report.wall_ms
        return totals

    # -- serialization ------------------------------------------------------

    def __getstate__(self) -> Dict[str, object]:
        """Pickle only the finished tree, never the open-stage stack.

        Traces cross process *and host* boundaries (the distributed
        fabric streams each ``CveResult`` — trace attached — back over
        TCP the moment it exists).  The stack is in-process
        bookkeeping: it is empty once every stage has exited, and
        shipping it would only bloat the frame and invite confusion on
        the receiving side.
        """
        return {"label": self.label, "root": self.root}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.label = state["label"]  # type: ignore[assignment]
        self.root = state["root"]  # type: ignore[assignment]
        self._stack = []

    def to_dict(self) -> Dict[str, object]:
        return {"label": self.label, "root": self.root.to_dict()}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Trace":
        return cls(label=str(data.get("label", "")),
                   root=StageReport.from_dict(
                       data.get("root", {"name": "<root>"})))  # type: ignore

    def render(self) -> str:
        lines = [self.label or "<trace>"]
        for report in self.reports:
            lines.extend(report.render(indent=1))
        return "\n".join(lines)
