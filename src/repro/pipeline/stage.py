"""Stages and stage reports: the explicit update-lifecycle pipeline.

The paper's end-to-end flow — pre/post build, object diff, pack
creation, module load, run-pre matching, stop_machine + stack check
(§3–§4) — used to exist only as implicit call chains.  This module
makes each step an explicit, named **stage** that emits a
:class:`StageReport` (outcome, wall time, counters, artifacts) into a
:class:`~repro.pipeline.trace.Trace` tree, so a failed or slow run
reports a *stage*, not a total.

A :class:`Stage` is a context manager.  Entering appends a fresh report
under the trace's current stage (stages nest by lexical scope);
exiting records the wall time and, if an exception crossed the
boundary, marks the report failed and attaches a :class:`StageContext`
to the error (innermost stage wins) so ``except`` clauses — and users
reading an abort message — learn which stage, unit, function, and
retry count rejected the update.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ReproError

#: stage outcomes
OK = "ok"
FAILED = "failed"
SKIPPED = "skipped"


@dataclass
class StageContext:
    """Where in the pipeline an abort happened.

    Attached to the raised :class:`~repro.errors.ReproError` as
    ``stage_context`` by the innermost enclosing :class:`Stage`.
    """

    stage: str  #: slash-joined stage path, e.g. ``"apply/stop_machine"``
    unit: str = ""
    function: str = ""
    retries: int = 0

    def describe(self) -> str:
        parts = ["stage %s" % self.stage]
        if self.unit:
            parts.append("unit %s" % self.unit)
        if self.function:
            parts.append("function %s" % self.function)
        if self.retries:
            parts.append("attempt %d" % self.retries)
        return ", ".join(parts)


@dataclass
class StageReport:
    """What one stage did: outcome, wall time, counters, artifacts.

    ``counters`` hold deterministic integers (unit counts, bytes,
    retry attempts) — never cache or timing state, so reports from a
    parallel run compare byte-identical to a sequential one after
    :func:`~repro.pipeline.normalize.scrub_report`.  ``artifacts`` are
    small strings naming what the stage worked on (unit, function,
    offending thread); the last value written wins, which on a failure
    is the item being processed when the stage aborted.
    """

    name: str
    outcome: str = OK
    wall_ms: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)
    artifacts: Dict[str, str] = field(default_factory=dict)
    error: str = ""
    children: List["StageReport"] = field(default_factory=list)

    def count(self, name: str, delta: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    def child(self, name: str) -> Optional["StageReport"]:
        for child in self.children:
            if child.name == name:
                return child
        return None

    def walk(self, prefix: str = "") -> Iterator[Tuple[str, "StageReport"]]:
        """Yield ``(path, report)`` for this report and every descendant."""
        path = prefix + self.name
        yield path, self
        for child in self.children:
            yield from child.walk(path + "/")

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "outcome": self.outcome,
            "wall_ms": self.wall_ms,
            "counters": dict(self.counters),
            "artifacts": dict(self.artifacts),
            "error": self.error,
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "StageReport":
        return cls(
            name=str(data.get("name", "")),
            outcome=str(data.get("outcome", OK)),
            wall_ms=float(data.get("wall_ms", 0.0)),  # type: ignore[arg-type]
            counters=dict(data.get("counters", {})),  # type: ignore[arg-type]
            artifacts=dict(data.get("artifacts", {})),  # type: ignore[arg-type]
            error=str(data.get("error", "")),
            children=[cls.from_dict(c)
                      for c in data.get("children", [])],  # type: ignore
        )

    def render(self, indent: int = 0) -> List[str]:
        """Human-readable listing of this report subtree."""
        marker = {OK: " ", FAILED: "!", SKIPPED: "-"}.get(self.outcome, "?")
        extras = " ".join("%s=%d" % kv for kv in sorted(self.counters.items()))
        line = "%s%s %-20s %9.2f ms  %-7s %s" % (
            "  " * indent, marker, self.name, self.wall_ms, self.outcome,
            extras)
        lines = [line.rstrip()]
        for key, value in sorted(self.artifacts.items()):
            lines.append("%s    %s: %s" % ("  " * indent, key, value))
        if self.error:
            lines.append("%s    error: %s" % ("  " * indent, self.error))
        for child in self.children:
            lines.extend(child.render(indent + 1))
        return lines


class Stage:
    """Context manager recording one pipeline stage into a trace.

    ``__enter__`` returns the :class:`StageReport` so the body can add
    counters and artifacts in place::

        with trace.stage("run-pre") as rep:
            rep.artifacts["unit"] = unit_name
            rep.count("functions", len(matched))
    """

    def __init__(self, trace: "Trace", name: str):  # noqa: F821
        self.trace = trace
        self.report = StageReport(name=name)
        self._path = name
        self._start = 0.0

    def __enter__(self) -> StageReport:
        self.trace.current.children.append(self.report)
        stack = self.trace._stack
        stack.append(self.report)
        self._path = "/".join(r.name for r in stack)
        self._start = time.perf_counter()
        return self.report

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.report.wall_ms = (time.perf_counter() - self._start) * 1000.0
        self.trace._stack.pop()
        if exc is not None:
            self.report.outcome = FAILED
            if not self.report.error:
                self.report.error = "%s: %s" % (type(exc).__name__, exc)
            if isinstance(exc, ReproError) and exc.stage_context is None:
                exc.stage_context = StageContext(
                    stage=self._path,
                    unit=self.report.artifacts.get("unit", ""),
                    function=self.report.artifacts.get("function", ""),
                    retries=self.report.counters.get("attempts", 0))
        return False
