"""ksplice-create and static analysis of one corpus CVE, memoised.

``create_corpus_cve`` runs the pipeline ``repro analyze`` always has —
generate the CVE's kernel, build the run kernel, ksplice-create the
(augmented) patch with the analyzer enabled — once, and keeps the
result: the update pack, the :class:`~repro.analysis.AnalysisReport`,
and whether the data-semantics check refuses to ship the pack.  The
control plane's publish gate reads the analysis
(``analyze_corpus_cve``) and the fleet rollout ships the pack, so one
publish builds the update once, as the paper's ksplice-create does
(§3): the fleet applies the very pack the gate proved.

The memo is a registered :class:`~repro.compiler.cache.ContentCache`
keyed by ``(ANALYZER_VERSION, CVE, kernel version, augmented,
sha256(patch))``.  Bumping the analyzer version (any analyzer change
that can alter verdicts or evidence) makes every old entry
unreachable, and so does any edit to the patch text, so a warm cache
can never serve a verdict or a pack the current code would not
produce.  The stamp is read through the module attribute at call
time, not imported, so tests can monkeypatch it to prove the
invalidation works.

Entries are shared, never copied: packs are read-only once built (the
members of one rollout already share one), and so are reports.  An
entry also holds, once first asked for, the pack's ``to_bytes()``
document and its sha256: a worker-backed rollout ships those bytes and
every rollout report names that digest, so neither is recomputed per
publish.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple, Union

from repro.analysis import AnalysisReport
from repro.analysis import model as analysis_model
from repro.compiler.cache import ContentCache, register_cache, source_digest
from repro.core.create import CreateReport, data_semantics_refusal, \
    ksplice_create
from repro.core.update import UpdatePack
from repro.errors import DataSemanticsError
from repro.evaluation.corpus import corpus_by_id
from repro.evaluation.engine import run_build_for
from repro.evaluation.kernels import GeneratedKernel, kernel_for_version
from repro.evaluation.specs import CveSpec
from repro.pipeline import Trace

#: one :class:`CreatedUpdate` per (analyzer version, CVE, augmented
#: flag, patch); 128 slots cover the 64-CVE corpus in both flavours
ANALYSIS_CACHE = register_cache(ContentCache("analysis", max_entries=128))


@dataclass(frozen=True)
class CreatedUpdate:
    """What one ksplice-create of a corpus CVE produced."""

    pack: UpdatePack
    analysis: AnalysisReport
    #: the ``DataSemanticsError`` text ``ksplice_create`` raises for
    #: this patch unless told ``allow_data_changes``; "" when none
    data_refusal: str = ""

    def shippable_pack(self) -> UpdatePack:
        """The pack, refused exactly as ``ksplice_create`` (with
        ``allow_data_changes=False``) would refuse it."""
        if self.data_refusal:
            raise DataSemanticsError(self.data_refusal)
        return self.pack

    @cached_property
    def pack_bytes(self) -> bytes:
        """The pack's ``to_bytes()`` document, encoded once."""
        return self.pack.to_bytes()

    @cached_property
    def pack_sha256(self) -> str:
        """The hex sha256 of :attr:`pack_bytes`."""
        return hashlib.sha256(self.pack_bytes).hexdigest()


def _corpus_patch(spec_or_id: Union[CveSpec, str], augmented: bool,
                  ) -> Tuple[CveSpec, GeneratedKernel, bool, str]:
    """The CVE's spec, its kernel, whether the augmented patch applies,
    and the patch text."""
    spec = corpus_by_id(spec_or_id) if isinstance(spec_or_id, str) \
        else spec_or_id
    augmented = augmented and spec.table1 is not None
    kernel = kernel_for_version(spec.kernel_version)
    return (spec, kernel, augmented,
            kernel.patch_for(spec.cve_id, augmented=augmented))


def create_corpus_cve(spec_or_id: Union[CveSpec, str],
                      augmented: bool = True,
                      trace: Optional[Trace] = None) -> CreatedUpdate:
    """The memoised ksplice-create of one corpus CVE.

    ``augmented`` selects the Table-1 augmented patch when the CVE has
    one (the flavour the fleet ships); plain CVEs ignore it.  The pack
    is built with the data-semantics refusal deferred, so the analysis
    exists even for a patch that must not ship; callers that ship call
    :meth:`CreatedUpdate.shippable_pack`.  ``trace``, when given, gets
    a ``cache`` artifact (``hit``/``miss``) on its open stage, and a
    miss nests ksplice-create's stages under that stage.
    """
    spec, kernel, augmented, patch = _corpus_patch(spec_or_id, augmented)
    key = (analysis_model.ANALYZER_VERSION, spec.cve_id,
           spec.kernel_version, augmented, source_digest(patch))
    created = ANALYSIS_CACHE.get(key)
    if trace is not None:
        trace.current.artifacts["cache"] = \
            "miss" if created is None else "hit"
    if created is None:
        created = _create(spec, kernel, patch, trace=trace)
        ANALYSIS_CACHE.put(key, created)
    return created


def _create(spec: CveSpec, kernel: GeneratedKernel, patch: str,
            trace: Optional[Trace] = None) -> CreatedUpdate:
    report = CreateReport()
    pack = ksplice_create(kernel.tree, patch, description=spec.description,
                          allow_data_changes=True, report=report,
                          run_build=run_build_for(kernel), trace=trace)
    assert report.analysis is not None  # create always analyzes
    refusals = [data_semantics_refusal(unit, diff)
                for unit, diff in report.unit_diffs.items()]
    return CreatedUpdate(pack=pack, analysis=report.analysis,
                         data_refusal=next(filter(None, refusals), ""))


def analyze_corpus_cve(spec_or_id: Union[CveSpec, str],
                       augmented: bool = True) -> AnalysisReport:
    """The static analyzer's report for one corpus CVE: the analysis
    half of :func:`create_corpus_cve`."""
    return create_corpus_cve(spec_or_id, augmented=augmented).analysis
