"""Corpus-as-oracle validation of the static analyzer (the PR's
acceptance test): every verdict issued during ``create`` must be
consistent with what actually happened when the update was applied.

The cross-check rules live in
:func:`repro.evaluation.engine.verdict_discrepancies`:

- a ``safe`` CVE must apply cleanly, first try, and fix the CVE
  without custom code;
- ``needs-hooks`` / ``needs-shadow`` must coincide with the hook-less
  patch failing to fully fix (Table-1 membership, measured — not the
  annotation);
- ``quiesce-risk`` must coincide with stack-check retries;
- ``reject`` must coincide with an apply abort;
- every verdict produced with the run kernel's build must be *proven*:
  ABI and hunk-equivalence evidence per patched function, and a
  matching witness with concrete sites behind every non-safe finding
  (the abstract-interpretation engine, :mod:`repro.analysis.absint`).
"""

import hashlib
import json

import pytest

from repro.analysis import (
    ANALYZER_VERSION,
    VERDICT_NEEDS_HOOKS,
    VERDICT_NEEDS_SHADOW,
    VERDICT_SAFE,
)
from repro.analysis.model import (
    EVIDENCE_ABI,
    EVIDENCE_DATA_IMAGE,
    EVIDENCE_EQUIVALENCE,
    EVIDENCE_ESCAPE,
    EVIDENCE_SHADOW_API,
    PROOF_KINDS,
)
from repro.evaluation import clear_caches
from repro.evaluation.analyze import analyze_corpus_cve
from repro.evaluation.corpus import CORPUS
from repro.evaluation.engine import verdict_discrepancies
from repro.evaluation.harness import evaluate_corpus


@pytest.fixture(scope="module")
def corpus_report():
    clear_caches()
    return evaluate_corpus(run_stress=False)


def test_whole_corpus_still_succeeds(corpus_report):
    assert corpus_report.total() == len(CORPUS) == 64
    assert len(corpus_report.successes()) == 64


def test_no_verdict_discrepancies_across_corpus(corpus_report):
    """The headline oracle check: zero static/dynamic mismatches."""
    assert verdict_discrepancies(corpus_report.results) == []


def test_every_result_carries_a_verdict_and_report(corpus_report):
    for result in corpus_report.results:
        assert result.analysis_verdict, result.cve_id
        assert result.analysis is not None, result.cve_id
        assert result.analysis.verdict == result.analysis_verdict
        assert result.analysis.run_build_analyzed, result.cve_id
        assert result.hookless_fixes is not None, result.cve_id


def test_needs_custom_verdicts_match_measured_table1(corpus_report):
    """Static needs-hooks/needs-shadow == measured 'hook-less patch
    does not fully fix' == the paper's Table-1 membership."""
    needs_custom = {r.cve_id for r in corpus_report.results
                    if r.analysis_verdict in (VERDICT_NEEDS_HOOKS,
                                              VERDICT_NEEDS_SHADOW)}
    hookless_fails = {r.cve_id for r in corpus_report.results
                      if r.hookless_fixes is False}
    table1 = {s.cve_id for s in CORPUS if s.table1 is not None}
    assert needs_custom == hookless_fails == table1
    assert len(needs_custom) == 8


def test_safe_cves_need_no_custom_code_and_never_retry(corpus_report):
    for result in corpus_report.results:
        if result.analysis_verdict != VERDICT_SAFE:
            continue
        assert result.applied_cleanly, result.cve_id
        assert result.stack_check_attempts == 1, result.cve_id
        assert result.hookless_fixes, result.cve_id


def test_verdict_histogram(corpus_report):
    counts = corpus_report.verdict_counts()
    assert counts == {"safe": 56, "needs-hooks": 7, "needs-shadow": 1}


def test_every_verdict_is_proven(corpus_report):
    """No bare labels: every report must carry machine-checkable
    evidence backing its verdict (the absint acceptance criterion)."""
    for result in corpus_report.results:
        analysis = result.analysis
        assert analysis.is_proven(), (
            result.cve_id, analysis.verdict,
            sorted(e.kind for e in analysis.evidence))


def test_every_patched_function_has_abi_and_equivalence_proof(
        corpus_report):
    for result in corpus_report.results:
        analysis = result.analysis
        for unit, fns in analysis.patched_functions.items():
            for fn in fns:
                for kind in (EVIDENCE_ABI, EVIDENCE_EQUIVALENCE):
                    matching = [e for e in analysis.evidence_for(kind)
                                if e.unit == unit and e.symbol == fn]
                    assert matching, (result.cve_id, kind, unit, fn)


def test_needs_custom_verdicts_carry_concrete_witnesses(corpus_report):
    """The Table-1 set must carry escape / data-image / shadow-api
    witnesses with concrete program points, not bare labels."""
    checked = 0
    for result in corpus_report.results:
        analysis = result.analysis
        for finding in analysis.findings:
            kinds = PROOF_KINDS.get(finding.verdict)
            if kinds is None:
                continue
            witnesses = [e for kind in kinds
                         for e in analysis.evidence_for(kind)
                         if e.sites]
            assert witnesses, (result.cve_id, finding.verdict)
            checked += 1
        if result.analysis_verdict == VERDICT_NEEDS_SHADOW:
            witnessed = analysis.evidence_for(EVIDENCE_ESCAPE) \
                + analysis.evidence_for(EVIDENCE_SHADOW_API)
            assert any(e.sites for e in witnessed), result.cve_id
        if result.analysis_verdict == VERDICT_NEEDS_HOOKS:
            assert any(e.sites for e in
                       analysis.evidence_for(EVIDENCE_DATA_IMAGE)), \
                result.cve_id
    assert checked >= 8  # at least the Table-1 findings were exercised


def test_unproven_report_is_a_discrepancy(corpus_report):
    """Stripping the evidence off a result must trip the oracle."""
    import copy

    results = [copy.copy(r) for r in corpus_report.results]
    victim = copy.deepcopy(results[0].analysis)
    victim.evidence = []
    results[0] = copy.copy(results[0])
    results[0].analysis = victim
    flagged = verdict_discrepancies(results)
    assert any("not backed by machine-checkable evidence" in line
               for line in flagged)


def test_stale_analyzer_version_is_a_discrepancy(corpus_report):
    import copy

    results = [copy.copy(r) for r in corpus_report.results]
    victim = copy.deepcopy(results[0].analysis)
    victim.analyzer_version = "0-stale"
    results[0] = copy.copy(results[0])
    results[0].analysis = victim
    flagged = verdict_discrepancies(results)
    assert any("stale cached verdict" in line for line in flagged)


def test_discrepancy_rules_detect_a_seeded_mismatch(corpus_report):
    """The oracle must actually bite: flip one verdict and the
    cross-check has to flag it."""
    import copy

    results = [copy.copy(r) for r in corpus_report.results]
    victim = next(r for r in results
                  if r.analysis_verdict == VERDICT_SAFE)
    victim.analysis_verdict = VERDICT_NEEDS_HOOKS
    flagged = verdict_discrepancies(results)
    assert any(victim.cve_id in line for line in flagged)


#: sha256 over the sorted-JSON reports of the 64 seed CVEs (sorted by
#: id; plain patch, then augmented), one newline-terminated line each
SEED_REPORTS_DIGEST = \
    "e9ce19884a336840aba63ca010cca5a647a7bf804bc70fe533d33818a7f60cb3"


def test_seed_reports_match_the_pinned_digest():
    """The analyzer's output is pinned byte for byte: a restructured
    analyzer must reproduce every finding, witness and verdict."""
    digest = hashlib.sha256()
    for spec in sorted(CORPUS, key=lambda s: s.cve_id):
        for augmented in (False, True):
            report = analyze_corpus_cve(spec, augmented=augmented)
            digest.update(json.dumps(report.to_json_dict(),
                                     sort_keys=True).encode())
            digest.update(b"\n")
    assert digest.hexdigest() == SEED_REPORTS_DIGEST, (
        "the seed corpus's analysis reports changed (digest %s, analyzer "
        "version %s). The digest may change only together with "
        "ANALYZER_VERSION: create-memo entries keyed on that version are "
        "trusted, so a changed report under an unchanged version would "
        "be served stale." % (digest.hexdigest(), ANALYZER_VERSION))
