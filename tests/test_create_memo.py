"""The create memo: one ksplice-create per corpus CVE, shared by the
publish gate and the fleet rollout.

The fast path must be invisible: a memoised pack is the pack a fresh
``ksplice_create`` builds, byte for byte, including after a trip
through the disk tier, and a memo hit refuses exactly what a fresh
create refuses."""

import json

import pytest

from repro.compiler.cache import disable_disk_cache, drop_memory_tiers, \
    enable_disk_cache
from repro.controlplane import (
    ROLLOUT_COMPLETE,
    ROLLOUT_FAILED,
    ControlPlaneService,
    ControlPlaneStore,
)
from repro.core.create import CreateReport, ksplice_create
from repro.errors import DataSemanticsError
from repro.evaluation.analyze import ANALYSIS_CACHE, create_corpus_cve
from repro.evaluation.corpus import CORPUS, corpus_by_id
from repro.evaluation.engine import clear_caches, run_build_for
from repro.evaluation.kernels import kernel_for_version, make_patch
from repro.fleet import RolloutPlan, rollout_corpus_cve
from repro.pipeline import Trace

CVE = "CVE-2006-2451"  # analyzer-safe, has a semantics probe


def _object_fields(obj):
    return {name: (section.data,
                   [(r.offset, r.symbol, r.type, r.addend)
                    for r in section.relocations])
            for name, section in sorted(obj.sections.items())}


def _pack_fields(pack):
    """Everything an apply reads from a pack, in comparable form."""
    return (pack.update_id, pack.kernel_version, pack.description,
            pack.patch_lines,
            [(uu.unit, _object_fields(uu.helper), _object_fields(uu.primary),
              uu.changed_functions, uu.new_functions, uu.changed_data,
              uu.new_data, uu.hook_sections)
             for uu in pack.units])


def _analysis_json(analysis):
    return json.dumps(analysis.to_json_dict(), sort_keys=True)


def _fresh(spec):
    """Today's shipping path: a fresh create that refuses data changes."""
    kernel = kernel_for_version(spec.kernel_version)
    report = CreateReport()
    pack = ksplice_create(
        kernel.tree,
        kernel.patch_for(spec.cve_id, augmented=spec.table1 is not None),
        description=spec.description, report=report,
        run_build=run_build_for(kernel))
    return pack, report.analysis


@pytest.mark.parametrize("cve_id", [spec.cve_id for spec in CORPUS])
def test_memoised_pack_matches_a_fresh_create(cve_id):
    spec = corpus_by_id(cve_id)
    created = create_corpus_cve(spec)
    pack, analysis = _fresh(spec)
    assert created.data_refusal == ""
    assert created.shippable_pack() is created.pack
    assert _pack_fields(created.pack) == _pack_fields(pack)
    assert created.pack.to_bytes() == pack.to_bytes()
    assert _analysis_json(created.analysis) == _analysis_json(analysis)


def test_memo_entry_survives_the_disk_tier(tmp_path):
    spec = corpus_by_id("CVE-2005-3179")  # ships hook code
    enable_disk_cache(str(tmp_path))
    try:
        clear_caches()
        created = create_corpus_cve(spec)
        drop_memory_tiers()
        disk_hits = ANALYSIS_CACHE.stats.disk_hits
        revived = create_corpus_cve(spec)
        assert ANALYSIS_CACHE.stats.disk_hits == disk_hits + 1
    finally:
        disable_disk_cache()
        clear_caches()
    assert revived is not created
    assert revived == created
    assert _pack_fields(revived.pack) == _pack_fields(created.pack)
    assert revived.pack.to_bytes() == created.pack.to_bytes()
    assert _analysis_json(revived.analysis) == \
        _analysis_json(created.analysis)


def _publish(directory):
    service = ControlPlaneService(ControlPlaneStore(str(directory)))
    for member_id in ("web-00", "web-01", "web-02"):
        service.register_member(member_id, "2.6.16-deb3",
                                channel="canary")
    record = service.publish("canary", CVE, synchronous=True)
    return service.rollout(record.rollout_id)


def test_publish_creates_once_and_records_match_cold_and_warm(tmp_path):
    clear_caches()
    cold = _publish(tmp_path / "cold")
    # the gate missed and built the pack; the rollout shipped it
    assert (ANALYSIS_CACHE.stats.misses, ANALYSIS_CACHE.stats.hits) \
        == (1, 1)
    warm = _publish(tmp_path / "warm")
    assert (ANALYSIS_CACHE.stats.misses, ANALYSIS_CACHE.stats.hits) \
        == (1, 3)
    assert cold.status == ROLLOUT_COMPLETE
    assert cold.to_json_dict() == warm.to_json_dict()


def test_rollout_create_stage_records_hit_and_miss():
    clear_caches()
    plan = RolloutPlan(cve_id=CVE, fleet_size=1)
    first, second = Trace(label="first"), Trace(label="second")
    rollout_corpus_cve(plan, trace=first)
    rollout_corpus_cve(plan, trace=second)
    miss, hit = first.find("create"), second.find("create")
    assert miss.artifacts["cache"] == "miss"
    # a miss still shows ksplice-create's own stages under the rollout
    assert [c.name for c in miss.children] == \
        ["patch", "build-pre", "build-post", "diff", "analyze"]
    assert hit.artifacts["cache"] == "hit"
    assert hit.children == []


def _data_init_patch(monkeypatch):
    """Make the CVE's patch also change a persistent initializer, with
    no hook code to carry live state across."""
    spec = corpus_by_id(CVE)
    kernel = kernel_for_version(spec.kernel_version)

    def patch_for(cve_id, augmented=True):
        fixed = dict(kernel.fixed_tree(cve_id, augmented=augmented).files)
        fixed[spec.unit] = fixed[spec.unit].replace(
            "int prctl_stat0;", "int prctl_stat0 = 7;")
        return make_patch(kernel.tree.files, fixed)

    monkeypatch.setattr(kernel, "patch_for", patch_for)
    return spec, kernel


def test_edited_patch_is_never_served_a_stale_pack(monkeypatch):
    plain = create_corpus_cve(CVE)
    spec, _kernel = _data_init_patch(monkeypatch)
    edited = create_corpus_cve(spec)
    assert edited is not plain
    assert edited.pack.update_id != plain.pack.update_id
    assert plain.data_refusal == ""
    assert "prctl_stat0" in edited.data_refusal


def test_data_semantics_refusal_survives_a_memo_hit(tmp_path, monkeypatch):
    spec, kernel = _data_init_patch(monkeypatch)
    with pytest.raises(DataSemanticsError) as fresh:
        ksplice_create(kernel.tree, kernel.patch_for(CVE),
                       description=spec.description,
                       run_build=run_build_for(kernel))

    # The gate passes it, as it always has: the analyzer's proven
    # verdict is needs-hooks, which is neither a reject nor unproven.
    record = _publish(tmp_path)
    assert record.analysis["verdict"] == "needs-hooks"
    assert record.analysis["proven"] and not record.forced
    # The rollout takes the gate's pack from the memo and still refuses.
    assert record.status == ROLLOUT_FAILED
    assert record.detail == "DataSemanticsError: %s" % fresh.value
    assert record.report is None

    trace = Trace(label="direct")
    with pytest.raises(DataSemanticsError, match="prctl_stat0"):
        rollout_corpus_cve(RolloutPlan(cve_id=CVE, fleet_size=1),
                           trace=trace)
    create = trace.find("create")
    assert create.artifacts["cache"] == "hit"
    assert create.outcome == "failed"
