"""Tests for the persistent warm-start store and its service wiring.

The store's contract: values round-trip by (space, key); the LRU sweep
bounds the file; a version bump purges stale artifacts wholesale; and a
*fresh* analyzer pointed at a filled store re-solves nothing on an
unchanged corpus while producing byte-identical findings — the restarted
``serve`` scenario.  The coalescing tests cover the reconcile gate that
keeps concurrent ``POST /analyze`` bursts from stacking redundant passes.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.engine.scheduler import fork_available
from repro.kernel.corpus import KERNEL_FILES
from repro.service import AnalysisService, IncrementalAnalyzer
from repro.service.store import PersistentStore


class TestPersistentStore:
    def test_round_trip_and_miss(self, tmp_path):
        store = PersistentStore(tmp_path)
        assert store.get("consts", "k1") is None
        store.put("consts", "k1", {"facts": [1, 2, 3]})
        assert store.get("consts", "k1") == {"facts": [1, 2, 3]}
        # Spaces partition the keyspace.
        assert store.get("scc", "k1") is None
        assert store.contains("consts", "k1")
        assert not store.contains("scc", "k1")
        store.close()

    def test_none_values_distinguishable_when_wrapped(self, tmp_path):
        # Callers that must store None (facts_of returns None for
        # branchless functions) wrap values in 1-tuples; the store itself
        # faithfully returns whatever object was put.
        store = PersistentStore(tmp_path)
        store.put("consts", "k", (None,))
        assert store.get("consts", "k") == (None,)
        store.close()

    def test_reopen_persists(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.put("shard", "k", [1, 2])
        store.close()
        reopened = PersistentStore(tmp_path)
        assert reopened.get("shard", "k") == [1, 2]
        reopened.close()

    def test_lru_eviction_bounds_size(self, tmp_path):
        store = PersistentStore(tmp_path, max_mb=0.001)  # ~1 KB
        blob = "x" * 300
        for index in range(20):
            store.put("scc", f"k{index}", blob)
        assert store.total_bytes() <= 1024
        assert store.evictions > 0
        # Newest entries survive; the oldest were swept.
        assert store.get("scc", "k19") == blob
        assert store.get("scc", "k0") is None
        store.close()

    def test_touch_refreshes_lru_clock(self, tmp_path):
        import time

        store = PersistentStore(tmp_path, max_mb=0.001)
        blob = "x" * 300
        store.put("scc", "keep", blob)
        time.sleep(0.02)
        store.put("scc", "other", blob)
        time.sleep(0.02)
        store.touch("scc", ["keep"])
        time.sleep(0.02)
        # Push the file just past the cap: the sweep takes the oldest
        # atime, which the touch moved from "keep" onto "other".
        store.put("scc", "fill0", blob)
        store.put("scc", "fill1", blob)
        assert store.evictions > 0
        assert store.get("scc", "keep") == blob
        assert store.get("scc", "other") is None
        store.close()

    def test_version_mismatch_purges(self, tmp_path, monkeypatch):
        store = PersistentStore(tmp_path)
        store.put("consts", "k", "v")
        store.close()
        monkeypatch.setattr("repro.service.store.__version__", "0.0.0-test")
        purged = PersistentStore(tmp_path)
        assert purged.get("consts", "k") is None
        assert purged.entry_count() == 0
        purged.close()

    def test_corrupt_row_treated_as_miss(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.put("consts", "k", "v")
        with store._lock:
            store._conn.execute(
                "UPDATE entries SET value = ? WHERE key = 'k'",
                (b"not a pickle",))
            store._conn.commit()
        assert store.get("consts", "k") is None
        assert not store.contains("consts", "k")
        store.close()


class TestWarmRestart:
    def test_fresh_analyzer_resolves_nothing_from_filled_store(self, tmp_path):
        store = PersistentStore(tmp_path)
        cold = IncrementalAnalyzer(files=KERNEL_FILES, store=store)
        cold_report = cold.analyze()
        cold_stats = cold.last_stats
        assert cold_stats.consts_solved > 0
        assert cold_stats.store_writes > 0

        # A brand-new analyzer (fresh process, same store) over the same
        # sources: everything comes off disk.
        warm = IncrementalAnalyzer(files=KERNEL_FILES, store=store)
        warm_report = warm.analyze()
        stats = warm.last_stats
        assert stats.consts_solved == 0
        assert stats.dirty_sccs == 0
        assert stats.shards_rerun == 0
        assert stats.store_hits > 0

        # Findings and analyses byte-identical; only the cache-hit flags
        # and wall-clock fields may differ (same as a second pass of the
        # same analyzer).
        cold_payload = cold_report.to_dict()
        warm_payload = warm_report.to_dict()
        for payload in (cold_payload, warm_payload):
            payload.pop("elapsed_seconds", None)
            payload.pop("cache_stats", None)
            payload.pop("perf", None)
            payload.get("summary_stats", {}).pop("cache_hit", None)
            payload.get("summary_stats", {}).pop("consts_cache_hit", None)
        assert cold_payload == warm_payload
        store.close()

    def test_edit_after_restart_still_incremental(self, tmp_path):
        from dataclasses import replace

        store = PersistentStore(tmp_path)
        cold = IncrementalAnalyzer(files=KERNEL_FILES, store=store)
        cold.analyze()
        store_writes = cold.last_stats.store_writes

        warm = IncrementalAnalyzer(files=KERNEL_FILES, store=store)
        warm.analyze()
        touched = replace(
            KERNEL_FILES[-1],
            source=KERNEL_FILES[-1].source
            + "\nint __store_touch(void) { return 0; }\n")
        warm.analyze(KERNEL_FILES[:-1] + (touched,))
        stats = warm.last_stats
        assert stats.parsed_units == 1
        assert not stats.full_reparse
        # The touched TU's new artifacts spill to the store too.
        assert store.writes > store_writes
        store.close()

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_restart_after_edit_matches_cold_pass(self, tmp_path, jobs):
        """An edit made while the service was down: the restarted analyzer
        takes its clean components off disk and solves only the dirty slice
        around them — with the same findings a cold pass produces."""
        from dataclasses import replace

        from repro.kernel.synth import generate_corpus

        files = generate_corpus(1, 7)
        store = PersistentStore(tmp_path)
        IncrementalAnalyzer(files, store=store).analyze()
        store.close()
        last = files[-1]
        edited = files[:-1] + (
            replace(last, source=last.source.replace("return 0;",
                                                     "return 1;", 1)),)

        store = PersistentStore(tmp_path)
        restarted = IncrementalAnalyzer(edited, store=store, jobs=jobs)
        warm_report = restarted.analyze()
        stats = restarted.last_stats
        store.close()
        assert stats.sccs_reused > 0 and stats.store_hits > 0
        assert stats.dirty_sccs > 1
        if jobs > 1 and fork_available():
            assert stats.parallel_jobs >= 2
        cold_report = IncrementalAnalyzer(edited).analyze()
        assert (json.dumps(warm_report.to_dict()["analyses"], sort_keys=True)
                == json.dumps(cold_report.to_dict()["analyses"],
                              sort_keys=True))


class TestReconcileCoalescing:
    def test_burst_coalesces_onto_queued_pass(self):
        service = AnalysisService()
        service.request_reconcile()  # prime caches
        results = []

        def call():
            snapshot, coalesced = service.request_reconcile()
            results.append((snapshot.revision, coalesced))

        threads = [threading.Thread(target=call) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(results) == 6
        ran = [entry for entry in results if not entry[1]]
        coalesced = [entry for entry in results if entry[1]]
        # At least one request ran a real pass; with six concurrent
        # callers at most two passes ran (in-flight + queued) beyond the
        # prime, so at least four coalesced.
        assert 1 <= len(ran) <= 2
        assert len(coalesced) >= 4
        assert service.passes == 1 + len(ran)
        # Coalesced callers got the queued pass's published snapshot.
        latest = max(revision for revision, _ in results)
        assert all(revision == latest for revision, _ in coalesced)

    def test_single_request_is_not_coalesced(self):
        service = AnalysisService()
        snapshot, coalesced = service.request_reconcile()
        assert snapshot is not None
        assert coalesced is False


@pytest.mark.parametrize("max_mb", [None, 5.0])
def test_service_builds_store_from_dir(tmp_path, max_mb):
    service = AnalysisService(store_dir=tmp_path, store_max_mb=max_mb)
    assert service.store is not None
    assert service.analyzer.store is service.store
    service.request_reconcile()
    assert service.store.writes > 0
    payload = service.stats_payload()
    assert payload["store"]["entries"] > 0
    service.store.close()
