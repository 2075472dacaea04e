"""The content-addressed pipeline cache (``repro.pipeline.cache``).

Contract under test: with ``cache_dir`` set, a warm rerun serves every
domain from the store — no crawl/preprocess/segment/annotate work — and
its records, traces, token totals, and fetch counters are byte-identical
to a fresh computation, for serial and parallel runs alike. Damaged or
stale entries degrade to misses, never to wrong results.
"""

from __future__ import annotations

import json

import pytest

from repro.corpus import CorpusConfig, build_corpus
from repro.pipeline import (
    CacheKeys,
    ExecutorOptions,
    PipelineCache,
    PipelineOptions,
    run_pipeline,
)
from repro.pipeline.cache import (
    HIT_CRAWL,
    HIT_RECORD,
    MISS_CRAWL,
    MISS_RECORD,
    SCHEMA_VERSION,
)

SEED = 7
FRACTION = 0.03
OPTIONS = PipelineOptions(model_seed=3)

#: Stage names whose presence in warm-run timings would prove recompute.
COMPUTE_STAGES = ("crawl", "preprocess", "segment", "annotate")


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(CorpusConfig(seed=SEED, fraction=FRACTION))


@pytest.fixture(scope="module")
def fresh_result(corpus):
    """The uncached ground truth every cached variant must reproduce."""
    return run_pipeline(corpus, OPTIONS)


def _signature(result):
    return (
        [r.to_json() for r in result.records],
        {d: vars(t) for d, t in result.traces.items()},
        result.prompt_tokens,
        result.completion_tokens,
    )


class TestWarmRun:
    def test_cold_then_warm_identical_to_fresh(self, corpus, fresh_result,
                                               tmp_path):
        n = len(corpus.domains)
        cold = run_pipeline(corpus, OPTIONS, cache_dir=tmp_path / "c")
        warm = run_pipeline(corpus, OPTIONS, cache_dir=tmp_path / "c")
        assert _signature(cold) == _signature(fresh_result)
        assert _signature(warm) == _signature(fresh_result)
        assert cold.stage_timings.counts()[MISS_RECORD] == n
        assert warm.stage_timings.counts()[HIT_RECORD] == n
        assert warm.stage_timings.counts().get(MISS_RECORD, 0) == 0

    def test_warm_run_skips_every_compute_stage(self, corpus, tmp_path):
        run_pipeline(corpus, OPTIONS, cache_dir=tmp_path / "c")
        warm = run_pipeline(corpus, OPTIONS, cache_dir=tmp_path / "c")
        for stage in COMPUTE_STAGES:
            assert warm.stage_timings.total(stage) == 0.0, stage
            assert warm.stage_timings.count(stage) == 0, stage

    def test_warm_fetch_stats_match_fresh(self, corpus, fresh_result,
                                          tmp_path):
        run_pipeline(corpus, OPTIONS, cache_dir=tmp_path / "c")
        warm = run_pipeline(corpus, OPTIONS, cache_dir=tmp_path / "c")
        assert warm.fetch_stats.as_dict() == fresh_result.fetch_stats.as_dict()
        assert warm.fetch_stats.requests > 0

    @pytest.mark.parametrize("workers,shard_size", [(2, 4), (4, 1)])
    def test_parallel_cached_matches_serial_fresh(self, corpus, fresh_result,
                                                  tmp_path, workers,
                                                  shard_size):
        executor = ExecutorOptions(workers=workers, shard_size=shard_size)
        cold = run_pipeline(corpus, OPTIONS, executor=executor,
                            cache_dir=tmp_path / "c")
        warm = run_pipeline(corpus, OPTIONS, executor=executor,
                            cache_dir=tmp_path / "c")
        assert _signature(cold) == _signature(fresh_result)
        assert _signature(warm) == _signature(fresh_result)
        assert warm.stage_timings.counts()[HIT_RECORD] == len(corpus.domains)

    def test_serial_cache_reused_by_parallel_run(self, corpus, fresh_result,
                                                 tmp_path):
        run_pipeline(corpus, OPTIONS, cache_dir=tmp_path / "c")
        warm = run_pipeline(corpus, OPTIONS, workers=4,
                            cache_dir=tmp_path / "c")
        assert _signature(warm) == _signature(fresh_result)
        assert warm.stage_timings.counts()[HIT_RECORD] == len(corpus.domains)


class TestInvalidation:
    def test_invalidate_records_keeps_crawls(self, corpus, fresh_result,
                                             tmp_path):
        cache = PipelineCache(tmp_path / "c")
        run_pipeline(corpus, OPTIONS, cache=cache)
        n = len(corpus.domains)
        assert cache.entry_count("records") == n
        assert cache.entry_count("crawl") == n

        removed = cache.invalidate("records")
        assert removed == n
        assert cache.entry_count("records") == 0
        assert cache.entry_count("crawl") == n

        rerun = run_pipeline(corpus, OPTIONS, cache=cache)
        assert _signature(rerun) == _signature(fresh_result)
        counts = rerun.stage_timings.counts()
        assert counts[MISS_RECORD] == n
        assert counts[HIT_CRAWL] == n
        assert counts.get(MISS_CRAWL, 0) == 0
        # Replay-from-crawl must not re-crawl or re-preprocess.
        assert rerun.stage_timings.total("crawl") == 0.0
        assert rerun.stage_timings.total("preprocess") == 0.0

    def test_invalidate_all_forces_full_recompute(self, corpus, tmp_path):
        cache = PipelineCache(tmp_path / "c")
        run_pipeline(corpus, OPTIONS, cache=cache)
        cache.invalidate("all")
        assert cache.entry_count() == 0
        rerun = run_pipeline(corpus, OPTIONS, cache=cache)
        assert rerun.stage_timings.counts()[MISS_CRAWL] == len(corpus.domains)

    def test_invalidate_unknown_layer_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown cache layer"):
            PipelineCache(tmp_path / "c").invalidate("bogus")

    def test_lexicon_edit_invalidates_records_not_crawls(
            self, corpus, fresh_result, tmp_path, monkeypatch):
        """Editing the lexicon must recompute annotation, never the crawl."""
        cache = PipelineCache(tmp_path / "c")
        run_pipeline(corpus, OPTIONS, cache=cache)

        import repro.chatbot.lexicon as lexicon_mod

        original = lexicon_mod.lexicon_fingerprint()
        monkeypatch.setattr(lexicon_mod, "lexicon_fingerprint",
                            lambda: original + ":edited")
        rerun = run_pipeline(corpus, OPTIONS, cache=cache)
        counts = rerun.stage_timings.counts()
        n = len(corpus.domains)
        assert counts[MISS_RECORD] == n  # every record key changed...
        assert counts[HIT_CRAWL] == n    # ...but every crawl replayed.
        # The actual lexicon content is unchanged, so output still matches.
        assert _signature(rerun) == _signature(fresh_result)


class TestRobustness:
    def test_corrupt_entry_is_a_miss(self, corpus, fresh_result, tmp_path):
        cache = PipelineCache(tmp_path / "c")
        run_pipeline(corpus, OPTIONS, cache=cache)
        victims = sorted((tmp_path / "c" / "records").glob("*/*.json"))[:3]
        victims[0].write_text("{truncated", encoding="utf-8")
        victims[1].write_bytes(b"\xff\xfe not json at all")
        victims[2].write_text("[]", encoding="utf-8")  # wrong shape
        warm = run_pipeline(corpus, OPTIONS, cache=cache)
        assert _signature(warm) == _signature(fresh_result)
        counts = warm.stage_timings.counts()
        assert counts[MISS_RECORD] == 3
        assert counts[HIT_RECORD] == len(corpus.domains) - 3

    def test_schema_bump_orphans_entries(self, corpus, fresh_result,
                                         tmp_path):
        cache = PipelineCache(tmp_path / "c")
        run_pipeline(corpus, OPTIONS, cache=cache)
        victim = next(iter((tmp_path / "c" / "records").glob("*/*.json")))
        payload = json.loads(victim.read_text(encoding="utf-8"))
        payload["schema"] = SCHEMA_VERSION + 1
        victim.write_text(json.dumps(payload), encoding="utf-8")
        warm = run_pipeline(corpus, OPTIONS, cache=cache)
        assert _signature(warm) == _signature(fresh_result)
        assert warm.stage_timings.counts()[MISS_RECORD] == 1

    def test_stray_tmp_debris_is_ignored(self, corpus, tmp_path):
        cache = PipelineCache(tmp_path / "c")
        run_pipeline(corpus, OPTIONS, cache=cache)
        bucket = next((tmp_path / "c" / "records").glob("*"))
        (bucket / "deadbeef.json.tmp123-456").write_text("partial write")
        n = len(corpus.domains)
        assert cache.entry_count("records") == n  # debris not counted
        warm = run_pipeline(corpus, OPTIONS, cache=cache)
        assert warm.stage_timings.counts()[HIT_RECORD] == n


class TestKeyLayout:
    def test_different_options_use_disjoint_record_keys(self, corpus):
        keys_a = CacheKeys(corpus, OPTIONS)
        keys_b = CacheKeys(corpus, PipelineOptions(model_seed=4))
        domain = corpus.domains[0]
        assert keys_a.record_key(domain) != keys_b.record_key(domain)
        # The crawl layer ignores options entirely: same key, so a model
        # ablation sweep shares one set of stored crawls.
        assert keys_a.crawl_key(domain) == keys_b.crawl_key(domain)

    def test_options_sweep_shares_crawl_layer(self, corpus, tmp_path):
        cache = PipelineCache(tmp_path / "c")
        domains = corpus.domains[:8]
        run_pipeline(corpus, OPTIONS, domains=domains, cache=cache)
        swept = run_pipeline(corpus, PipelineOptions(model_seed=99),
                             domains=domains, cache=cache)
        counts = swept.stage_timings.counts()
        assert counts[MISS_RECORD] == len(domains)
        assert counts[HIT_CRAWL] == len(domains)
