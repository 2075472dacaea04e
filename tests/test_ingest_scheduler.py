"""Ingest watcher: change detection, delta re-annotation, replayability."""

from __future__ import annotations

import pytest

from repro.corpus import CorpusConfig, build_corpus
from repro.errors import IngestError
from repro.ingest import (
    IngestScheduler,
    PolicyChangeFeed,
    SchedulePolicy,
    apply_patches_sharded,
    mutable_domains,
    mutate_domain,
    refresh_differential,
    touch_domain,
    touched_shards,
)
from repro.pipeline import PipelineCache, PipelineOptions, run_pipeline
from repro.pipeline.cache import HIT_CRAWL, HIT_RECORD, MISS_CRAWL, \
    MISS_RECORD
from repro.web.browser import Browser
from repro.serve import build_snapshot, partition_snapshot, \
    snapshot_from_cache

#: Kept intentionally distinct from the session fixtures' seed/fraction —
#: these tests mutate their corpora, which session fixtures must never be.
SEED = 77


def _world(tmp_path_factory, name: str, fraction: float = 0.01):
    corpus = build_corpus(CorpusConfig(seed=SEED, fraction=fraction))
    cache = PipelineCache(tmp_path_factory.mktemp(name))
    return corpus, cache


class TestLifecycle:
    """One watcher lifecycle over a mutable corpus: bootstrap, skip-all,
    exactly-K delta, a touch that patches nothing, compaction."""

    @pytest.fixture(scope="class")
    def world(self, tmp_path_factory):
        corpus, cache = _world(tmp_path_factory, "ingest-lifecycle",
                               fraction=0.03)
        scheduler = IngestScheduler(corpus, PipelineOptions(), cache,
                                    seed=9)
        records = scheduler.bootstrap()
        sharded = partition_snapshot(build_snapshot(records), 4)
        return corpus, cache, scheduler, sharded

    def test_bootstrap_covers_every_domain(self, world):
        corpus, _, scheduler, sharded = world
        assert sorted(scheduler.ledger) == sorted(corpus.domains)
        assert sharded.domain_count() == len(corpus.domains)

    def test_unchanged_world_skips_everything(self, world):
        corpus, _, scheduler, _ = world
        before = scheduler.counts()
        rnd = scheduler.run_round()
        after = scheduler.counts()
        assert sorted(rnd.skipped) == sorted(corpus.domains)
        assert rnd.patches == [] and rnd.changed == []
        assert after.get("cache.record.miss", 0) == \
            before.get("cache.record.miss", 0)

    def test_mutating_k_reannotates_exactly_k(self, world):
        corpus, cache, scheduler, sharded = world
        feed = PolicyChangeFeed(corpus, seed=5, per_round=3)
        changed = feed.next_round()
        assert len(changed) == 3

        before = scheduler.counts()
        rnd = scheduler.run_round()
        after = scheduler.counts()

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        assert sorted(rnd.changed) == changed
        assert delta("cache.record.miss") == 3
        assert delta("ingest.annotated") == 3
        assert delta("ingest.skipped") == len(corpus.domains) - 3
        assert sorted(p.domain for p in rnd.patches) == changed
        assert all(p.op == "upsert" for p in rnd.patches)

        result = apply_patches_sharded(sharded, list(rnd.patches))
        assert list(result.touched) == \
            touched_shards(list(rnd.patches), 4)
        verdict = refresh_differential(corpus, PipelineOptions(), cache,
                                       result.sharded)
        assert verdict["identical"], verdict
        # and the from-scratch rebuild really is a different code path:
        rebuilt = snapshot_from_cache(corpus, PipelineOptions(), cache)
        assert rebuilt.fingerprint == result.sharded.fingerprint

    def test_touch_reannotates_without_patching(self, world):
        corpus, _, scheduler, _ = world
        victim = mutable_domains(corpus)[0]
        touch_domain(corpus, victim)
        before = scheduler.counts()
        rnd = scheduler.run_round()
        after = scheduler.counts()

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        # input fingerprint moved → re-crawled and re-annotated; record
        # byte-identical → no patch
        assert victim in rnd.changed
        assert delta("cache.record.miss") == 1
        assert delta("ingest.annotated") == 1
        assert delta("ingest.output_unchanged") == 1
        assert rnd.patches == []

    def test_compaction_prunes_superseded_only(self, world):
        corpus, cache, scheduler, _ = world
        total = cache.entry_count()
        removed = scheduler.compact()
        # the lifecycle above left superseded record/crawl checkpoints
        assert removed > 0
        assert cache.entry_count() == total - removed
        live = scheduler.live_keys()
        assert cache.entry_count() == len(live)
        # every live entry still addressable: a warm rebuild still works
        rebuilt = snapshot_from_cache(corpus, PipelineOptions(), cache)
        assert rebuilt.domain_count() == len(corpus.domains)


class TestScheduling:
    @pytest.fixture(scope="class")
    def world(self, tmp_path_factory):
        corpus, cache = _world(tmp_path_factory, "ingest-sched")
        return corpus, cache

    def test_interval_staggers_and_covers(self, world):
        corpus, cache = world
        scheduler = IngestScheduler(
            corpus, PipelineOptions(), cache, seed=3,
            policy=SchedulePolicy(interval_rounds=3))
        scheduler.bootstrap()
        rounds = [set(scheduler.due_domains(n)) for n in (1, 2, 3)]
        union = set().union(*rounds)
        assert union == set(corpus.domains)
        # staggered: no single round re-checks everything
        assert all(len(r) < len(corpus.domains) for r in rounds)
        # replayable: the due set is a pure function of (seed, round)
        assert scheduler.due_domains(2) == scheduler.due_domains(2)
        other = IngestScheduler(
            corpus, PipelineOptions(), cache, seed=3,
            policy=SchedulePolicy(interval_rounds=3))
        other.ledger = scheduler.ledger
        assert other.due_domains(2) == scheduler.due_domains(2)

    def test_priority_and_trigger_beat_the_interval(self, world):
        corpus, cache = world
        vip = corpus.domains[0]
        scheduler = IngestScheduler(
            corpus, PipelineOptions(), cache, seed=3,
            policy=SchedulePolicy(interval_rounds=10 ** 6,
                                  priority=(vip,)))
        scheduler.bootstrap()
        due = scheduler.due_domains(1)
        assert vip in due
        poked = corpus.domains[1]
        scheduler.trigger(poked)
        rnd = scheduler.run_round()
        assert set(rnd.due) >= {vip, poked}
        # triggers are one-shot
        assert poked not in scheduler.due_domains(scheduler.round_no + 1)

    def test_trigger_unknown_domain_rejected(self, world):
        corpus, cache = world
        scheduler = IngestScheduler(corpus, PipelineOptions(), cache)
        with pytest.raises(IngestError):
            scheduler.trigger("nope.invalid")


class TestWatchSet:
    def test_retire_emits_remove_launch_emits_upsert(self, tmp_path):
        corpus = build_corpus(CorpusConfig(seed=SEED, fraction=0.01))
        cache = PipelineCache(tmp_path / "cache")
        initial = corpus.domains[:-1]
        scheduler = IngestScheduler(corpus, PipelineOptions(), cache,
                                    domains=initial, seed=1)
        scheduler.bootstrap()

        gone, fresh = initial[0], corpus.domains[-1]
        scheduler.retire(gone)
        scheduler.launch(fresh)
        rnd = scheduler.run_round()
        ops = {p.domain: p.op for p in rnd.patches}
        assert ops[gone] == "remove"
        assert ops[fresh] == "upsert"
        assert gone not in scheduler.ledger
        assert fresh in scheduler.ledger
        served = {r.domain for r in scheduler.records()}
        assert fresh in served and gone not in served

        with pytest.raises(IngestError):
            scheduler.retire(gone)  # already unwatched
        with pytest.raises(IngestError):
            scheduler.launch("nope.invalid")


class TestSharedCacheSteps:
    def test_pipeline_replays_what_bootstrap_stored(self, tmp_path,
                                                     monkeypatch):
        """The watcher and the pipeline share the per-domain step and its
        cache layers, so each replays exactly what the other stored."""
        corpus = build_corpus(CorpusConfig(seed=SEED, fraction=0.01))
        cache = PipelineCache(tmp_path / "cache")
        watched = corpus.domains[:8]
        scheduler = IngestScheduler(corpus, PipelineOptions(), cache,
                                    domains=watched)
        expected = [r.to_json() for r in scheduler.bootstrap()]

        warm = run_pipeline(corpus, PipelineOptions(), domains=watched,
                            cache=cache)
        counts = warm.stage_timings.counts()
        assert counts[HIT_RECORD] == len(watched)
        assert counts.get(MISS_RECORD, 0) == 0
        assert [r.to_json() for r in warm.records] == expected

        cache.invalidate("records")
        fetches = []
        real_goto = Browser.goto

        def counting_goto(self, *args, **kwargs):
            fetches.append(args)
            return real_goto(self, *args, **kwargs)

        monkeypatch.setattr(Browser, "goto", counting_goto)
        rerun = run_pipeline(corpus, PipelineOptions(), domains=watched,
                             cache=cache)
        counts = rerun.stage_timings.counts()
        assert counts[HIT_CRAWL] == len(watched)
        assert counts.get(MISS_CRAWL, 0) == 0
        assert fetches == []
        assert [r.to_json() for r in rerun.records] == expected

    def test_warm_pipeline_over_a_watched_cache_equals_a_cold_run(
            self, tmp_path):
        """Every entry the watcher writes is the one a pipeline run would
        write: after a round over a touched and an edited domain, a warm
        run over its cache reports what a cold run reports — records,
        traces, token counts and fetch counters."""
        corpus = build_corpus(CorpusConfig(seed=SEED, fraction=0.01))
        cache = PipelineCache(tmp_path / "cache")
        touched, edited = mutable_domains(corpus)[:2]
        watched = corpus.domains[:8] + [
            d for d in (touched, edited) if d not in corpus.domains[:8]]
        scheduler = IngestScheduler(corpus, PipelineOptions(), cache,
                                    domains=watched, seed=2)
        scheduler.bootstrap()
        touch_domain(corpus, touched)
        mutate_domain(corpus, edited, 1)
        rnd = scheduler.run_round()
        assert sorted(rnd.changed) == sorted([touched, edited])
        assert [p.domain for p in rnd.patches] == [edited]

        warm = run_pipeline(corpus, PipelineOptions(), domains=watched,
                            cache=cache)
        assert warm.stage_timings.counts()[HIT_RECORD] == len(watched)
        cold = run_pipeline(corpus, PipelineOptions(), domains=watched)
        assert [r.to_json() for r in warm.records] == \
            [r.to_json() for r in cold.records]
        assert warm.traces == cold.traces
        assert (warm.prompt_tokens, warm.completion_tokens) == \
            (cold.prompt_tokens, cold.completion_tokens)
        assert warm.fetch_stats == cold.fetch_stats


class TestReplayability:
    def test_same_seeds_same_bytes(self, tmp_path):
        """Two worlds built + mutated + watched under the same seeds end
        at byte-identical serving snapshots — the replay contract."""
        fingerprints = []
        for run in range(2):
            corpus = build_corpus(CorpusConfig(seed=SEED, fraction=0.01))
            cache = PipelineCache(tmp_path / f"cache-{run}")
            scheduler = IngestScheduler(corpus, PipelineOptions(), cache,
                                        seed=4)
            snapshot = build_snapshot(scheduler.bootstrap())
            feed = PolicyChangeFeed(corpus, seed=8, per_round=2)
            for _ in range(2):
                feed.next_round()
                rnd = scheduler.run_round()
                snapshot = build_snapshot(scheduler.records())
            fingerprints.append(snapshot.fingerprint)
        assert fingerprints[0] == fingerprints[1]


class TestValidation:
    def test_scheduler_requires_cache(self, small_corpus):
        with pytest.raises(IngestError, match="cache"):
            IngestScheduler(small_corpus, PipelineOptions(), None)

    def test_policy_and_feed_validation(self, small_corpus):
        with pytest.raises(IngestError):
            SchedulePolicy(interval_rounds=0)
        with pytest.raises(IngestError):
            PolicyChangeFeed(small_corpus, per_round=0)

    def test_mutate_guards(self, small_corpus):
        with pytest.raises(IngestError):
            mutate_domain(small_corpus, "nope.invalid", 1)
        failing = next(d for d in small_corpus.domains
                       if small_corpus.failure_mode_of.get(d) is not None)
        with pytest.raises(IngestError, match="failure mode"):
            mutate_domain(small_corpus, failing, 1)
