"""Process-backend executor: determinism, pickling, retries, cache safety.

The contract: ``ExecutorOptions(backend="process")`` produces records,
traces, token totals and fetch stats byte-identical to the serial run —
whether the worker inherits the parent's corpus through ``fork`` or
reconstructs it from :class:`CorpusConfig` — and the content-addressed
store stays uncorrupted under concurrent multi-process writers. Fetch
stats come back inside each shard's outcome; the parent's
:class:`~repro.web.net.SimulatedInternet` keeps no counters to match.
"""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from repro.corpus import CorpusConfig, build_corpus
from repro.pipeline import (
    ExecutorOptions,
    PipelineOptions,
    PipelineResult,
    ShardTask,
    run_pipeline,
    run_shard,
    run_shard_task,
)
from repro.pipeline.cache import CachedRecord, PipelineCache
from repro.pipeline.records import DomainAnnotations
from repro.pipeline.runner import DomainTrace
from repro.web.net import FetchStats
import repro.pipeline.parallel as parallel_mod

SEED = 7
FRACTION = 0.03
OPTS = PipelineOptions(model_seed=3)


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(CorpusConfig(seed=SEED, fraction=FRACTION))


@pytest.fixture(scope="module")
def serial_result(corpus):
    return run_pipeline(corpus, OPTS)


def _signature(result: PipelineResult):
    return (
        [r.to_json() for r in result.records],
        {d: vars(t) for d, t in result.traces.items()},
        result.prompt_tokens,
        result.completion_tokens,
        result.fetch_stats.as_dict(),
    )


class TestProcessBackendDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_serial(self, corpus, serial_result, workers):
        result = run_pipeline(
            corpus, OPTS,
            executor=ExecutorOptions(workers=workers, backend="process"))
        assert _signature(result) == _signature(serial_result)

    def test_serial_backend_matches_serial(self, corpus, serial_result):
        result = run_pipeline(
            corpus, OPTS,
            executor=ExecutorOptions(workers=4, backend="serial"))
        assert _signature(result) == _signature(serial_result)

    def test_progress_covers_every_domain(self, corpus):
        calls = []
        run_pipeline(corpus, OPTS,
                     executor=ExecutorOptions(workers=2, backend="process"),
                     progress=lambda done, total, domain:
                     calls.append((done, total, domain)))
        assert sorted(done for done, _, _ in calls) == \
            list(range(1, len(corpus.domains) + 1))
        assert {domain for _, _, domain in calls} == set(corpus.domains)


class TestShardTaskProtocol:
    def test_task_round_trips_through_pickle(self, corpus):
        task = ShardTask(corpus_config=corpus.config, index=3,
                         domains=tuple(corpus.domains[:4]), options=OPTS,
                         cache_dir="/tmp/nowhere", max_retries=2,
                         retry_backoff=0.5)
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task

    def test_outcome_round_trips_through_pickle(self, corpus):
        outcome = run_shard(corpus, 0, list(corpus.domains[:3]), OPTS)
        clone = pickle.loads(pickle.dumps(outcome))
        assert [r.to_json() for r in clone.records] == \
            [r.to_json() for r in outcome.records]
        assert clone.fetch_stats.as_dict() == outcome.fetch_stats.as_dict()
        assert clone.timings.as_dict().keys() == outcome.timings.as_dict().keys()

    def test_simulated_internet_is_picklable(self, corpus):
        clone = pickle.loads(pickle.dumps(corpus.internet))
        assert clone.seed == corpus.internet.seed
        assert set(clone.sites) == set(corpus.internet.sites)

    def test_worker_reconstructs_corpus_from_config(self, corpus,
                                                    monkeypatch):
        """The spawn path: no inherited corpus, rebuild from CorpusConfig."""
        monkeypatch.setattr(parallel_mod, "_FORK_CORPUS", None)
        monkeypatch.setattr(parallel_mod, "_WORKER_CORPUS", None)
        task = ShardTask(corpus_config=corpus.config, index=0,
                         domains=tuple(corpus.domains[:4]), options=OPTS)
        task = pickle.loads(pickle.dumps(task))
        outcome = run_shard_task(task)
        reference = run_shard(corpus, 0, list(corpus.domains[:4]), OPTS)
        assert [r.to_json() for r in outcome.records] == \
            [r.to_json() for r in reference.records]
        assert outcome.fetch_stats.as_dict() == \
            reference.fetch_stats.as_dict()


class TestProcessBackendRetries:
    def test_crashing_shard_retries_inside_worker(self, corpus, tmp_path,
                                                  monkeypatch):
        """A shard that crashes once succeeds on in-worker retry.

        The flag file is cross-process state: the first attempt (in
        whichever worker process picks the shard up) creates it and
        crashes; the retry sees it and proceeds.
        """
        flag = tmp_path / "crashed-once"
        real_run_shard = parallel_mod.run_shard

        def flaky_run_shard(corpus, index, domains, options, progress=None,
                            cache=None, keys=None):
            if index == 0 and not flag.exists():
                flag.write_text("boom")
                raise RuntimeError("injected shard crash")
            return real_run_shard(corpus, index, domains, options, progress,
                                  cache=cache, keys=keys)

        # Fork children inherit the patched module.
        monkeypatch.setattr(parallel_mod, "run_shard", flaky_run_shard)
        result = run_pipeline(
            corpus, OPTS,
            executor=ExecutorOptions(workers=2, backend="process",
                                     max_retries=1, retry_backoff=0.0))
        assert flag.exists(), "the injected crash never fired"
        assert [r.domain for r in result.records] == corpus.domains

    def test_exhausted_retries_propagate(self, corpus, monkeypatch):
        def always_crash(*args, **kwargs):
            raise RuntimeError("permanent shard failure")

        monkeypatch.setattr(parallel_mod, "run_shard", always_crash)
        with pytest.raises(RuntimeError, match="permanent shard failure"):
            run_pipeline(
                corpus, OPTS,
                executor=ExecutorOptions(workers=2, backend="process",
                                         max_retries=1, retry_backoff=0.0))


class TestProcessBackendCache:
    def test_cold_then_warm_through_process_pool(self, corpus, tmp_path,
                                                 serial_result):
        executor = ExecutorOptions(workers=4, backend="process")
        cold = run_pipeline(corpus, OPTS, executor=executor,
                            cache_dir=tmp_path / "store")
        assert _signature(cold) == _signature(serial_result)
        counts = cold.stage_timings.counts()
        assert counts.get("cache.record.miss") == len(corpus.domains)

        warm = run_pipeline(corpus, OPTS, executor=executor,
                            cache_dir=tmp_path / "store")
        assert _signature(warm) == _signature(serial_result)
        counts = warm.stage_timings.counts()
        assert counts.get("cache.record.hit") == len(corpus.domains)
        assert counts.get("cache.record.miss", 0) == 0

    def test_warm_run_readable_across_backends(self, corpus, tmp_path,
                                               serial_result):
        """Entries checkpointed by worker processes replay in a serial run."""
        run_pipeline(corpus, OPTS,
                     executor=ExecutorOptions(workers=2, backend="process"),
                     cache_dir=tmp_path / "store")
        warm = run_pipeline(corpus, OPTS, cache_dir=tmp_path / "store")
        assert _signature(warm) == _signature(serial_result)
        assert warm.stage_timings.counts().get("cache.record.hit") == \
            len(corpus.domains)


# -- concurrent-writer stress --------------------------------------------------

_STRESS_KEYS = [f"{i:02x}" * 32 for i in range(8)]


def _stress_entry(worker: int, round_: int) -> CachedRecord:
    record = DomainAnnotations(domain=f"w{worker}.com", sector="XX",
                               status="annotated")
    return CachedRecord(record=record,
                        trace=DomainTrace(domain=f"w{worker}.com"),
                        prompt_tokens=worker, completion_tokens=round_,
                        fetch=FetchStats(requests=worker + round_))


def _hammer_store(args) -> int:
    """Worker: interleave writes and reads of the same keys; count torn reads.

    Every load must observe either a miss or a complete, schema-valid
    entry — never a partially written file.
    """
    root, worker = args
    cache = PipelineCache(root)
    torn = 0
    for round_ in range(20):
        for key in _STRESS_KEYS:
            cache.store_record(key, _stress_entry(worker, round_))
            loaded = cache.load_record(key)
            if loaded is None:
                continue  # a concurrent writer may have won; miss is fine
            payload = loaded.record
            if payload.status != "annotated" or not payload.domain:
                torn += 1
    return torn


class TestConcurrentCacheWriters:
    def test_multi_process_writers_never_tear_entries(self, tmp_path):
        """4 processes × 20 rounds × 8 shared keys: atomic temp-file +
        os.replace means readers only ever see whole entries."""
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(4) as pool:
            torn = pool.map(_hammer_store,
                            [(str(tmp_path), w) for w in range(4)])
        assert sum(torn) == 0
        cache = PipelineCache(tmp_path)
        for key in _STRESS_KEYS:
            entry = cache.load_record(key)
            assert entry is not None
            assert entry.record.status == "annotated"
        # No temp-file debris left behind.
        assert not list(tmp_path.rglob("*.tmp*"))

    def test_interrupted_write_is_invisible(self, tmp_path):
        """A half-written (torn) file is treated as a miss, not an error."""
        cache = PipelineCache(tmp_path)
        key = _STRESS_KEYS[0]
        cache.store_record(key, _stress_entry(0, 0))
        path = cache._path("records", key)
        whole = path.read_text(encoding="utf-8")
        path.write_text(whole[: len(whole) // 2], encoding="utf-8")
        assert cache.load_record(key) is None
