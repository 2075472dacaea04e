"""Determinism of the sharded parallel executor.

The contract under test: for a fixed corpus and model seed,
``run_pipeline(workers=N)`` produces records, traces, and aggregate stats
byte-identical to the serial run — for every worker count, shard size, and
domain ordering.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.corpus import CorpusConfig, build_corpus
from repro.pipeline import (
    ExecutorOptions,
    PipelineOptions,
    annotate_policies_html,
    domain_model_seed,
    make_shards,
    run_parallel_pipeline,
    run_pipeline,
)
from repro.web import SimulatedInternet

SEED = 7
FRACTION = 0.03


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(CorpusConfig(seed=SEED, fraction=FRACTION))


@pytest.fixture(scope="module")
def serial_result(corpus):
    return run_pipeline(corpus, PipelineOptions(model_seed=3))


def _signature(result):
    """Everything the acceptance criteria compare, JSON-serialised."""
    return (
        [r.to_json() for r in result.records],
        {d: vars(t) for d, t in result.traces.items()},
        result.prompt_tokens,
        result.completion_tokens,
        sum(r.hallucinations_filtered for r in result.records),
    )


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_parallel_matches_serial(self, corpus, serial_result, workers):
        parallel = run_pipeline(corpus, PipelineOptions(model_seed=3),
                                workers=workers)
        assert _signature(parallel) == _signature(serial_result)

    @pytest.mark.parametrize("shard_size", [1, 3, 1000])
    def test_shard_size_invariance(self, corpus, serial_result, shard_size):
        parallel = run_parallel_pipeline(
            corpus, PipelineOptions(model_seed=3),
            executor=ExecutorOptions(workers=4, shard_size=shard_size),
        )
        assert _signature(parallel) == _signature(serial_result)

    def test_fetch_stats_match_serial(self, corpus, serial_result):
        parallel = run_pipeline(corpus, PipelineOptions(model_seed=3),
                                workers=4)
        assert parallel.fetch_stats.as_dict() == \
            serial_result.fetch_stats.as_dict()
        assert parallel.fetch_stats.requests > 0

    def test_shuffled_subsets_are_order_invariant(self, corpus):
        subset = corpus.domains[:12]
        shuffled = list(subset)
        random.Random(0).shuffle(shuffled)
        straight = run_pipeline(corpus, PipelineOptions(model_seed=3),
                                domains=subset, workers=2)
        permuted = run_pipeline(corpus, PipelineOptions(model_seed=3),
                                domains=shuffled, workers=4)
        assert {r.domain: r.to_json() for r in straight.records} == \
            {r.domain: r.to_json() for r in permuted.records}
        # Output order follows the input ordering exactly.
        assert [r.domain for r in permuted.records] == shuffled

    def test_records_follow_corpus_order(self, corpus, serial_result):
        parallel = run_pipeline(corpus, PipelineOptions(model_seed=3),
                                workers=4)
        assert [r.domain for r in parallel.records] == corpus.domains
        assert list(parallel.traces) == corpus.domains


class TestSharding:
    @given(n=st.integers(0, 200), shard_size=st.integers(1, 40))
    def test_shards_partition_exactly(self, n, shard_size):
        domains = [f"d{i}.com" for i in range(n)]
        shards = make_shards(domains, shard_size)
        assert [d for shard in shards for d in shard] == domains
        assert all(1 <= len(shard) <= shard_size for shard in shards)

    def test_bad_shard_size_rejected(self):
        with pytest.raises(ValueError):
            make_shards(["a.com"], 0)

    @pytest.mark.parametrize("kwargs", [
        {"workers": 0}, {"shard_size": 0},
        {"max_retries": -1}, {"retry_backoff": -0.1},
        {"backend": "greenlet"}, {"backend": ""},
    ])
    def test_executor_options_validated(self, kwargs):
        with pytest.raises(ValueError):
            ExecutorOptions(**kwargs)


class TestProgressAndGuards:
    def test_progress_reports_each_domain_once(self, corpus):
        calls = []
        run_pipeline(corpus, PipelineOptions(model_seed=3), workers=4,
                     progress=lambda done, total, domain:
                     calls.append((done, total, domain)))
        dones = sorted(done for done, _, _ in calls)
        assert dones == list(range(1, len(corpus.domains) + 1))
        assert {domain for _, _, domain in calls} == set(corpus.domains)
        assert all(total == len(corpus.domains) for _, total, _ in calls)

    def test_conflicting_worker_specs_rejected(self, corpus):
        with pytest.raises(ValueError):
            run_pipeline(corpus, workers=2,
                         executor=ExecutorOptions(workers=4))

    def test_domain_model_seed_is_stable(self):
        assert domain_model_seed(3, "a.com") == domain_model_seed(3, "a.com")
        assert domain_model_seed(3, "a.com") != domain_model_seed(3, "b.com")
        assert domain_model_seed(3, "a.com") != domain_model_seed(4, "a.com")


class TestSinglePath:
    """A plain ``run_pipeline`` call is one inline shard of the executor."""

    def test_default_run_is_one_shard_of_every_domain(self, corpus,
                                                      monkeypatch):
        import repro.pipeline.parallel as par

        real_run_shard = par.run_shard
        calls = []

        def spy(corpus, index, domains, *args, **kwargs):
            calls.append(list(domains))
            return real_run_shard(corpus, index, domains, *args, **kwargs)

        monkeypatch.setattr(par, "run_shard", spy)
        ds = corpus.domains[:5]
        run_pipeline(corpus, PipelineOptions(model_seed=3), domains=ds)
        assert calls == [ds]

    @pytest.mark.parametrize("workers", [None, 2])
    def test_duplicate_domains_processed_once(self, corpus, serial_result,
                                              workers):
        d = corpus.domains
        calls = []
        result = run_pipeline(corpus, PipelineOptions(model_seed=3),
                              domains=d[:3] + d[:1], workers=workers,
                              progress=lambda done, total, domain:
                              calls.append((done, total)))
        assert [r.to_json() for r in result.records] == \
            [r.to_json() for r in serial_result.records[:3]]
        assert list(result.traces) == d[:3]
        assert calls[-1] == (3, 3)


class TestCrawlDomainsDedupe:
    """Duplicate input domains must not collapse the progress/result
    accounting (the result dict is keyed by domain, so a second occurrence
    could only ever shadow the first)."""

    def test_duplicates_crawled_once_keeping_first_occurrence_order(self,
                                                                    corpus):
        from repro.pipeline import crawl_domains

        unique = corpus.domains[:4]
        doubled = unique + unique[::-1] + unique[:2]
        calls = []
        results = crawl_domains(
            corpus.internet, doubled,
            executor=ExecutorOptions(workers=2, shard_size=2),
            progress=lambda done, total, domain:
            calls.append((done, total, domain)))
        assert list(results) == unique
        # Progress totals reflect the unique count, not the raw input.
        assert all(total == len(unique) for _, total, _ in calls)
        assert sorted(done for done, _, _ in calls) == \
            list(range(1, len(unique) + 1))
        assert {domain for _, _, domain in calls} == set(unique)

    def test_duplicated_input_matches_unique_input(self, corpus):
        from repro.pipeline import crawl_domains

        unique = corpus.domains[:4]
        plain = crawl_domains(corpus.internet, unique,
                              executor=ExecutorOptions(workers=2,
                                                       shard_size=2))
        doubled = crawl_domains(corpus.internet, unique * 3,
                                executor=ExecutorOptions(workers=2,
                                                         shard_size=2))
        assert list(doubled) == list(plain)
        for domain in unique:
            assert doubled[domain].navigations == plain[domain].navigations
            assert [p.requested_url for p in doubled[domain].pages] == \
                [p.requested_url for p in plain[domain].pages]

    def test_duplicates_issue_no_extra_requests(self, corpus, monkeypatch):
        from repro.pipeline import crawl_domains

        sent = []
        real_fetch = SimulatedInternet.fetch

        def fetch(self, *args, **kwargs):
            sent.append(args[0].url)
            return real_fetch(self, *args, **kwargs)

        monkeypatch.setattr(SimulatedInternet, "fetch", fetch)
        unique = corpus.domains[4:8]
        crawl_domains(corpus.internet, unique,
                      executor=ExecutorOptions(workers=2, shard_size=2))
        once = sorted(sent)
        sent.clear()
        crawl_domains(corpus.internet, unique * 4,
                      executor=ExecutorOptions(workers=2, shard_size=2))
        assert once and sorted(sent) == once


class TestRetryBackoff:
    def test_zero_backoff_never_blocks_a_worker_slot(self, corpus,
                                                     monkeypatch):
        """A crashing-then-succeeding shard with retry_backoff=0 must retry
        immediately: any call to the backoff sleep would park the worker
        slot (serializing the pool), so the test makes sleeping fatal."""
        import repro.pipeline.parallel as par

        real_run_shard = par.run_shard
        crashed = []

        def flaky(corpus_, index, domains, options, progress=None,
                  cache=None, keys=None):
            if index == 0 and not crashed:
                crashed.append(index)
                raise RuntimeError("transient shard crash")
            return real_run_shard(corpus_, index, domains, options, progress,
                                  cache=cache, keys=keys)

        def no_sleep(seconds):
            raise AssertionError(
                f"retry slept {seconds}s despite retry_backoff=0")

        monkeypatch.setattr(par, "run_shard", flaky)
        monkeypatch.setattr(par, "_sleep", no_sleep)
        result = run_pipeline(
            corpus, PipelineOptions(model_seed=3),
            executor=ExecutorOptions(workers=2, max_retries=2,
                                     retry_backoff=0.0))
        assert crashed == [0], "the injected crash never fired"
        assert [r.domain for r in result.records] == corpus.domains

    def test_backoff_schedule_doubles_per_retry(self, monkeypatch):
        import repro.pipeline.parallel as par

        delays = []
        monkeypatch.setattr(par, "_sleep", delays.append)
        calls = []

        def run():
            calls.append(None)
            if len(calls) < 3:
                raise RuntimeError("transient")
            return par.ShardOutcome(index=0, domains=[])

        outcome = par._run_with_retries(run, max_retries=2,
                                        retry_backoff=0.2)
        assert outcome.attempts == 3
        assert delays == [0.2, 0.4]

    def test_zero_backoff_schedule_skips_sleep_entirely(self, monkeypatch):
        import repro.pipeline.parallel as par

        delays = []
        monkeypatch.setattr(par, "_sleep", delays.append)
        calls = []

        def run():
            calls.append(None)
            if len(calls) < 2:
                raise RuntimeError("transient")
            return par.ShardOutcome(index=0, domains=[])

        outcome = par._run_with_retries(run, max_retries=1,
                                        retry_backoff=0.0)
        assert outcome.attempts == 2
        assert delays == []


class TestBatchApi:
    HTML = """
    <html><body>
    <h1>Privacy Policy</h1>
    <h2>Information We Collect</h2>
    <p>We collect your email address and phone number.</p>
    <h2>Your Rights</h2>
    <p>You may request access to your personal information.</p>
    </body></html>
    """

    def test_batch_matches_across_worker_counts(self):
        policies = {f"site{i}.com": self.HTML for i in range(6)}
        one = annotate_policies_html(policies, workers=1)
        four = annotate_policies_html(policies, workers=4)
        assert {d: r.to_json() for d, r in one.items()} == \
            {d: r.to_json() for d, r in four.items()}
        assert all(r.status == "annotated" for r in one.values())
