"""Fault-injection stress tests for the parallel executor and the browser's
retry machinery.

The corpus here is deliberately hostile: elevated timeout/reset
probabilities and bot blocking on many sites. The executor must still (a)
lose or duplicate no trace, (b) merge per-worker ``FetchStats`` into
exactly the sum of the shard counters, and (c) stay byte-identical to the
serial run.
"""

from __future__ import annotations

import pytest

from repro.corpus import CorpusConfig, build_corpus
from repro.errors import FetchError
from repro.pipeline import (
    ExecutorOptions,
    PipelineOptions,
    crawl_domains,
    make_shards,
    run_parallel_pipeline,
    run_shard,
)
from repro.web import (
    Browser,
    FetchStats,
    SimPage,
    SimulatedInternet,
    Website,
)

SEED = 31
FRACTION = 0.03


@pytest.fixture(scope="module")
def hostile_corpus():
    """A small corpus with failure probabilities cranked up everywhere."""
    corpus = build_corpus(CorpusConfig(seed=SEED, fraction=FRACTION))
    for index, domain in enumerate(corpus.domains):
        site = corpus.internet.sites[domain]
        if index % 3 == 0:
            site.timeout_probability = max(site.timeout_probability, 0.25)
        if index % 3 == 1:
            site.reset_probability = max(site.reset_probability, 0.2)
        if index % 7 == 0:
            site.blocks_bots = True
    return corpus


@pytest.fixture(scope="module")
def executor():
    return ExecutorOptions(workers=4, shard_size=5)


@pytest.fixture(scope="module")
def parallel_result(hostile_corpus, executor):
    return run_parallel_pipeline(hostile_corpus, PipelineOptions(model_seed=2),
                                 executor=executor)


class TestParallelUnderFaults:
    def test_no_trace_lost_or_duplicated(self, hostile_corpus,
                                         parallel_result):
        domains = hostile_corpus.domains
        assert [r.domain for r in parallel_result.records] == domains
        assert list(parallel_result.traces) == domains
        assert len({r.domain for r in parallel_result.records}) == len(domains)

    def test_merged_stats_equal_sum_of_worker_stats(self, hostile_corpus,
                                                    executor,
                                                    parallel_result):
        # Shard outcomes are pure functions of (corpus, shard, options), so
        # re-running each shard serially reproduces every worker's private
        # counters; their sum must equal the merged run-level stats.
        options = PipelineOptions(model_seed=2)
        shards = make_shards(hostile_corpus.domains, executor.shard_size)
        per_worker = [
            run_shard(hostile_corpus, index, shard, options).fetch_stats
            for index, shard in enumerate(shards)
        ]
        summed = FetchStats.total(per_worker)
        assert parallel_result.fetch_stats.as_dict() == summed.as_dict()
        # The hostile corpus actually exercised the failure paths.
        assert summed.timeouts > 0
        assert summed.resets > 0
        assert summed.blocked > 0

    def test_matches_serial_run_under_faults(self, hostile_corpus,
                                             parallel_result):
        from repro.pipeline import run_pipeline

        serial = run_pipeline(hostile_corpus, PipelineOptions(model_seed=2))
        assert [r.to_json() for r in serial.records] == \
            [r.to_json() for r in parallel_result.records]
        assert serial.fetch_stats.as_dict() == \
            parallel_result.fetch_stats.as_dict()


class TestParallelCrawlUnderFaults:
    def test_crawl_domains_matches_serial_statuses(self, hostile_corpus):
        from repro.crawler import PrivacyCrawler

        sample = hostile_corpus.domains[:15]
        serial_crawler = PrivacyCrawler(
            Browser(internet=hostile_corpus.internet))
        serial = {d: serial_crawler.crawl_domain(d) for d in sample}
        parallel = crawl_domains(hostile_corpus.internet, sample,
                                 executor=ExecutorOptions(workers=4,
                                                          shard_size=3))
        assert list(parallel) == sample
        for domain in sample:
            assert parallel[domain].crawl_succeeded == \
                serial[domain].crawl_succeeded
            assert parallel[domain].navigations == serial[domain].navigations
            assert parallel[domain].errors() == serial[domain].errors()


def _flaky_net(**site_kwargs) -> tuple[SimulatedInternet, Website]:
    net = SimulatedInternet(seed=11)
    site = Website(domain="flaky.com", **site_kwargs)
    site.add_page(SimPage(path="/", html="<html><body>home</body></html>"))
    net.register(site)
    return net, site


class TestBrowserRetry:
    def test_give_up_after_max_retries(self):
        net, _ = _flaky_net(timeout_probability=1.0)
        browser = Browser(internet=net, max_retries=3)
        with pytest.raises(FetchError) as exc:
            browser.goto("https://flaky.com/")
        assert exc.value.reason == "timeout"
        # One fetch per attempt: the initial try plus three retries.
        assert browser.stats.requests == 4
        assert [e.attempt for e in browser.retry_log] == [0, 1, 2, 3]
        assert [e.gave_up for e in browser.retry_log] == \
            [False, False, False, True]
        assert all(e.reason == "timeout" for e in browser.retry_log)

    def test_retry_recovers_and_logs_failed_attempts_only(self):
        net, _ = _flaky_net(timeout_probability=0.45)
        browser = Browser(internet=net, max_retries=5)
        result = browser.goto("https://flaky.com/")
        assert result.ok
        # Failed attempts (if any) are numbered 0..k-1 and none gave up;
        # the succeeding attempt itself is not logged.
        attempts = [e.attempt for e in browser.retry_log]
        assert attempts == list(range(len(attempts)))
        assert not any(e.gave_up for e in browser.retry_log)
        assert browser.stats.requests == len(attempts) + 1

    def test_zero_retries_fails_fast(self):
        net, _ = _flaky_net(reset_probability=1.0)
        browser = Browser(internet=net, max_retries=0)
        with pytest.raises(FetchError) as exc:
            browser.goto("https://flaky.com/")
        assert exc.value.reason == "connection-reset"
        assert browser.stats.requests == 1
        assert browser.retry_log[0].gave_up

    def test_backoff_doubles_and_skips_final_attempt(self, monkeypatch):
        sleeps: list[float] = []
        monkeypatch.setattr("repro.web.browser.time.sleep", sleeps.append)
        net, _ = _flaky_net(timeout_probability=1.0)
        browser = Browser(internet=net, max_retries=3, backoff_ms=8.0)
        with pytest.raises(FetchError):
            browser.goto("https://flaky.com/")
        # Sleeps precede retries 1..3 (8ms, 16ms, 32ms); no sleep after the
        # final, giving-up attempt.
        assert sleeps == [0.008, 0.016, 0.032]

    def test_no_backoff_means_no_sleep(self, monkeypatch):
        sleeps: list[float] = []
        monkeypatch.setattr("repro.web.browser.time.sleep", sleeps.append)
        net, _ = _flaky_net(timeout_probability=1.0)
        browser = Browser(internet=net, max_retries=2)
        with pytest.raises(FetchError):
            browser.goto("https://flaky.com/")
        assert sleeps == []
