"""Each page's work happens once on the path crawl → preprocess → checkpoint.

A cold cached run over the golden domains is counted through the module
globals the pipeline looks up:

- ``parse_html`` runs once per page the crawler read links from or
  pre-processing rendered, however many of those uses a page has;
- language scoring tokenizes each rendered line of a scored page once;
- storing a records entry decodes no JSON;
- every crawl and records entry file holds the bytes ``json.dump``
  wrote for the decoded payload (the pure-Python encoder, the one
  ``json.dump`` always takes), so no cache file changes;
- the run's fetch counters count the fetches the simulated internet
  served, and a warm run over the same cache serves none yet reports
  the same counters.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import pytest

import repro.crawler.crawler as crawler_mod
import repro.pipeline.preprocess as preprocess_mod
from repro._util.textproc import tokenize
from repro.crawler.crawler import PageRecord, PrivacyCrawler
from repro.htmlkit.dom import parse_html
from repro.pipeline import PipelineOptions, run_pipeline
from repro.pipeline.cache import SCHEMA_VERSION, PipelineCache
from repro.web.net import SimulatedInternet

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_DOMAINS = json.loads(
    (GOLDEN_DIR / "meta.json").read_text())["domains"]


def _patch_everywhere(mp, real, fake) -> None:
    """Swap ``real`` for ``fake`` in every loaded module that imported it
    by name, so no caller can reach the unpatched function."""
    for module in list(sys.modules.values()):
        for name, value in list(getattr(module, "__dict__", {}).items()):
            if value is real:
                mp.setattr(module, name, fake)


def _legacy_text(payload: dict) -> str:
    return "".join(json.JSONEncoder(ensure_ascii=False).iterencode(payload))


class _Work:
    """What one cold cached run over the golden domains did."""

    def __init__(self):
        self.parsed = []        # trees parse_html returned
        self.owner = {}         # id(tree) -> (tree, page it was read from)
        self.link_trees = []    # trees the crawler read links from
        self.rendered = []      # (tree, document) pre-processing rendered
        self.scored = []        # texts language scoring saw
        self.tokenized = []     # strings tokenize saw
        self.crawls = []        # every CrawlResult
        self.store_decodes = []  # JSON decodes inside each store_record
        self.decodes = 0
        self.expected = {}      # (layer, key) -> the parent's file text
        self.fetches = []       # URLs SimulatedInternet.fetch served
        self.result = None      # the run's PipelineResult


@pytest.fixture(scope="module")
def work(small_corpus, tmp_path_factory) -> tuple[_Work, PipelineCache]:
    missing = sorted(set(GOLDEN_DOMAINS) - set(small_corpus.domains))
    assert not missing, missing
    w = _Work()
    cache = PipelineCache(tmp_path_factory.mktemp("page-work"))

    real_parse, real_tokenize = parse_html, tokenize

    def parse(html):
        tree = real_parse(html)
        w.parsed.append(tree)
        return tree

    real_tree = PageRecord.tree.fget

    def tree(page):
        root = real_tree(page)
        w.owner[id(root)] = (root, page)
        return root

    real_links = crawler_mod.extract_links_from_tree

    def links(root, base_url):
        w.link_trees.append(root)
        return real_links(root, base_url)

    real_render = preprocess_mod.render_document

    def render(root):
        document = real_render(root)
        w.rendered.append((root, document))
        return document

    real_language = preprocess_mod.page_language

    def language(text):
        w.scored.append(text)
        return real_language(text)

    def counting_tokenize(text):
        w.tokenized.append(text)
        return real_tokenize(text)

    real_crawl = PrivacyCrawler.crawl_domain

    def crawl_domain(self, domain):
        result = real_crawl(self, domain)
        w.crawls.append(result)
        return result

    real_decode = json.JSONDecoder.decode

    def decode(self, s, *args, **kwargs):
        w.decodes += 1
        return real_decode(self, s, *args, **kwargs)

    real_store_record = PipelineCache.store_record
    real_store_crawl = PipelineCache.store_crawl

    def store_record(self, key, entry):
        w.expected["records", key] = _legacy_text({
            "schema": SCHEMA_VERSION,
            "record": json.loads(entry.record.to_json()),
            "trace": asdict(entry.trace),
            "prompt_tokens": entry.prompt_tokens,
            "completion_tokens": entry.completion_tokens,
            "fetch": entry.fetch.as_dict(),
        })
        before = w.decodes
        real_store_record(self, key, entry)
        w.store_decodes.append(w.decodes - before)

    def store_crawl(self, key, entry):
        lines = None
        if entry.document is not None:
            lines = [[line.number, line.text, line.heading_level]
                     for line in entry.document.lines]
        w.expected["crawl", key] = _legacy_text({
            "schema": SCHEMA_VERSION,
            "outcome": entry.outcome,
            "trace": asdict(entry.trace),
            "fetch": entry.fetch.as_dict(),
            "document": lines,
        })
        real_store_crawl(self, key, entry)

    with pytest.MonkeyPatch.context() as mp:
        _count_fetches(mp, w.fetches)
        _patch_everywhere(mp, real_parse, parse)
        _patch_everywhere(mp, real_tokenize, counting_tokenize)
        mp.setattr(PageRecord, "tree", property(tree))
        mp.setattr(crawler_mod, "extract_links_from_tree", links)
        mp.setattr(preprocess_mod, "render_document", render)
        mp.setattr(preprocess_mod, "page_language", language)
        mp.setattr(PrivacyCrawler, "crawl_domain", crawl_domain)
        mp.setattr(json.JSONDecoder, "decode", decode)
        mp.setattr(PipelineCache, "store_record", store_record)
        mp.setattr(PipelineCache, "store_crawl", store_crawl)
        w.result = run_pipeline(small_corpus, PipelineOptions(),
                                domains=GOLDEN_DOMAINS, cache=cache)
    return w, cache


def _count_fetches(mp, sent: list) -> None:
    real_fetch = SimulatedInternet.fetch

    def fetch(self, request, *args, **kwargs):
        sent.append(request.url)
        return real_fetch(self, request, *args, **kwargs)

    mp.setattr(SimulatedInternet, "fetch", fetch)


def _page_of(w: _Work, root) -> PageRecord:
    held = w.owner.get(id(root))
    assert held is not None and held[0] is root, \
        "a tree reached a consumer without coming from PageRecord.tree"
    return held[1]


def test_each_page_is_parsed_once(work):
    w, _ = work
    link_pages = {id(_page_of(w, root)) for root in w.link_trees}
    render_pages = {id(_page_of(w, root)) for root, _ in w.rendered}
    # The crawler reads links from the homepage and from every fetched
    # footer-link or path-probe page that is HTML.
    expected_links = {
        id(page) for crawl in w.crawls for page in crawl.pages
        if page.ok and (page.source == "homepage"
                        or page.source in ("footer-link", "path-probe")
                        and not page.is_pdf)}
    assert link_pages == expected_links
    assert len(w.link_trees) == len(link_pages)
    assert len(w.rendered) == len(render_pages)
    # One parse per page used, and no parse outside those uses; pages
    # both read for links and rendered are what the shared tree saves.
    assert len(w.parsed) == len(link_pages | render_pages)
    assert {id(tree) for tree in w.parsed} == \
        {id(held[0]) for held in w.owner.values()}
    assert link_pages & render_pages
    assert len(w.parsed) < len(w.link_trees) + len(w.rendered)


def test_language_scoring_tokenizes_each_rendered_line_once(work):
    w, _ = work
    rendered_texts = Counter(document.text for _, document in w.rendered)
    assert w.scored
    assert not Counter(w.scored) - rendered_texts
    lines = Counter(line for text in w.scored
                    for line in text.split("\n") if line.strip())
    assert Counter(w.tokenized) == lines


def test_storing_a_records_entry_decodes_no_json(work):
    w, _ = work
    assert w.store_decodes == [0] * len(GOLDEN_DOMAINS)


def test_cache_files_hold_the_bytes_json_dump_wrote(work):
    w, cache = work
    assert sorted(layer for layer, _ in w.expected) == \
        ["crawl"] * len(GOLDEN_DOMAINS) + ["records"] * len(GOLDEN_DOMAINS)
    for (layer, key), text in w.expected.items():
        path = cache.root / layer / key[:2] / f"{key}.json"
        assert path.read_bytes() == text.encode("utf-8"), (layer, key)


def test_fetch_counters_count_the_fetches_sent(work, small_corpus):
    w, cache = work
    golden = json.loads((GOLDEN_DIR / "summary.json").read_text())
    assert len(w.fetches) == w.result.fetch_stats.requests == \
        golden["fetch_stats"]["requests"]
    assert w.result.fetch_stats.as_dict() == golden["fetch_stats"]
    sent = []
    with pytest.MonkeyPatch.context() as mp:
        _count_fetches(mp, sent)
        warm = run_pipeline(small_corpus, PipelineOptions(),
                            domains=GOLDEN_DOMAINS, cache=cache)
    assert sent == []
    assert warm.fetch_stats.as_dict() == golden["fetch_stats"]
