"""Property tests for the cache's content-addressed fingerprints.

Round-trip contract: a cache key is a pure function of *content* —
permuting dict insertion order, worker counts, domain order, or the order
keys are queried in never changes it; changing any pipeline option, any
lexicon entry, or any page byte always does.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus import CorpusConfig, build_corpus
from repro.pipeline import (
    CacheKeys,
    PipelineOptions,
    domain_input_fingerprint,
    options_fingerprint,
    site_fingerprint,
)
from repro.pipeline.cache import _digest

SEED = 7
FRACTION = 0.03


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(CorpusConfig(seed=SEED, fraction=FRACTION))


# -- canonical digest ---------------------------------------------------------


@given(st.dictionaries(st.text(min_size=1), st.integers(), min_size=2),
       st.randoms())
def test_digest_ignores_dict_insertion_order(mapping, rng):
    items = list(mapping.items())
    rng.shuffle(items)
    assert _digest(dict(items)) == _digest(mapping)


@given(st.dictionaries(st.text(min_size=1), st.integers(), min_size=1),
       st.text(min_size=1), st.integers())
def test_digest_changes_on_any_entry_change(mapping, key, value):
    if mapping.get(key) == value:
        mapping.pop(key)
    changed = dict(mapping)
    changed[key] = value
    assert _digest(changed) != _digest(mapping)


# -- options ------------------------------------------------------------------


_OPTION_VARIANTS = [
    (field.name,
     {"model_name": "sim-gpt-3.5-turbo", "model_seed": 12345,
      "annotator": "cascade", "escalation_threshold": 0.5,
      "practice_escalation_threshold": 0.7}.get(field.name, None))
    for field in dataclasses.fields(PipelineOptions)
]


@pytest.mark.parametrize("name,value", _OPTION_VARIANTS)
def test_every_option_field_feeds_the_fingerprint(name, value):
    base = PipelineOptions()
    if value is None:  # boolean switches: flip them
        value = not getattr(base, name)
    changed = dataclasses.replace(base, **{name: value})
    assert options_fingerprint(changed) != options_fingerprint(base)


def test_options_fingerprint_is_stable():
    assert options_fingerprint(PipelineOptions(model_seed=3)) == \
        options_fingerprint(PipelineOptions(model_seed=3))


# -- site / domain inputs -----------------------------------------------------


def test_page_registration_order_is_irrelevant(corpus):
    site = corpus.internet.sites[corpus.domains[0]]
    before = site_fingerprint(site)
    original = dict(site.pages)
    try:
        reordered = dict(reversed(list(original.items())))
        site.pages.clear()
        site.pages.update(reordered)
        assert site_fingerprint(site) == before
    finally:
        site.pages.clear()
        site.pages.update(original)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_any_page_byte_change_changes_the_key(corpus, data):
    domain = data.draw(st.sampled_from(corpus.domains[:20]))
    site = corpus.internet.sites[domain]
    path = data.draw(st.sampled_from(sorted(site.pages)))
    page = site.pages[path]
    suffix = data.draw(st.text(min_size=1, max_size=5))
    before_site = site_fingerprint(site)
    before_domain = domain_input_fingerprint(corpus, domain)
    original_html = page.html
    try:
        page.html = original_html + suffix
        assert site_fingerprint(site) != before_site
        assert domain_input_fingerprint(corpus, domain) != before_domain
    finally:
        page.html = original_html
    assert site_fingerprint(site) == before_site


def test_serving_knob_changes_change_the_key(corpus):
    site = corpus.internet.sites[corpus.domains[0]]
    before = site_fingerprint(site)
    original = site.blocks_bots
    try:
        site.blocks_bots = not original
        assert site_fingerprint(site) != before
    finally:
        site.blocks_bots = original


def test_other_domains_do_not_leak_into_a_key(corpus):
    """Mutating domain B's site must not move domain A's fingerprint."""
    a, b = corpus.domains[0], corpus.domains[1]
    before = domain_input_fingerprint(corpus, a)
    site_b = corpus.internet.sites[b]
    path = next(iter(site_b.pages))
    original = site_b.pages[path].html
    try:
        site_b.pages[path].html = original + "<p>changed</p>"
        assert domain_input_fingerprint(corpus, a) == before
    finally:
        site_b.pages[path].html = original


# -- CacheKeys ----------------------------------------------------------------


@given(rng=st.randoms())
@settings(max_examples=10, deadline=None)
def test_keys_are_independent_of_query_and_domain_order(corpus, rng):
    """Worker counts and shard orders only change *query* order; keys are
    pure per-domain functions, so any order yields the same mapping."""
    options = PipelineOptions(model_seed=3)
    domains = corpus.domains[:12]
    straight = CacheKeys(corpus, options)
    in_order = {d: (straight.record_key(d), straight.crawl_key(d))
                for d in domains}
    shuffled_domains = list(domains)
    rng.shuffle(shuffled_domains)
    shuffled = CacheKeys(corpus, options)
    permuted = {d: (shuffled.record_key(d), shuffled.crawl_key(d))
                for d in shuffled_domains}
    assert permuted == in_order


def test_lexicon_edit_moves_record_key_only(corpus):
    """A one-entry lexicon tweak must invalidate annotate/verify (record
    layer) while leaving the crawl layer addressable."""
    from repro.taxonomy import DATA_TYPE_TAXONOMY

    options = PipelineOptions(model_seed=3)
    domain = corpus.domains[0]
    before = CacheKeys(corpus, options)
    descriptor = DATA_TYPE_TAXONOMY.meta_categories[0] \
        .categories[0].descriptors[0]
    original = descriptor.surface_forms
    edited = tuple(original) + ("synthetic new cue",)
    try:
        object.__setattr__(descriptor, "surface_forms", edited)
        after = CacheKeys(corpus, options)
        assert after.lexicon_fp != before.lexicon_fp
        assert after.record_key(domain) != before.record_key(domain)
        assert after.crawl_key(domain) == before.crawl_key(domain)
    finally:
        object.__setattr__(descriptor, "surface_forms", original)
    restored = CacheKeys(corpus, options)
    assert restored.record_key(domain) == before.record_key(domain)


def test_label_cue_edit_moves_record_key_only(corpus):
    from repro.chatbot import lexicon as lexicon_mod
    from repro.taxonomy.labels import ACCESS_LABELS

    options = PipelineOptions(model_seed=3)
    domain = corpus.domains[0]
    before = CacheKeys(corpus, options)
    label = ACCESS_LABELS.labels[0]
    original = label.cues
    edited = tuple(original) + ("brand new cue phrase",)
    try:
        object.__setattr__(label, "cues", edited)
        assert lexicon_mod.lexicon_fingerprint() != before.lexicon_fp
        after = CacheKeys(corpus, options)
        assert after.record_key(domain) != before.record_key(domain)
        assert after.crawl_key(domain) == before.crawl_key(domain)
    finally:
        object.__setattr__(label, "cues", original)


def test_internet_seed_feeds_every_key(corpus):
    """Fetch outcomes are functions of the simulated internet's seed, so
    the same site bytes under a different seed must re-crawl."""
    options = PipelineOptions(model_seed=3)
    domain = corpus.domains[0]
    before = CacheKeys(corpus, options)
    record_before = before.record_key(domain)
    crawl_before = before.crawl_key(domain)
    original = corpus.internet.seed
    try:
        object.__setattr__(corpus.internet, "seed", original + 1)
        after = CacheKeys(corpus, options)
        assert after.record_key(domain) != record_before
        assert after.crawl_key(domain) != crawl_before
    finally:
        object.__setattr__(corpus.internet, "seed", original)
