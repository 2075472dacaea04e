"""Cascade annotator suite: thresholds, parity, provenance, counters.

Byte-stability across execution configurations is covered by the golden
suite (``test_golden_corpus.py``); this module tests the cascade's own
contracts — threshold resolution and validation, model provenance and
memoization, cache-key separation between annotator modes, escalation
counters, and the verdict cache's output-neutrality.
"""

from __future__ import annotations

import json

import pytest

from repro.pipeline import (
    AnnotateOptions,
    CacheKeys,
    PipelineOptions,
    annotate_policies_text,
    cascade_model_token,
    effective_thresholds,
    get_cascade_model,
    run_pipeline,
)

#: Enough annotated domains to exercise both fast path and escalation
#: without dragging the suite (the trained model is memoized per process).
DOMAINS = [
    "trailheadleisure.com",
    "paragonhome.com",
    "juniperapparel.com",
    "goldenoakapparel.com",
    "crownleisure.com",
    "velahospitality.com",
]

CASCADE = PipelineOptions(annotator="cascade")


@pytest.fixture(scope="module")
def cascade_result(small_corpus):
    return run_pipeline(small_corpus, CASCADE, domains=DOMAINS)


def _record_payloads(result):
    return [json.loads(r.to_json()) for r in result.records]


# -- options ------------------------------------------------------------------


class TestOptions:
    def test_default_thresholds(self):
        base, practice = effective_thresholds(AnnotateOptions())
        assert base == 0.0
        assert practice == pytest.approx(0.3)

    def test_practice_threshold_derivation_caps_at_one(self):
        base, practice = effective_thresholds(
            AnnotateOptions(escalation_threshold=0.9))
        assert base == 0.9
        assert practice == 1.0

    def test_explicit_practice_threshold_wins(self):
        _, practice = effective_thresholds(
            AnnotateOptions(escalation_threshold=0.5,
                            practice_escalation_threshold=0.25))
        assert practice == 0.25

    def test_bad_annotator_rejected(self):
        with pytest.raises(ValueError, match="annotator"):
            AnnotateOptions(annotator="oracle")
        with pytest.raises(ValueError, match="annotator"):
            PipelineOptions(annotator="oracle")

    def test_out_of_range_thresholds_rejected(self):
        with pytest.raises(ValueError, match="escalation_threshold"):
            AnnotateOptions(escalation_threshold=1.5)
        with pytest.raises(ValueError, match="practice_escalation_threshold"):
            PipelineOptions(practice_escalation_threshold=-0.1)


# -- model provenance ---------------------------------------------------------


class TestModelProvenance:
    def test_token_is_stable(self):
        assert cascade_model_token(CASCADE) == cascade_model_token(CASCADE)

    def test_token_ignores_thresholds(self):
        """One trained model serves a whole threshold sweep."""
        swept = PipelineOptions(annotator="cascade",
                                escalation_threshold=0.9,
                                practice_escalation_threshold=0.1)
        assert cascade_model_token(swept) == cascade_model_token(CASCADE)

    def test_token_tracks_teacher_configuration(self):
        for changed in (
            PipelineOptions(annotator="cascade",
                            model_name="sim-gpt-3.5-turbo"),
            PipelineOptions(annotator="cascade", model_seed=99),
            PipelineOptions(annotator="cascade", include_negation=False),
        ):
            assert cascade_model_token(changed) != cascade_model_token(CASCADE)

    def test_model_memoized_per_token(self):
        first = get_cascade_model(CASCADE)
        again = get_cascade_model(
            PipelineOptions(annotator="cascade", escalation_threshold=0.7))
        assert again is first

    def test_trained_model_reports_provenance(self):
        model = get_cascade_model(CASCADE)
        assert model.token == cascade_model_token(CASCADE)
        assert model.fingerprint == model.annotator.fingerprint()
        assert model.train_domains > 0
        assert model.train_records > 0
        assert model.annotator.lexicon_size > 100

    def test_model_resolved_once_per_run(self, small_corpus, cascade_result,
                                         monkeypatch):
        """A run resolves its cascade model once, not once per domain:
        each resolution re-derives the token, which renders and hashes
        every lexicon table."""
        from repro.chatbot import lexicon

        calls = []
        fingerprint = lexicon.lexicon_fingerprint
        monkeypatch.setattr(lexicon, "lexicon_fingerprint",
                            lambda: calls.append(1) or fingerprint())
        counts = []
        for size in (6, 12):
            calls.clear()
            run_pipeline(small_corpus, CASCADE,
                         domains=small_corpus.domains[:size])
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0
        # The batch document API resolves it once per call.
        counts = []
        for size in (2, 4):
            calls.clear()
            annotate_policies_text(
                {f"doc{i}.example": "We collect your email address to "
                 "send you newsletters." for i in range(size)}, CASCADE)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


# -- cache keys ---------------------------------------------------------------


class TestCacheKeys:
    def test_annotator_mode_separates_record_keys(self, small_corpus):
        chatbot = CacheKeys(small_corpus, PipelineOptions())
        cascade = CacheKeys(small_corpus, CASCADE)
        assert cascade.record_key(DOMAINS[0]) != chatbot.record_key(DOMAINS[0])
        assert cascade.crawl_key(DOMAINS[0]) == chatbot.crawl_key(DOMAINS[0])

    def test_thresholds_separate_record_keys(self, small_corpus):
        default = CacheKeys(small_corpus, CASCADE)
        swept = CacheKeys(small_corpus, PipelineOptions(
            annotator="cascade", escalation_threshold=0.5))
        assert swept.record_key(DOMAINS[0]) != default.record_key(DOMAINS[0])


# -- behaviour ----------------------------------------------------------------


class TestCascadeRun:
    def test_counters_partition_segments(self, cascade_result):
        counts = cascade_result.stage_timings.counts()
        fast = counts["cascade.fast_path_segments"]
        escalated = counts["cascade.escalated_segments"]
        assert fast > 0
        assert escalated > 0
        assert counts["annotate.chatbot_calls"] >= 0

    def test_per_task_timings_recorded(self, cascade_result):
        seconds = cascade_result.stage_timings.as_dict()
        for task in ("annotate.types", "annotate.purposes",
                     "annotate.handling", "annotate.rights"):
            assert task in seconds

    def test_cuts_chatbot_calls(self, small_corpus, cascade_result):
        legacy = run_pipeline(small_corpus, PipelineOptions(),
                              domains=DOMAINS)
        legacy_calls = legacy.stage_timings.count("annotate.chatbot_calls")
        cascade_calls = cascade_result.stage_timings.count(
            "annotate.chatbot_calls")
        assert 0 < cascade_calls < legacy_calls

    def test_deterministic_rerun(self, small_corpus, cascade_result):
        """A second run in the same process (warm verdict cache) must be
        byte-identical — the cache is a pure memo, never a behaviour
        change."""
        again = run_pipeline(small_corpus, CASCADE, domains=DOMAINS)
        assert _record_payloads(again) == _record_payloads(cascade_result)

    def test_records_annotated(self, cascade_result):
        statuses = {r.domain: r.status for r in cascade_result.records}
        assert set(statuses.values()) == {"annotated"}
        assert any(r.types for r in cascade_result.records)
        assert any(r.handling or r.rights for r in cascade_result.records)


class TestFastPathEdges:
    def test_threshold_one_computes_no_verdict(self, small_corpus,
                                               cascade_result):
        """With both thresholds at 1.0 every segment escalates without a
        verdict being computed."""
        verdict_cache = get_cascade_model(CASCADE).verdict_cache
        verdict_cache.clear()
        result = run_pipeline(
            small_corpus,
            PipelineOptions(annotator="cascade", escalation_threshold=1.0,
                            practice_escalation_threshold=1.0),
            domains=DOMAINS)
        assert verdict_cache == {}
        counts = result.stage_timings.counts()
        assert counts["cascade.fast_path_segments"] == 0
        # Both runs fall back on the same aspects, so they send the same
        # segments through the split; here all of them escalate.
        assert [r.fallback_aspects for r in result.records] == \
            [r.fallback_aspects for r in cascade_result.records]
        default = cascade_result.stage_timings.counts()
        assert counts["cascade.escalated_segments"] == (
            default["cascade.fast_path_segments"]
            + default["cascade.escalated_segments"])

    def test_chatbot_run_needs_no_cascade_model(self, small_corpus,
                                                monkeypatch):
        from repro.pipeline import cascade

        class ModelFetched(Exception):
            pass

        def refuse(options):
            raise ModelFetched(options.annotator)

        monkeypatch.setattr(cascade, "get_cascade_model", refuse)
        result = run_pipeline(small_corpus, PipelineOptions(),
                              domains=DOMAINS)
        assert {r.status for r in result.records} == {"annotated"}
        with pytest.raises(ModelFetched):
            run_pipeline(small_corpus, CASCADE, domains=DOMAINS[:1])
