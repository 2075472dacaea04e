"""Tests for the distillation extension (§6 future work)."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distill import DistilledAnnotator, evaluate_distillation
from repro.pipeline import (
    DomainAnnotations,
    HandlingAnnotation,
    PurposeAnnotation,
    TypeAnnotation,
)


def _record(domain, phrases):
    return DomainAnnotations(
        domain=domain, sector="IT", status="annotated",
        types=[
            TypeAnnotation(category=c, meta_category="X", descriptor=d,
                           verbatim=v, line=1)
            for c, d, v in phrases
        ],
        handling=[
            HandlingAnnotation(group="Data retention", label="Limited",
                               verbatim="we retain your personal information "
                                        "for as long as necessary", line=2),
        ],
    )


_TRAINING = [
    _record(f"t{i}.com", [
        ("Contact info", "postal address", "mailing address"),
        ("Contact info", "email address", "e-mail address"),
        ("Device info", "browser type", "browser type"),
    ])
    for i in range(4)
]


class TestDistilledAnnotator:
    def test_training_builds_lexicon(self):
        annotator = DistilledAnnotator.train(_TRAINING)
        assert annotator.lexicon_size >= 3
        assert annotator.profile_count() >= 1

    def test_learned_normalization_applied(self):
        annotator = DistilledAnnotator.train(_TRAINING)
        output = annotator.annotate_lines(
            [(1, "We collect your mailing address when you register.")]
        )
        assert [(m.category, m.descriptor) for m in output.types] == \
            [("Contact info", "postal address")]

    def test_requires_collection_context(self):
        annotator = DistilledAnnotator.train(_TRAINING)
        output = annotator.annotate_lines(
            [(1, "Our office mailing address is listed below.")]
        )
        assert output.types == []

    def test_practice_profile_matching(self):
        annotator = DistilledAnnotator.train(_TRAINING)
        output = annotator.annotate_lines(
            [(1, "We retain your personal information for as long as "
                 "necessary to provide services.")]
        )
        assert any(p.label == "Limited" for p in output.practices)

    def test_low_support_phrases_excluded(self):
        records = [_record("one.com", [("Contact info", "fax number",
                                        "facsimile number")])]
        annotator = DistilledAnnotator.train(records)
        output = annotator.annotate_lines(
            [(1, "We collect your facsimile number.")]
        )
        assert output.types == []

    def test_untrained_annotator_rejected(self):
        with pytest.raises(RuntimeError):
            DistilledAnnotator().annotate_lines([(1, "x")])


class TestTrainingEdgeCases:
    def test_empty_training_set(self):
        annotator = DistilledAnnotator.train([])
        assert annotator.lexicon_size == 0
        assert annotator.profile_count() == 0
        output = annotator.annotate_lines(
            [(1, "We collect your email address.")])
        assert output.types == []
        assert output.practices == []

    def test_single_domain_training(self):
        annotator = DistilledAnnotator.train(_TRAINING[:1])
        # One domain cannot clear MIN_PHRASE_SUPPORT for taxonomy phrases,
        # but training itself must succeed and stay usable.
        output = annotator.annotate_lines(
            [(1, "We collect your mailing address.")])
        assert output.types == []

    def test_labels_absent_from_training(self):
        # No purpose annotations in the training set: the purposes matcher
        # exists but never fires, and no practice profile invents labels.
        annotator = DistilledAnnotator.train(_TRAINING)
        output = annotator.annotate_lines(
            [(1, "We use your data to provide and improve our services "
                 "and for marketing purposes.")])
        assert output.purposes == []
        groups = {p.group for p in output.practices}
        assert groups <= {"Data retention"}

    def test_purpose_labels_learned_when_present(self):
        records = []
        for i in range(4):
            record = dataclasses.replace(_record(f"p{i}.com", []), purposes=[
                PurposeAnnotation(category="Marketing", meta_category="X",
                                  descriptor="targeted advertising",
                                  verbatim="personalized advertising",
                                  line=3),
            ])
            records.append(record)
        annotator = DistilledAnnotator.train(records)
        output = annotator.annotate_lines(
            [(1, "We use your information for personalized advertising.")])
        assert [(m.category, m.descriptor) for m in output.purposes] == \
            [("Marketing", "targeted advertising")]

    def test_annotate_empty_and_whitespace_lines(self):
        annotator = DistilledAnnotator.train(_TRAINING)
        output = annotator.annotate_lines(
            [(1, ""), (2, "   "), (3, "\t\n"), (4, "   ")])
        assert output.types == []
        assert output.purposes == []
        assert output.practices == []

    def test_annotate_no_lines(self):
        annotator = DistilledAnnotator.train(_TRAINING)
        output = annotator.annotate_lines([])
        assert output.types == []
        assert output.practices == []


class TestOrderInvariance:
    @settings(max_examples=25, deadline=None)
    @given(st.permutations(range(len(_TRAINING))))
    def test_fingerprint_invariant_under_permutation(self, order):
        """Training is a pure function of the record *set*: any input
        order yields the same fingerprint (and therefore the same
        serialized state)."""
        baseline = DistilledAnnotator.train(_TRAINING)
        shuffled = DistilledAnnotator.train([_TRAINING[i] for i in order])
        assert shuffled.fingerprint() == baseline.fingerprint()
        assert shuffled.to_payload() == baseline.to_payload()

    def test_fingerprint_sensitive_to_content(self):
        baseline = DistilledAnnotator.train(_TRAINING)
        extra = _TRAINING + [_record("new.com", [
            ("Contact info", "phone number", "telephone number"),
        ])]
        assert DistilledAnnotator.train(extra).fingerprint() != \
            baseline.fingerprint()


class TestEvaluation:
    def test_distillation_on_small_corpus(self, small_corpus,
                                          pipeline_result):
        report = evaluate_distillation(small_corpus, pipeline_result.records,
                                       seed=1)
        assert report.train_domains > report.test_domains > 0
        assert report.lexicon_size > 100
        assert report.type_agreement_recall > 0.75
        assert report.oracle_type_precision > 0.8
        assert report.practice_agreement_recall > 0.5

    def test_deterministic(self, small_corpus, pipeline_result):
        a = evaluate_distillation(small_corpus, pipeline_result.records,
                                  seed=2)
        b = evaluate_distillation(small_corpus, pipeline_result.records,
                                  seed=2)
        assert a == b
