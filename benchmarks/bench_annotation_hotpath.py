#!/usr/bin/env python
"""Before/after benchmark for the annotation hot path.

Measures the pipeline's annotation stage twice on the same corpus:

* **serial** — the pre-index implementation, reconstructed here: the
  lazy-sorted first-token lexicon scanner, the always-decompose
  ``normalize_for_match``, an unmemoized hallucination verifier, and
  per-task recomputation of every per-line quantity (no document index:
  ``repro.pipeline.runner.DocumentIndex`` is swapped for a stub whose
  ``for_document`` returns ``None``).
* **indexed** — the shipped hot path: shared per-document analysis index,
  compiled lexicon trie, ASCII-fast normalization, memoized verifier.

Both runs must produce byte-identical records (asserted); only the clock
may differ. Results land in ``BENCH_annotation.json`` at the repo root so
the perf trajectory is tracked across PRs:

    {"corpus_domains": N, "serial_s": ..., "indexed_s": ..., "speedup": ...}

plus end-to-end wall-clock extras (serial and ``--workers 4``) quoted in
the README's performance section.

Usage::

    PYTHONPATH=src python benchmarks/bench_annotation_hotpath.py
    PYTHONPATH=src python benchmarks/bench_annotation_hotpath.py \
        --domains 10 --out /tmp/smoke.json
"""

from __future__ import annotations

import argparse
import re
import time
import unicodedata
from pathlib import Path

import repro._util.textproc as textproc
import repro.chatbot.aspects as aspects_mod
import repro.chatbot.engine as engine_mod
import repro.chatbot.practices as practices_mod
import repro.pipeline.runner as runner_mod
import repro.pipeline.verify as verify_mod
from repro._util import write_json_atomic
from repro.corpus import CorpusConfig, build_corpus
from repro.pipeline import PipelineOptions, run_pipeline
from repro.pipeline.verify import HallucinationVerifier

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Domain universe size at fraction=1.0 (see repro.corpus.build).
FULL_UNIVERSE = 2892


# -- reconstructed pre-index implementation (the "before" under test) ----------


class LegacyPhraseMatcher:
    """The seed's lexicon scanner: first-stem dict of phrase lists, sorted
    longest-first on (lazy) first use, linear probe per candidate entry."""

    def __init__(self) -> None:
        self._index: dict[str, list[tuple[tuple[str, ...], str, object]]] = {}
        self._dirty = False

    def add(self, phrase: str, payload: object) -> None:
        from repro.chatbot.lexicon import _TOKEN_RE, stem_token

        stems = tuple(stem_token(tok) for tok in _TOKEN_RE.findall(phrase))
        if not stems:
            raise ValueError(f"phrase {phrase!r} has no tokens")
        self._index.setdefault(stems[0], []).append((stems, phrase, payload))
        self._dirty = True

    def _prepare(self) -> None:
        if self._dirty:
            for entries in self._index.values():
                entries.sort(key=lambda e: -len(e[0]))
            self._dirty = False

    def find_all(self, text, tokens=None):
        from repro.chatbot.lexicon import PhraseMatch, tokenize_with_spans

        self._prepare()
        if tokens is None:
            tokens = tokenize_with_spans(text)
        matches = []
        i = 0
        n = len(tokens)
        while i < n:
            entries = self._index.get(tokens[i].stem)
            matched = False
            if entries:
                for stems, phrase, payload in entries:
                    length = len(stems)
                    if i + length <= n and all(
                        tokens[i + k].stem == stems[k]
                        for k in range(1, length)
                    ):
                        matches.append(PhraseMatch(
                            phrase_key=phrase, payload=payload,
                            token_start=i, token_end=i + length,
                            char_start=tokens[i].start,
                            char_end=tokens[i + length - 1].end,
                        ))
                        i += length
                        matched = True
                        break
            if not matched:
                i += 1
        return matches

    def __len__(self) -> int:
        return sum(len(v) for v in self._index.values())


_LEGACY_WS_RE = re.compile(r"\s+")


def _legacy_normalize_for_match(text: str) -> str:
    """The seed's normalizer: unconditional NFKD + per-char combining scan."""
    text = unicodedata.normalize("NFKD", text)
    text = "".join(ch for ch in text if not unicodedata.combining(ch))
    text = text.replace("‘", "'").replace("’", "'")
    text = text.replace("“", '"').replace("”", '"')
    text = text.replace("–", "-").replace("—", "-")
    text = text.lower()
    return _LEGACY_WS_RE.sub(" ", text).strip()


def _legacy_build_match_streams(source_text, stem=None):
    """The seed's verifier stream build: stem call per token, no word memo."""
    from repro.chatbot.lexicon import stem_token

    stem = stem or stem_token
    normalized = " " + textproc.normalize_for_match(source_text) + " "
    stemmed = " " + " ".join(stem(t) for t in normalized.split()) + " "
    return normalized, stemmed


def _legacy_trigger_contexts(self, analysis, taxonomy_name):
    """The seed's trigger-context scan: per-sentence search on every line,
    with no whole-line early-out."""
    key = ("trigger-contexts", taxonomy_name)
    cached = analysis.memo.get(key)
    if cached is None:
        text = analysis.text
        trigger_re = engine_mod._TRIGGERS[taxonomy_name]
        cached = tuple(
            span for span in analysis.sentence_spans
            if trigger_re.search(text[span[0]:span[1]])
        )
        analysis.memo[key] = cached
    return cached


def _legacy_build_matcher(taxonomy) -> LegacyPhraseMatcher:
    from repro.taxonomy import DescriptorRef

    matcher = LegacyPhraseMatcher()
    for meta in taxonomy.meta_categories:
        for category in meta.categories:
            for desc in category.descriptors:
                ref = DescriptorRef(meta.name, category.name, desc.name)
                for form in desc.all_surface_forms():
                    matcher.add(form, ref)
    return matcher


class _NoDocumentIndex:
    """Stands in for ``DocumentIndex`` in the runner: the seed built none."""

    @staticmethod
    def for_document(document):
        return None


class _legacy_hot_path:
    """Context manager swapping in the reconstructed seed implementation."""

    def __enter__(self):
        from repro.taxonomy import DATA_TYPE_TAXONOMY, PURPOSE_TAXONOMY

        cache: dict[str, LegacyPhraseMatcher] = {}

        def legacy_matcher_for(taxonomy_name: str) -> LegacyPhraseMatcher:
            if taxonomy_name not in cache:
                taxonomy = (DATA_TYPE_TAXONOMY
                            if taxonomy_name == "data-types"
                            else PURPOSE_TAXONOMY)
                cache[taxonomy_name] = _legacy_build_matcher(taxonomy)
            return cache[taxonomy_name]

        self._saved = (
            engine_mod._matcher_for,
            textproc.normalize_for_match,
            verify_mod.normalize_for_match,
            HallucinationVerifier.contains,
            engine_mod.AnnotationEngine._trigger_contexts,
            verify_mod.build_match_streams,
            aspects_mod._CUE_SCREENS,
            practices_mod._GROUP_SCREENS,
            practices_mod._has_period_hint,
            runner_mod.DocumentIndex,
        )
        engine_mod._matcher_for = legacy_matcher_for
        textproc.normalize_for_match = _legacy_normalize_for_match
        verify_mod.normalize_for_match = _legacy_normalize_for_match
        HallucinationVerifier.contains = HallucinationVerifier._contains
        # The seed had none of the conservative prescreens either:
        engine_mod.AnnotationEngine._trigger_contexts = _legacy_trigger_contexts
        verify_mod.build_match_streams = _legacy_build_match_streams
        aspects_mod._CUE_SCREENS = {}
        practices_mod._GROUP_SCREENS = {}
        practices_mod._has_period_hint = lambda sentence: True
        runner_mod.DocumentIndex = _NoDocumentIndex
        return self

    def __exit__(self, *exc):
        (engine_mod._matcher_for,
         textproc.normalize_for_match,
         verify_mod.normalize_for_match,
         HallucinationVerifier.contains,
         engine_mod.AnnotationEngine._trigger_contexts,
         verify_mod.build_match_streams,
         aspects_mod._CUE_SCREENS,
         practices_mod._GROUP_SCREENS,
         practices_mod._has_period_hint,
         runner_mod.DocumentIndex) = self._saved
        return False


# -- benchmark driver ----------------------------------------------------------


def _build(seed: int, n_domains: int):
    fraction = min(1.0, n_domains / FULL_UNIVERSE * 1.5 + 0.005)
    corpus = build_corpus(CorpusConfig(seed=seed, fraction=fraction))
    if len(corpus.domains) < n_domains:
        raise SystemExit(
            f"corpus too small: {len(corpus.domains)} < {n_domains}"
        )
    return corpus, corpus.domains[:n_domains]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--domains", type=int, default=60,
                        help="corpus size to annotate (default: 60)")
    parser.add_argument("--seed", type=int, default=7,
                        help="corpus seed (default: 7)")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_annotation.json",
                        help="JSON artifact path")
    args = parser.parse_args(argv)

    print(f"building corpus (seed={args.seed}, domains={args.domains})")
    corpus, domains = _build(args.seed, args.domains)

    print("serial (pre-index hot path) ...")
    with _legacy_hot_path():
        baseline = run_pipeline(corpus, PipelineOptions(), domains=domains)
    serial_s = baseline.stage_timings.total("annotate")

    print("indexed (document index + compiled trie) ...")
    t0 = time.perf_counter()
    indexed = run_pipeline(corpus, PipelineOptions(), domains=domains)
    serial_wall_s = time.perf_counter() - t0
    indexed_s = indexed.stage_timings.total("annotate")

    base_records = [r.to_json() for r in baseline.records]
    new_records = [r.to_json() for r in indexed.records]
    if base_records != new_records:
        raise SystemExit("FAIL: records differ between baseline and indexed")
    print(f"records identical across both paths ({len(new_records)} domains)")

    print("end-to-end with --workers 4 ...")
    t0 = time.perf_counter()
    parallel = run_pipeline(corpus, PipelineOptions(), domains=domains,
                            workers=4)
    workers4_wall_s = time.perf_counter() - t0
    if [r.to_json() for r in parallel.records] != new_records:
        raise SystemExit("FAIL: parallel records differ")

    speedup = serial_s / indexed_s if indexed_s > 0 else float("inf")
    payload = {
        "corpus_domains": len(domains),
        "serial_s": round(serial_s, 4),
        "indexed_s": round(indexed_s, 4),
        "speedup": round(speedup, 2),
        "serial_wall_s": round(serial_wall_s, 4),
        "workers4_wall_s": round(workers4_wall_s, 4),
        "stage_timings_s": {
            name: round(seconds, 4)
            for name, seconds in indexed.stage_timings.as_dict().items()
        },
    }
    write_json_atomic(args.out, payload)

    print(f"annotation stage: serial {serial_s:.2f}s -> "
          f"indexed {indexed_s:.2f}s ({speedup:.2f}x)")
    print(f"end-to-end: serial {serial_wall_s:.2f}s, "
          f"--workers 4 {workers4_wall_s:.2f}s")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
