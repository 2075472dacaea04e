#!/usr/bin/env python
"""Before/after benchmark for the executor backends and the preprocess
hot path.

Two comparisons on the same corpus:

* **preprocess overhaul** — the pre-overhaul stage, reconstructed here
  (no raw-HTML-bytes dedupe tier, per-language stopword counting passes,
  no short-text early exit, a second parse of each page the crawler
  read links from, a second tokenization for the mixed-language scan)
  vs the shipped one.
  Byte-identical records are asserted; only the clock may differ.
* **backend scaling** — end-to-end wall clock for the serial, thread, and
  process backends at ``--workers`` workers. The process backend is the
  GIL-free path: it scales compute-bound runs with *physical CPU cores*,
  so the measured speedup is bounded by the ``cpus`` field reported in
  the artifact (on a 1-core container all backends are necessarily
  within noise of serial; the determinism assertions still exercise the
  full pickle/merge machinery).

Results land in ``BENCH_parallel.json`` at the repo root::

    {"corpus_domains": N, "cpus": C, "serial_wall_s": ...,
     "thread_wall_s": ..., "process_wall_s": ...,
     "preprocess_legacy_s": ..., "preprocess_s": ..., ...}

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py
    PYTHONPATH=src python benchmarks/bench_parallel.py \
        --domains 10 --out /tmp/smoke.json
"""

from __future__ import annotations

import argparse
import hashlib
import os
import time
from pathlib import Path

from repro._util import write_json_atomic
import repro.pipeline.runner as runner_mod
from repro.corpus import CorpusConfig, build_corpus
from repro.lang.detect import _MIN_TOKENS, _STOPWORDS, LanguageGuess
from repro.pipeline import ExecutorOptions, PipelineOptions, run_pipeline
from repro.pipeline.preprocess import (
    PreprocessedPage,
    PreprocessResult,
    _combine_documents,
)
from repro._util.textproc import tokenize
from repro.htmlkit import html_to_document

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Domain universe size at fraction=1.0 (see repro.corpus.build).
FULL_UNIVERSE = 2892


# -- reconstructed pre-overhaul preprocess (the "before" under test) -----------


def _legacy_script_share(text: str) -> float:
    if not text:
        return 0.0
    non_latin = sum(
        1
        for ch in text
        if "Ͱ" <= ch <= "ӿ"
        or "぀" <= ch <= "ヿ"
        or "一" <= ch <= "鿿"
        or "가" <= ch <= "힯"
    )
    letters = sum(1 for ch in text if ch.isalpha())
    return non_latin / letters if letters else 0.0


def _legacy_detect_language(text: str) -> LanguageGuess:
    """The seed's detector: always scans the script profile, then one
    counting pass per language, with no short-text early exit."""
    if _legacy_script_share(text) > 0.25:
        return LanguageGuess("cjk", 1.0, {"cjk": 1.0})
    tokens = tokenize(text)
    if len(tokens) < _MIN_TOKENS:
        return LanguageGuess("und", 0.0, {})
    scores: dict[str, float] = {}
    for lang, stopwords in _STOPWORDS.items():
        hits = sum(1 for tok in tokens if tok in stopwords)
        scores[lang] = hits / len(tokens)
    best = max(scores, key=scores.get)
    total = sum(scores.values())
    confidence = scores[best] / total if total else 0.0
    if scores[best] < 0.05:
        return LanguageGuess("und", confidence, scores)
    return LanguageGuess(best, confidence, scores)


def _legacy_is_mixed_language(text: str, window_lines: int = 40) -> bool:
    lines = [line for line in text.split("\n") if line.strip()]
    if len(lines) < 2:
        return False
    languages: set[str] = set()
    for start in range(0, len(lines), window_lines):
        window = "\n".join(lines[start : start + window_lines])
        guess = _legacy_detect_language(window)
        if guess.language not in ("und", "cjk"):
            languages.add(guess.language)
        elif guess.language == "cjk":
            languages.add("cjk")
    return len(languages) > 1


def _legacy_drop_reason(page, seen_urls):
    if page.is_pdf:
        return "pdf-unsupported"
    if not page.content_type.startswith("text/html"):
        return "non-html"
    if page.final_url in seen_urls:
        return "duplicate-url"
    return None


def _legacy_preprocess_crawl(crawl) -> PreprocessResult:
    """The seed's stage: every surviving page is parsed again, rendered
    and language-detected, even byte-identical twins, and a multi-window
    page is tokenized twice."""
    result = PreprocessResult(domain=crawl.domain)
    seen_urls: set[str] = set()
    seen_hashes: set[str] = set()

    for page in crawl.potential_privacy_pages():
        reason = _legacy_drop_reason(page, seen_urls)
        if reason is not None:
            result.dropped.append((page.requested_url, reason))
            continue
        document = html_to_document(page.html)
        text = document.text
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest in seen_hashes:
            result.dropped.append((page.requested_url, "duplicate-content"))
            continue
        seen_hashes.add(digest)
        seen_urls.add(page.final_url)
        guess = _legacy_detect_language(text)
        if guess.language not in ("en", "und"):
            result.dropped.append((page.requested_url, "non-english"))
            continue
        if _legacy_is_mixed_language(text):
            result.dropped.append((page.requested_url, "mixed-language"))
            continue
        result.pages.append(PreprocessedPage(url=page.final_url,
                                             document=document))

    if result.pages:
        result.combined = _combine_documents(
            [page.document for page in result.pages]
        )
    return result


class _legacy_preprocess:
    """Context manager swapping in the reconstructed seed stage."""

    def __enter__(self):
        self._saved = runner_mod.preprocess_crawl
        runner_mod.preprocess_crawl = _legacy_preprocess_crawl
        return self

    def __exit__(self, *exc):
        runner_mod.preprocess_crawl = self._saved
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
                        help="corpus size to run (default: 60)")
    parser.add_argument("--seed", type=int, default=7,
                        help="corpus seed (default: 7)")
    parser.add_argument("--workers", type=int, default=4,
                        help="pool size for thread/process runs (default: 4)")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_parallel.json",
                        help="JSON artifact path")
    args = parser.parse_args(argv)

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1

    print(f"building corpus (seed={args.seed}, domains={args.domains}, "
          f"cpus={cpus})")
    corpus, domains = _build(args.seed, args.domains)
    options = PipelineOptions()

    print("serial, legacy preprocess (no raw dedupe, 4-pass detect) ...")
    with _legacy_preprocess():
        legacy = run_pipeline(corpus, options, domains=domains)
    preprocess_legacy_s = legacy.stage_timings.total("preprocess")

    print("serial, shipped preprocess ...")
    t0 = time.perf_counter()
    serial = run_pipeline(corpus, options, domains=domains)
    serial_wall_s = time.perf_counter() - t0
    preprocess_s = serial.stage_timings.total("preprocess")

    reference = [r.to_json() for r in serial.records]
    if [r.to_json() for r in legacy.records] != reference:
        raise SystemExit("FAIL: legacy-preprocess records differ")
    print(f"records identical across both preprocess paths "
          f"({len(reference)} domains)")

    walls = {}
    for backend in ("thread", "process"):
        print(f"{backend} backend, --workers {args.workers} ...")
        t0 = time.perf_counter()
        result = run_pipeline(
            corpus, options, domains=domains,
            executor=ExecutorOptions(workers=args.workers, backend=backend))
        walls[backend] = time.perf_counter() - t0
        if [r.to_json() for r in result.records] != reference:
            raise SystemExit(f"FAIL: {backend}-backend records differ")
    print("records identical across all backends")

    pre_speedup = (preprocess_legacy_s / preprocess_s
                   if preprocess_s > 0 else float("inf"))
    payload = {
        "corpus_domains": len(domains),
        "cpus": cpus,
        "workers": args.workers,
        "preprocess_legacy_s": round(preprocess_legacy_s, 4),
        "preprocess_s": round(preprocess_s, 4),
        "preprocess_speedup": round(pre_speedup, 2),
        "serial_wall_s": round(serial_wall_s, 4),
        "thread_wall_s": round(walls["thread"], 4),
        "process_wall_s": round(walls["process"], 4),
        "thread_speedup": round(serial_wall_s / walls["thread"], 2),
        "process_speedup": round(serial_wall_s / walls["process"], 2),
        "stage_timings_s": {
            name: round(seconds, 4)
            for name, seconds in serial.stage_timings.as_dict().items()
        },
    }
    write_json_atomic(args.out, payload)

    print(f"preprocess stage: legacy {preprocess_legacy_s:.2f}s -> "
          f"shipped {preprocess_s:.2f}s ({pre_speedup:.2f}x)")
    print(f"end-to-end: serial {serial_wall_s:.2f}s, "
          f"thread {walls['thread']:.2f}s, "
          f"process {walls['process']:.2f}s "
          f"({cpus} cpu{'s' if cpus != 1 else ''} available)")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
