"""Golden-corpus regression suite.

``tests/golden/`` snapshots the full :class:`PipelineResult` for a fixed
12-domain corpus — records, traces, token totals, fetch counters — and
every execution configuration (serial, parallel, cached cold, cached
warm, docindex off) must reproduce it exactly. Any behavioural drift in
crawl, preprocessing, segmentation, annotation, or verification shows up
here as a field-level diff.

To bless an *intentional* change::

    PYTHONPATH=src python -m pytest tests/test_golden_corpus.py \
        --update-golden

which re-snapshots from a fresh serial run (and then re-checks that all
other configurations still agree with it).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
from pathlib import Path

import pytest

import repro.pipeline.parallel as parallel_mod
from repro.pipeline import ExecutorOptions, PipelineOptions, run_pipeline
from repro.pipeline import runner

GOLDEN_DIR = Path(__file__).parent / "golden"
OPTIONS = PipelineOptions()
#: Cascade column: distilled fast path at default thresholds. Its records
#: are snapshotted separately (records_cascade.jsonl) — the cascade is
#: *not* byte-identical to the chatbot path below threshold 1.0, but it
#: must be byte-stable across backends, worker counts, and cache states.
CASCADE_OPTIONS = PipelineOptions(annotator="cascade")

#: Cascade runs away from the default thresholds, which have no records
#: file: ``(base, practice)`` thresholds → SHA-256 of the records'
#: ``to_json`` lines, ``cascade.fast_path_segments``,
#: ``cascade.escalated_segments`` and ``annotate.chatbot_calls``.
CASCADE_THRESHOLD_PINS = {
    (0.5, None): ("bb5388933467bcbfe884786a718d15d3"
                  "674679780a8ecc4a896a00642877914e", 430, 211, 37),
    (0.2, 0.2): ("97f11637f1a1de7f274e94542d45fb05"
                 "40f1d9a38ef30396274d3c75492713b1", 616, 25, 25),
    (1.0, 0.5): ("df1fe103a37679921a731c2f637d36a1"
                 "e586d5a46e5002ab25c007a4c0d42d69", 303, 338, 39),
    (0.9, 1.0): ("1cc1f4d08b1ba901569a7a628007ab3b"
                 "06b0b75af596c117d0127c3636ee3094", 148, 493, 43),
}

#: 12 domains of the seed-1234 corpus (see ``small_corpus``), picked to
#: cover every outcome class: 7 annotated (2 of which activate the
#: fallback path), 3 crawl-failed, 2 extract-failed.
GOLDEN_DOMAINS = [
    "trailheadleisure.com",    # annotated
    "rainierbrands.com",       # crawl-failed
    "paragonhome.com",         # annotated
    "meridianinsurance.com",   # extract-failed
    "juniperapparel.com",      # annotated
    "equinoxmotors.com",       # crawl-failed
    "goldenoakapparel.com",    # annotated
    "zenithfinancial.com",     # extract-failed
    "crownleisure.com",        # annotated
    "forgemotors.com",         # crawl-failed
    "velahospitality.com",     # annotated, fallback
    "quantumretail.com",       # annotated, fallback
]


def _snapshot(result) -> dict:
    """Everything a regression must not move, JSON-ready."""
    return {
        "records": [json.loads(r.to_json()) for r in result.records],
        "traces": {d: vars(t) for d, t in result.traces.items()},
        "summary": {
            "prompt_tokens": result.prompt_tokens,
            "completion_tokens": result.completion_tokens,
            "fetch_stats": result.fetch_stats.as_dict(),
            "statuses": {r.domain: r.status for r in result.records},
            "hallucinations_filtered": sum(r.hallucinations_filtered
                                           for r in result.records),
        },
    }


def _write_golden(snap: dict) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    meta = {
        "corpus_seed": 1234,
        "corpus_fraction": 0.06,
        "options": "PipelineOptions() defaults",
        "domains": GOLDEN_DOMAINS,
        "configurations_checked": [
            "serial", "parallel(workers=3, shard_size=4)",
            "backend matrix: {serial,thread,process} x workers {1,2,4}",
            "cached cold+warm per backend",
            "cached cold", "cached warm", "use_docindex=False",
            "cascade: serial + backend matrix + cached cold/warm "
            "(records_cascade.jsonl)",
            "cascade threshold>=1.0 == chatbot records byte-identically",
        ],
    }
    (GOLDEN_DIR / "meta.json").write_text(
        json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    (GOLDEN_DIR / "records.jsonl").write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n"
                for r in snap["records"]), encoding="utf-8")
    (GOLDEN_DIR / "traces.json").write_text(
        json.dumps(snap["traces"], indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    (GOLDEN_DIR / "summary.json").write_text(
        json.dumps(snap["summary"], indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


def _load_golden() -> dict:
    records = [
        json.loads(line)
        for line in (GOLDEN_DIR / "records.jsonl")
        .read_text(encoding="utf-8").splitlines() if line
    ]
    return {
        "records": records,
        "traces": json.loads(
            (GOLDEN_DIR / "traces.json").read_text(encoding="utf-8")),
        "summary": json.loads(
            (GOLDEN_DIR / "summary.json").read_text(encoding="utf-8")),
    }


def _assert_matches(snap: dict, golden: dict, config: str) -> None:
    for record, expected in zip(snap["records"], golden["records"]):
        assert record == expected, (
            f"[{config}] record drifted for {expected.get('domain')}")
    assert len(snap["records"]) == len(golden["records"])
    for domain, expected in golden["traces"].items():
        assert snap["traces"][domain] == expected, (
            f"[{config}] trace drifted for {domain}")
    assert snap["traces"].keys() == golden["traces"].keys()
    assert snap["summary"] == golden["summary"], f"[{config}] summary drifted"


@pytest.fixture(scope="module")
def golden(request, small_corpus):
    missing = sorted(set(GOLDEN_DOMAINS) - set(small_corpus.domains))
    assert not missing, f"golden domains absent from corpus: {missing}"
    if request.config.getoption("--update-golden"):
        result = run_pipeline(small_corpus, OPTIONS, domains=GOLDEN_DOMAINS)
        _write_golden(_snapshot(result))
        cascade = run_pipeline(small_corpus, CASCADE_OPTIONS,
                               domains=GOLDEN_DOMAINS)
        (GOLDEN_DIR / "records_cascade.jsonl").write_text(
            "".join(json.dumps(json.loads(r.to_json()), sort_keys=True) + "\n"
                    for r in cascade.records), encoding="utf-8")
    if not (GOLDEN_DIR / "records.jsonl").exists():
        pytest.fail("tests/golden/ missing; regenerate with "
                    "`pytest tests/test_golden_corpus.py --update-golden`")
    return _load_golden()


@pytest.fixture(scope="module")
def golden_cascade(golden):
    path = GOLDEN_DIR / "records_cascade.jsonl"
    if not path.exists():
        pytest.fail("tests/golden/records_cascade.jsonl missing; regenerate "
                    "with `pytest tests/test_golden_corpus.py "
                    "--update-golden`")
    return [json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
            if line]


def _assert_cascade_records(result, golden_cascade, config: str) -> None:
    records = [json.loads(r.to_json()) for r in result.records]
    for record, expected in zip(records, golden_cascade):
        assert record == expected, (
            f"[{config}] cascade record drifted for {expected.get('domain')}")
    assert len(records) == len(golden_cascade)


def test_golden_covers_every_outcome_class(golden):
    statuses = set(golden["summary"]["statuses"].values())
    assert statuses == {"annotated", "crawl-failed", "extract-failed"}
    fallback = [r for r in golden["records"] if r.get("fallback_aspects")]
    assert len(fallback) >= 2, "corpus must exercise the fallback path"
    assert len(golden["records"]) == len(GOLDEN_DOMAINS)


def test_serial_matches_golden(small_corpus, golden):
    result = run_pipeline(small_corpus, OPTIONS, domains=GOLDEN_DOMAINS)
    _assert_matches(_snapshot(result), golden, "serial")


def test_parallel_matches_golden(small_corpus, golden):
    result = run_pipeline(small_corpus, OPTIONS, domains=GOLDEN_DOMAINS,
                          executor=ExecutorOptions(workers=3, shard_size=4))
    _assert_matches(_snapshot(result), golden, "parallel w3/s4")


@pytest.mark.slow
@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_backend_matrix_matches_golden(small_corpus, golden, backend,
                                       workers):
    """Acceptance bar for the executor backends: byte-identical records
    for every backend × worker count."""
    result = run_pipeline(
        small_corpus, OPTIONS, domains=GOLDEN_DOMAINS,
        executor=ExecutorOptions(workers=workers, shard_size=4,
                                 backend=backend))
    _assert_matches(_snapshot(result), golden, f"{backend} w{workers}")


@pytest.mark.slow
def test_spawned_process_workers_match_golden(small_corpus, golden,
                                              monkeypatch):
    """The process backend under the ``spawn`` start method: no worker
    inherits the parent's corpus, each rebuilds it from the task's
    ``CorpusConfig``, and records, traces, token totals and fetch
    counters come back only through the pickled shard outcomes."""
    monkeypatch.setattr(parallel_mod, "_process_pool_context",
                        lambda: multiprocessing.get_context("spawn"))
    result = run_pipeline(
        small_corpus, OPTIONS, domains=GOLDEN_DOMAINS,
        executor=ExecutorOptions(workers=2, shard_size=4, backend="process"))
    _assert_matches(_snapshot(result), golden, "process spawn w2")


@pytest.mark.slow
@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_cached_warm_matches_golden_per_backend(small_corpus, golden,
                                                tmp_path, backend):
    executor = ExecutorOptions(workers=2, shard_size=4, backend=backend)
    cold = run_pipeline(small_corpus, OPTIONS, domains=GOLDEN_DOMAINS,
                        executor=executor, cache_dir=tmp_path / "c")
    _assert_matches(_snapshot(cold), golden, f"{backend} cached cold")
    warm = run_pipeline(small_corpus, OPTIONS, domains=GOLDEN_DOMAINS,
                        executor=executor, cache_dir=tmp_path / "c")
    _assert_matches(_snapshot(warm), golden, f"{backend} cached warm")
    assert warm.stage_timings.counts()["cache.record.hit"] == \
        len(GOLDEN_DOMAINS)


def test_cached_cold_and_warm_match_golden(small_corpus, golden, tmp_path):
    cold = run_pipeline(small_corpus, OPTIONS, domains=GOLDEN_DOMAINS,
                        cache_dir=tmp_path / "c")
    _assert_matches(_snapshot(cold), golden, "cached cold")
    warm = run_pipeline(small_corpus, OPTIONS, domains=GOLDEN_DOMAINS,
                        cache_dir=tmp_path / "c")
    _assert_matches(_snapshot(warm), golden, "cached warm")
    assert warm.stage_timings.counts()["cache.record.hit"] == \
        len(GOLDEN_DOMAINS)


def test_docindex_off_matches_golden(small_corpus, golden, monkeypatch):
    monkeypatch.setattr(runner.DocumentIndex, "for_document",
                        staticmethod(lambda document: None))
    result = run_pipeline(small_corpus, OPTIONS, domains=GOLDEN_DOMAINS)
    _assert_matches(_snapshot(result), golden, "docindex off")


# -- cascade column -----------------------------------------------------------


def test_cascade_serial_matches_golden(small_corpus, golden_cascade):
    result = run_pipeline(small_corpus, CASCADE_OPTIONS,
                          domains=GOLDEN_DOMAINS)
    _assert_cascade_records(result, golden_cascade, "cascade serial")


@pytest.mark.slow
@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_cascade_backend_matrix_matches_golden(small_corpus, golden_cascade,
                                               backend):
    """Cascade acceptance bar: byte-identical records for any backend and
    worker count (the distilled model is trained once in the parent)."""
    result = run_pipeline(
        small_corpus, CASCADE_OPTIONS, domains=GOLDEN_DOMAINS,
        executor=ExecutorOptions(workers=3, shard_size=4, backend=backend))
    _assert_cascade_records(result, golden_cascade, f"cascade {backend} w3")


def test_cascade_cached_cold_and_warm_match_golden(small_corpus,
                                                   golden_cascade, tmp_path):
    cold = run_pipeline(small_corpus, CASCADE_OPTIONS, domains=GOLDEN_DOMAINS,
                        cache_dir=tmp_path / "c")
    _assert_cascade_records(cold, golden_cascade, "cascade cached cold")
    warm = run_pipeline(small_corpus, CASCADE_OPTIONS, domains=GOLDEN_DOMAINS,
                        cache_dir=tmp_path / "c")
    _assert_cascade_records(warm, golden_cascade, "cascade cached warm")
    assert warm.stage_timings.counts()["cache.record.hit"] == \
        len(GOLDEN_DOMAINS)


def test_cascade_threshold_one_matches_chatbot_golden(small_corpus, golden):
    """Escalating every segment reproduces the chatbot records
    byte-identically — the chatbot annotator is the same annotate code
    path with every segment escalated, so the chatbot golden column is
    also the cascade's parity oracle."""
    result = run_pipeline(
        small_corpus,
        PipelineOptions(annotator="cascade", escalation_threshold=1.0),
        domains=GOLDEN_DOMAINS)
    _assert_matches(_snapshot(result), golden, "cascade threshold=1.0")


@pytest.mark.parametrize("thresholds", list(CASCADE_THRESHOLD_PINS),
                         ids=lambda pair: f"{pair[0]}-{pair[1]}")
def test_cascade_thresholds_match_pins(small_corpus, thresholds):
    """The records and the fast/escalated/call counts of a threshold
    sweep stay where they were pinned."""
    base, practice = thresholds
    result = run_pipeline(
        small_corpus,
        PipelineOptions(annotator="cascade", escalation_threshold=base,
                        practice_escalation_threshold=practice),
        domains=GOLDEN_DOMAINS)
    digest = hashlib.sha256()
    for record in result.records:
        digest.update(record.to_json().encode("utf-8") + b"\n")
    counts = result.stage_timings.counts()
    assert (digest.hexdigest(), counts["cascade.fast_path_segments"],
            counts["cascade.escalated_segments"],
            counts["annotate.chatbot_calls"]) == \
        CASCADE_THRESHOLD_PINS[thresholds]
