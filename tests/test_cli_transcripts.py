"""Transcripts of `repro-pipeline` invocations, pinned byte for byte.

Each transcript runs one command line through ``repro.cli.main`` and
compares its exit status, stdout, stderr and the files it wrote with
tests/golden/cli_transcripts.json. Wall-clock durations (``1.2s``) and
the ``stage timings:`` line are masked in stderr; everything else,
usage errors included, must match exactly.

The corpus is built once: ``run`` fills a cache and ``snapshot`` freezes
it into the snapshot the query and compliance transcripts read, so the
other pipeline commands replay from a warm cache.

Regenerate with ``pytest tests/test_cli_transcripts.py --update-golden``.
"""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_TRANSCRIPTS = Path(__file__).parent / "golden" / "cli_transcripts.json"

CORPUS = ["--seed", "3", "--fraction", "0.02"]
WARM = [*CORPUS, "--cache-dir", "{tmp}/cache"]
SNAPSHOT = ["--snapshot", "{tmp}/snapshot/corpus.snap.json"]
PREDICATE = json.dumps({"op": "atom", "aspect": "rights",
                        "category": "User choices",
                        "name": "Opt-out via link"})

#: name -> argv. ``{tmp}`` is the module's working directory and
#: ``{out}`` a directory of the transcript's own, whose files are pinned.
#: The first two build the cache and snapshot the others read.
TRANSCRIPTS = {
    "run": [*WARM, "run", "--out", "{out}/annotations.jsonl",
            "--csv-dir", "{out}/dataset", "--report", "{out}/report.md"],
    "snapshot": [*WARM, "serve-snapshot", "--from-cache",
                 "--out", "{out}/corpus.snap.json"],
    "tables": [*WARM, "tables"],
    "validate": [*WARM, "validate"],
    "crawl-stats": [*WARM, "crawl-stats"],
    "serve-snapshot-shards": [*WARM, "serve-snapshot", "--from-cache",
                              "--shards", "3", "--out", "{out}/sharded"],
    "query-sector": ["query", *SNAPSHOT, "--sector", "FS"],
    "query-aspect": ["query", *SNAPSHOT, "--aspect", "handling",
                     "--limit", "3"],
    "query-filter": ["query", *SNAPSHOT, "--filter", "types",
                     "--category", "Contact info", "--in-sector", "FS"],
    "compliance-compile": ["compliance", *SNAPSHOT,
                           "--compile", "argenttrust.com"],
    "compliance-oracle": ["compliance", *SNAPSHOT, "--engine", "oracle",
                          "--evidence", "--predicate", PREDICATE],
    "compliance-check-rule-sector": [
        "compliance", *SNAPSHOT, "--engine", "check", "--pack", "ccpa",
        "--rule", "ccpa.sale-opt-out", "--in-sector", "FS"],
    "error-rule-with-predicate": ["compliance", *SNAPSHOT, "--predicate",
                                  PREDICATE, "--rule", "gdpr.right-of-access"],
    "error-evidence-with-pack": ["compliance", *SNAPSHOT, "--pack", "gdpr",
                                 "--evidence"],
    "error-engine-with-rule-pack": ["compliance", *SNAPSHOT, "--rule-pack",
                                    "{tmp}/pack.json", "--engine", "oracle"],
    "error-once-with-max-rounds": [
        *CORPUS, "--cache-dir", "{tmp}/unused-cache", "ingest", "--once",
        "--max-rounds", "2", "--out", "{out}/live.snap.json"],
    "error-refresh-policy-bad": [
        *CORPUS, "--cache-dir", "{tmp}/unused-cache", "ingest", "--once",
        "--refresh-policy", "interval:x", "--out", "{out}/live.snap.json"],
    "error-refresh-policy-zero": [
        *CORPUS, "--cache-dir", "{tmp}/unused-cache", "ingest", "--once",
        "--refresh-policy", "interval:0", "--out", "{out}/live.snap.json"],
    "ingest-once": [*CORPUS, "--cache-dir", "{tmp}/ingest-once-cache",
                    "ingest", "--once", "--domains", "10",
                    "--out", "{out}/live.snap.json"],
    "ingest-watch-sharded": [
        *CORPUS, "--cache-dir", "{tmp}/ingest-watch-cache", "ingest",
        "--watch", "--max-rounds", "2", "--domains", "10", "--shards", "2",
        "--out", "{out}/live.sharded"],
}


def _mask_timings(text: str) -> str:
    text = re.sub(r"^stage timings: .*$", "stage timings: <masked>", text,
                  flags=re.MULTILINE)
    return re.sub(r"\b\d+\.\d+s\b", "N.Ns", text)


def _run(name: str, tmp: Path) -> dict:
    out = tmp / name
    out.mkdir()
    argv = [arg.replace("{out}", str(out)).replace("{tmp}", str(tmp))
            for arg in TRANSCRIPTS[name]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = main(argv)
    files = {path.relative_to(out).as_posix():
             hashlib.sha256(path.read_bytes()).hexdigest()[:16]
             for path in sorted(out.rglob("*")) if path.is_file()}
    return {
        "argv": TRANSCRIPTS[name],
        "exit": code,
        "stdout": stdout.getvalue().replace(str(tmp), "{tmp}"),
        "stderr": _mask_timings(stderr.getvalue().replace(str(tmp),
                                                          "{tmp}")),
        "files": files,
    }


@pytest.fixture(scope="module")
def transcripts(tmp_path_factory):
    """Runs every transcript in declaration order, once per module."""
    tmp = tmp_path_factory.mktemp("cli-transcripts")
    return {name: _run(name, tmp) for name in TRANSCRIPTS}


@pytest.fixture(scope="module")
def golden_transcripts(request, transcripts):
    if request.config.getoption("--update-golden"):
        GOLDEN_TRANSCRIPTS.write_text(
            json.dumps(transcripts, indent=2, sort_keys=True,
                       ensure_ascii=False) + "\n", encoding="utf-8")
    if not GOLDEN_TRANSCRIPTS.exists():
        pytest.fail("tests/golden/cli_transcripts.json missing; regenerate "
                    "with `pytest tests/test_cli_transcripts.py "
                    "--update-golden`")
    return json.loads(GOLDEN_TRANSCRIPTS.read_text(encoding="utf-8"))


def test_golden_covers_every_transcript(golden_transcripts):
    assert sorted(golden_transcripts) == sorted(TRANSCRIPTS)


@pytest.mark.parametrize("name", list(TRANSCRIPTS))
def test_transcript_matches_golden(transcripts, golden_transcripts, name):
    expected = golden_transcripts[name]
    actual = transcripts[name]
    for field in ("argv", "exit", "stdout", "stderr", "files"):
        assert actual[field] == expected[field], f"{name}: {field} drifted"
