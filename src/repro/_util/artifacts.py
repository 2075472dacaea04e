"""Canonical JSON rendering, content digests, and atomic artifact writes.

Three primitives shared by the pipeline cache, the serving snapshot
format, and every benchmark script that leaves a ``BENCH_*.json``
artifact behind:

- :func:`canonical_json` — a byte-stable JSON rendering (sorted keys, no
  whitespace), so two structurally equal payloads always serialize to the
  same bytes regardless of dict insertion order.
- :func:`content_digest` — SHA-256 over the canonical rendering; the
  fingerprint primitive behind cache keys, snapshot ids, and query cache
  keys.
- :func:`write_text_atomic` — temp-file + ``os.replace`` writes, so a
  reader (or a crashed writer) never observes a torn file; the one
  writer behind :func:`write_json_atomic` and the pipeline cache store.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path


def canonical_json(payload) -> str:
    """Render ``payload`` as byte-stable canonical JSON.

    Keys are sorted and separators carry no whitespace, so the output is
    independent of dict insertion order and safe to hash or byte-compare.
    """
    return json.dumps(payload, ensure_ascii=False, sort_keys=True,
                      separators=(",", ":"))


def content_digest(payload) -> str:
    """SHA-256 hex digest of ``payload``'s canonical JSON rendering."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def write_text_atomic(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically.

    The text goes to a same-directory temp file first and is moved into
    place with ``os.replace`` (atomic on POSIX), so concurrent readers
    only ever see either the old file or the complete new one, and a
    failed write leaves no temp file behind. Parent directories are
    created as needed. Returns ``path``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(
        f"{path.name}.tmp{os.getpid()}-{threading.get_ident()}")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # a failed write must not leave debris behind
            try:
                tmp.unlink()
            except OSError:
                pass
    return path


def write_json_atomic(path: str | Path, payload, *, indent: int | None = 2,
                      sort_keys: bool = False) -> Path:
    """Write ``payload`` as JSON, with a trailing newline, to ``path``
    atomically (:func:`write_text_atomic`). A payload that does not
    serialize raises before any file is touched. Returns ``path``.
    """
    return write_text_atomic(path, json.dumps(
        payload, ensure_ascii=False, indent=indent,
        sort_keys=sort_keys) + "\n")
