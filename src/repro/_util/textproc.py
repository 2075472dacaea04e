"""Text processing primitives used by the HTML renderer, the annotation
engine, and the analysis layer.

These are intentionally dependency-free: tokenization and normalization are
simple, deterministic, and tuned for privacy-policy English rather than
general NLP.
"""

from __future__ import annotations

import re
import unicodedata

_WS_RE = re.compile(r"[ \t\f\v]+")
_TOKEN_RE = re.compile(r"[a-z0-9]+(?:[''][a-z]+)?")
_SENT_BOUNDARY_RE = re.compile(
    r"""
    (?<=[.!?])          # sentence-final punctuation
    ["')\]]*            # optional trailing quotes/brackets
    \s+                 # whitespace separating sentences
    (?=[A-Z0-9"(\[])    # next sentence starts upper-case / digit / quote
    """,
    re.VERBOSE,
)
_ABBREVIATIONS = frozenset(
    {
        "e.g.", "i.e.", "etc.", "inc.", "corp.", "co.", "ltd.", "llc.",
        "mr.", "ms.", "dr.", "no.", "vs.", "u.s.", "st.",
    }
)


def collapse_whitespace(text: str) -> str:
    """Collapse runs of spaces/tabs and trim; newlines are preserved."""
    lines = [_WS_RE.sub(" ", line).strip() for line in text.split("\n")]
    return "\n".join(lines)


_ANY_WS_RE = re.compile(r"\s+")


def normalize_for_match(text: str) -> str:
    """Normalize text for robust substring matching.

    Lower-cases, strips accents, maps fancy quotes/dashes to ASCII, and
    collapses all whitespace (including newlines) to single spaces. This is
    the canonical form used by the hallucination verifier when checking that
    a chatbot-extracted span actually occurs in the source text.

    Pure-ASCII input (the overwhelmingly common case for policy text) skips
    the NFKD decomposition and per-character combining-mark scan, which
    dominated hallucination-verifier construction time; decomposition,
    accent stripping, and quote/dash folding are all no-ops on ASCII.
    """
    if not text.isascii():
        text = unicodedata.normalize("NFKD", text)
        text = "".join(ch for ch in text if not unicodedata.combining(ch))
        text = text.replace("‘", "'").replace("’", "'")
        text = text.replace("“", '"').replace("”", '"')
        text = text.replace("–", "-").replace("—", "-")
    text = text.lower()
    return _ANY_WS_RE.sub(" ", text).strip()


def tokenize(text: str) -> list[str]:
    """Split normalized text into lower-case alphanumeric tokens.

    ASCII text is only lower-cased: :func:`normalize_for_match` would
    also collapse its whitespace, and no token holds whitespace, so the
    tokens are the same.
    """
    if text.isascii():
        return _TOKEN_RE.findall(text.lower())
    return _TOKEN_RE.findall(normalize_for_match(text))


def sentence_split(text: str) -> list[str]:
    """Split a paragraph into sentences.

    Heuristic splitter: breaks on ``.!?`` followed by whitespace and an
    upper-case/digit start, then re-joins fragments that ended with a known
    abbreviation. Good enough for privacy-policy prose.
    """
    parts = _SENT_BOUNDARY_RE.split(text.strip())
    sentences: list[str] = []
    for part in parts:
        part = part.strip()
        if not part:
            continue
        if sentences:
            prev = sentences[-1]
            last_word = prev.rsplit(None, 1)[-1].lower() if prev.split() else ""
            if last_word in _ABBREVIATIONS:
                sentences[-1] = prev + " " + part
                continue
        sentences.append(part)
    return sentences


def slugify(text: str) -> str:
    """Turn arbitrary text into a lowercase hyphenated slug."""
    text = normalize_for_match(text)
    text = re.sub(r"[^a-z0-9]+", "-", text)
    return text.strip("-")


def truncate(text: str, limit: int, ellipsis: str = "...") -> str:
    """Truncate ``text`` to at most ``limit`` characters, adding an ellipsis."""
    if limit <= 0:
        raise ValueError("limit must be positive")
    if len(text) <= limit:
        return text
    if limit <= len(ellipsis):
        return text[:limit]
    return text[: limit - len(ellipsis)].rstrip() + ellipsis


def word_count(text: str) -> int:
    """Count whitespace-separated words (the paper's policy-length metric)."""
    return len(text.split())
