"""Stopword- and script-profile-based language identification.

The crawl pipeline discards non-English privacy pages (§3.1) and documents
mixing several languages (§4 mentions one combined-language policy being
discarded by pre-processing). A full langid model is unnecessary: privacy
prose is stopword-dense, so counting high-frequency function words across a
handful of languages separates them cleanly, and CJK content is detected by
script.

Detection sits on the pre-processing hot path, so the scoring pass is
written to touch each token once:

- ASCII text skips the non-Latin script scan entirely (the share is zero
  by construction).
- ASCII text too short to contain the detector's minimum token count
  returns ``"und"`` before tokenizing at all.
- Stopword hits for all languages are read from one
  :class:`collections.Counter` of the tokens, instead of one counting
  pass per language.

All three are pure fast paths: the returned language and scores are
identical to the naive implementation. Pre-processing asks two questions
of every page — its language, and whether its 40-line windows disagree —
and :func:`page_language` answers both from one tokenization of the
page's lines, with :func:`detect_language` and :func:`is_mixed_language`
as its reference.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from repro._util.textproc import tokenize

_STOPWORDS: dict[str, frozenset[str]] = {
    "en": frozenset(
        "the of and to in we you your that for with are our this may not or "
        "as be on it is by from will have us can when about other if "
        "information data use".split()
    ),
    "de": frozenset(
        "der die das und zu den von mit sie wir ist nicht ein eine auf werden "
        "ihre ihrer oder im fur uber daten wenn diese dass bei nach durch "
        "informationen nutzung".split()
    ),
    "fr": frozenset(
        "le la les des et de nous vous votre vos que pour avec sont sur dans "
        "ne pas une un est ce cette aux donnees informations si peut lorsque "
        "utilisation".split()
    ),
    "es": frozenset(
        "el la los las de y que en nosotros usted su sus para con son sobre "
        "no una un es este esta datos informacion si puede cuando uso como "
        "nuestra nuestro".split()
    ),
}

_MIN_TOKENS = 12

#: Lines per window of the mixed-language scan.
_WINDOW_LINES = 40

#: Any ASCII string shorter than this cannot tokenize into ``_MIN_TOKENS``
#: tokens (each token needs at least one character plus a separator), so
#: detection can return "und" without tokenizing. ASCII-only: Unicode
#: normalization may expand non-ASCII text (ligatures, fractions) and
#: change the token count, so non-ASCII input takes the full path.
_MIN_TEXT_CHARS = 2 * _MIN_TOKENS - 1


@dataclass(frozen=True)
class LanguageGuess:
    """Result of language identification."""

    language: str
    confidence: float
    scores: dict[str, float]


def _script_counts(text: str) -> tuple[int, int]:
    """``(characters in CJK/Cyrillic/Greek scripts, letters)``."""
    non_latin = sum(
        1
        for ch in text
        if "Ͱ" <= ch <= "ӿ"  # Greek + Cyrillic
        or "぀" <= ch <= "ヿ"  # kana
        or "一" <= ch <= "鿿"  # CJK ideographs
        or "가" <= ch <= "힯"  # Hangul
    )
    letters = sum(1 for ch in text if ch.isalpha())
    return non_latin, letters


def _script_share(text: str) -> float:
    """Share of characters in CJK/Cyrillic/Greek scripts."""
    if not text or text.isascii():
        # ASCII has no non-Latin characters; skip the per-character scan.
        return 0.0
    non_latin, letters = _script_counts(text)
    return non_latin / letters if letters else 0.0


def _verdict(counts: Counter, n_tokens: int) -> LanguageGuess:
    """The guess for ``n_tokens`` tokens, counted per token in
    ``counts``."""
    if n_tokens < _MIN_TOKENS:
        return LanguageGuess("und", 0.0, {})
    get = counts.get
    scores = {lang: sum([get(word, 0) for word in words]) / n_tokens
              for lang, words in _STOPWORDS.items()}
    best = max(scores, key=scores.get)
    total = sum(scores.values())
    confidence = scores[best] / total if total else 0.0
    if scores[best] < 0.05:
        return LanguageGuess("und", confidence, scores)
    return LanguageGuess(best, confidence, scores)


def detect_language(text: str) -> LanguageGuess:
    """Identify the dominant language of ``text``.

    Returns ``"und"`` (undetermined) for very short inputs.
    """
    if len(text) < _MIN_TEXT_CHARS and text.isascii():
        # Below the detector's minimum signal length and Latin-only:
        # the stopword pass cannot reach _MIN_TOKENS tokens and the
        # script check cannot fire, so the answer is always "und".
        return LanguageGuess("und", 0.0, {})
    if _script_share(text) > 0.25:
        return LanguageGuess("cjk", 1.0, {"cjk": 1.0})
    tokens = tokenize(text)
    return _verdict(Counter(tokens), len(tokens))


def is_english(text: str) -> bool:
    """Whether ``text`` is (predominantly) English."""
    return detect_language(text).language == "en"


def is_mixed_language(text: str, window_lines: int = _WINDOW_LINES) -> bool:
    """Detect documents that combine substantial runs of several languages.

    Splits the document into line windows and checks whether two windows
    confidently disagree about the language — the signal used to discard
    the combined-language policies §4 mentions.
    """
    lines = [line for line in text.split("\n") if line.strip()]
    if len(lines) < 2:
        return False
    languages: set[str] = set()
    for start in range(0, len(lines), window_lines):
        window = "\n".join(lines[start : start + window_lines])
        guess = detect_language(window)
        if guess.language != "und":
            languages.add(guess.language)
    return len(languages) > 1


def page_language(text: str) -> tuple[LanguageGuess, bool]:
    """``(detect_language(text), is_mixed_language(text))`` from one
    tokenization of ``text``'s lines.

    A token never spans a newline, so the text's tokens are its lines'
    tokens joined, and each window's tokens come from the same lists;
    the script counts add up line by line the same way. A text with at
    most one window of non-blank lines names at most one language, so it
    is never mixed and its scan is skipped.
    """
    lines = [line for line in text.split("\n") if line.strip()]
    tokens = [tokenize(line) for line in lines]
    scripts = None if text.isascii() else [_script_counts(line)
                                           for line in lines]
    guess = _score_lines(tokens, scripts)
    if len(lines) <= _WINDOW_LINES:
        return guess, False
    languages: set[str] = set()
    for start in range(0, len(lines), _WINDOW_LINES):
        window = slice(start, start + _WINDOW_LINES)
        window_guess = _score_lines(
            tokens[window], None if scripts is None else scripts[window])
        if window_guess.language != "und":
            languages.add(window_guess.language)
    return guess, len(languages) > 1


def _score_lines(tokens: list[list[str]],
                 scripts: list[tuple[int, int]] | None) -> LanguageGuess:
    """:func:`detect_language` of the lines with these token lists and,
    for non-ASCII text, these script counts."""
    if scripts is not None:
        letters = sum(count for _, count in scripts)
        if letters and sum(count for count, _ in scripts) / letters > 0.25:
            return LanguageGuess("cjk", 1.0, {"cjk": 1.0})
    return _verdict(Counter(chain.from_iterable(tokens)),
                    sum(map(len, tokens)))


__all__ = [
    "LanguageGuess",
    "detect_language",
    "is_english",
    "is_mixed_language",
    "page_language",
]
