"""Language identification for crawled pages."""

from repro.lang.detect import (
    LanguageGuess,
    detect_language,
    is_english,
    is_mixed_language,
    page_language,
)

__all__ = [
    "LanguageGuess",
    "detect_language",
    "is_english",
    "is_mixed_language",
    "page_language",
]
