"""Tests for language identification."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro._util.textproc import _TOKEN_RE, normalize_for_match, tokenize
from repro.lang import (
    detect_language,
    is_english,
    is_mixed_language,
    page_language,
)
from repro.lang.detect import _MIN_TEXT_CHARS, _MIN_TOKENS, _STOPWORDS

ENGLISH = (
    "We collect information about you when you use our services and "
    "we use that data to improve the experience for our customers. "
    "This policy describes what we do with the information."
)
GERMAN = (
    "Wir sammeln Informationen über Sie, wenn Sie unsere Dienste nutzen, "
    "und wir verwenden diese Daten, um das Erlebnis für unsere Kunden zu "
    "verbessern. Diese Erklärung beschreibt die Nutzung der Daten durch uns."
)
FRENCH = (
    "Nous collectons des informations sur vous lorsque vous utilisez nos "
    "services et nous utilisons ces données pour améliorer votre expérience. "
    "Cette politique décrit notre utilisation des informations."
)
SPANISH = (
    "Nosotros recopilamos información sobre usted cuando usa nuestros "
    "servicios y usamos estos datos para mejorar la experiencia de nuestros "
    "clientes. Esta política describe el uso de la información."
)


class TestDetectLanguage:
    def test_english(self):
        assert detect_language(ENGLISH).language == "en"

    def test_german(self):
        assert detect_language(GERMAN).language == "de"

    def test_french(self):
        assert detect_language(FRENCH).language == "fr"

    def test_spanish(self):
        assert detect_language(SPANISH).language == "es"

    def test_cjk_by_script(self):
        assert detect_language("プライバシーポリシーはこちらです。" * 5).language == "cjk"

    def test_short_text_undetermined(self):
        assert detect_language("hello").language == "und"

    def test_confidence_positive_for_clear_text(self):
        assert detect_language(ENGLISH).confidence > 0.3


class TestIsEnglish:
    def test_english_true(self):
        assert is_english(ENGLISH)

    def test_german_false(self):
        assert not is_english(GERMAN)


class TestMixedLanguage:
    def test_pure_english_not_mixed(self):
        assert not is_mixed_language(ENGLISH * 5)

    def test_english_plus_german_mixed(self):
        # Two substantial runs in different languages, window-aligned.
        english_block = "\n".join([ENGLISH] * 45)
        german_block = "\n".join([GERMAN] * 45)
        assert is_mixed_language(english_block + "\n" + german_block)

    def test_empty_not_mixed(self):
        assert not is_mixed_language("")


class TestShortTextFastPath:
    """The ASCII length early-exit must be invisible in results."""

    def test_short_ascii_is_und_with_empty_scores(self):
        guess = detect_language("a" * (_MIN_TEXT_CHARS - 1))
        assert guess.language == "und"
        assert guess.confidence == 0.0
        assert guess.scores == {}

    def test_boundary_length_takes_full_path(self):
        # Exactly _MIN_TOKENS single-char tokens: long enough to tokenize,
        # still "und" because none are stopwords — but via the full path.
        text = " ".join("x" * _MIN_TOKENS)
        assert len(text) == _MIN_TEXT_CHARS
        guess = detect_language(text)
        assert guess.language == "und"
        assert guess.scores != {}  # full path populates per-language scores

    def test_short_cjk_is_not_short_circuited(self):
        # Non-ASCII text below the length floor must still hit the script
        # check (NFKD can expand non-ASCII, so the floor only holds for
        # ASCII).
        assert detect_language("プライバシーポリシー").language == "cjk"

    def test_twelve_stopwords_detect_english(self):
        text = "the of and to in we you that for with are our"
        assert len(text.split()) == _MIN_TOKENS
        assert detect_language(text).language == "en"

    def test_empty_string_is_und(self):
        assert detect_language("").language == "und"


class TestSinglePassScoring:
    """Scoring from one token count must reproduce per-language counting
    exactly, including shared stopwords counted for each language that
    claims them."""

    def test_scores_match_naive_per_language_counting(self):
        for sample in (ENGLISH, GERMAN, FRENCH, SPANISH,
                       ENGLISH + " " + GERMAN):
            guess = detect_language(sample)
            from repro._util.textproc import tokenize

            tokens = tokenize(sample)
            expected = {
                lang: sum(1 for t in tokens if t in words) / len(tokens)
                for lang, words in _STOPWORDS.items()
            }
            assert guess.scores == expected

    def test_score_dict_preserves_language_order(self):
        # Downstream code iterates scores; insertion order is part of the
        # observable contract.
        assert list(detect_language(ENGLISH).scores) == list(_STOPWORDS)

    def test_shared_stopword_counts_for_every_language(self):
        # "la" is a stopword in both French and Spanish.
        text = "la " * _MIN_TOKENS
        scores = detect_language(text).scores
        assert scores["fr"] == scores["es"] > 0


# -- page_language against its reference ---------------------------------------

#: Word pools for generated lines: each language's stopwords plus a few
#: words that exercise normalization (accents, curly quotes, dashes) and
#: the script check (CJK, Cyrillic).
_POOLS = {
    "en": sorted(_STOPWORDS["en"]) + ["privacy", "cookies", "don\u2019t",
                                      "\u201cdata\u201d", "opt\u2013out"],
    "de": sorted(_STOPWORDS["de"]) + ["über", "für", "Datenschutzerklärung"],
    "fr": sorted(_STOPWORDS["fr"]) + ["données", "été", "l\u2019utilisateur"],
    "es": sorted(_STOPWORDS["es"]) + ["información", "política", "año"],
    "ru": ["данные", "политика", "мы", "вы", "конфиденциальности"],
    "cjk": ["プライバシー", "個人情報", "データ", "保護方針", "이용자"],
}
_BLANKS = ["", " ", "\t", "  \u3000 ", "\u00a0", "\r"]
_noise = st.one_of(st.sampled_from(_BLANKS), st.text(max_size=24))


def _lines_of(pool: list[str]):
    return st.lists(st.sampled_from(pool), min_size=1,
                    max_size=12).map(" ".join)


#: A block of 1–80 lines mostly in one language, with blank,
#: whitespace-only and arbitrary Unicode lines mixed in.
_block = st.tuples(st.sampled_from(sorted(_POOLS)),
                   st.integers(min_value=1, max_value=80)).flatmap(
    lambda spec: st.lists(
        st.one_of(*[_lines_of(_POOLS[spec[0]])] * 3, _noise),
        min_size=spec[1], max_size=spec[1]))

#: Pages of 0–200 lines, so that they span several 40-line windows.
_pages = st.lists(_block, max_size=5).map(
    lambda blocks: "\n".join([line for block in blocks
                              for line in block][:200]))

_ENGLISH_LINES = "\n".join([ENGLISH] * 45)
_GERMAN_LINES = "\n".join([GERMAN] * 45)


class TestPageLanguage:
    """``page_language`` returns exactly ``(detect_language(text),
    is_mixed_language(text))``: the same guess, confidence and float
    scores, from one tokenization of the text's lines."""

    @settings(max_examples=100, deadline=None)
    @given(_pages)
    @example("")
    @example(_ENGLISH_LINES + "\n" + _GERMAN_LINES)
    @example(_ENGLISH_LINES + "\n\n  \n" + "プライバシー" * 40)
    @example("\n".join(["the of and"] * 41))
    def test_equals_the_reference(self, text):
        assert page_language(text) == (detect_language(text),
                                       is_mixed_language(text))

    @pytest.mark.slow
    @settings(max_examples=600, deadline=None)
    @given(_pages)
    def test_equals_the_reference_deep(self, text):
        """The slow lane re-runs the differential at many more examples."""
        assert page_language(text) == (detect_language(text),
                                       is_mixed_language(text))

    def test_mixed_page(self):
        text = _ENGLISH_LINES + "\n" + _GERMAN_LINES
        guess, mixed = page_language(text)
        assert guess.language == "en" and mixed

    def test_one_window_is_never_mixed(self):
        text = "\n".join([ENGLISH] * 20 + [GERMAN] * 20)
        assert page_language(text)[1] is is_mixed_language(text) is False


class TestTokenize:
    @given(st.text(alphabet=st.characters(max_codepoint=127), max_size=200))
    @example("Don't  STOP\t\tthe\n\nmusic's 2nd\x0b\x0cverse ' x'y")
    def test_ascii_path_equals_the_normalized_path(self, text):
        assert tokenize(text) == _TOKEN_RE.findall(normalize_for_match(text))

    @given(st.lists(_noise | _lines_of(sum(_POOLS.values(), [])),
                    max_size=30))
    def test_a_token_never_spans_a_newline(self, lines):
        text = "\n".join(lines)
        assert tokenize(text) == [token for line in text.split("\n")
                                  for token in tokenize(line)]
