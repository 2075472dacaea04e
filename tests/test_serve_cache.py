"""Property tests for ResultCache: TTL expiry, LRU order, digest guard.

A hypothesis-driven differential test runs arbitrary put/get/advance
sequences against a pure-Python model of a TTL+LRU map; the cache must
agree with the model on every read. Separate properties pin the
max-entries boundary, the zero-TTL edge, and the checksum verification
that makes corrupted entries unservable.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.serve import ResultCache

KEYS = ("a", "b", "c", "d")

#: Characters of each UTF-8 length, 1 to 4 bytes (no lone surrogates,
#: which have no UTF-8 encoding).
_CHARS = st.one_of(
    st.characters(max_codepoint=0x7F),
    st.characters(min_codepoint=0x80, max_codepoint=0x7FF),
    st.characters(min_codepoint=0x800, max_codepoint=0xFFFF,
                  blacklist_categories=("Cs",)),
    st.characters(min_codepoint=0x10000))

#: Latin-1 characters: a body of these is checked by its Latin-1 bytes.
_LATIN_1 = st.characters(max_codepoint=0xFF)


class _Encodings(str):
    """A body that records each encoding it is encoded to."""

    def __init__(self, text):
        self.encodings = []

    def encode(self, encoding="utf-8", errors="strict"):
        self.encodings.append(encoding)
        return super().encode(encoding, errors)


class TickClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, dt):
        self.now += dt

    def __call__(self):
        return self.now


class ModelCache:
    """The executable spec: a plain OrderedDict with TTL bookkeeping.

    Mirrors the documented contract — reads refresh LRU order but never
    the TTL; entries expire once their age reaches ``ttl_s``; inserts
    beyond ``entries`` evict the coldest.
    """

    def __init__(self, entries, ttl_s, clock):
        self.entries = entries
        self.ttl_s = ttl_s
        self.clock = clock
        self.data = OrderedDict()

    def get(self, key):
        if self.entries <= 0 or key not in self.data:
            return None
        stored_at, body = self.data[key]
        if self.clock() - stored_at >= self.ttl_s:
            del self.data[key]
            return None
        self.data.move_to_end(key)
        return body

    def put(self, key, body):
        if self.entries <= 0:
            return
        self.data[key] = (self.clock(), body)
        self.data.move_to_end(key)
        while len(self.data) > self.entries:
            self.data.popitem(last=False)


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(KEYS),
                  st.text(min_size=1, max_size=8)),
        st.tuples(st.just("get"), st.sampled_from(KEYS)),
        st.tuples(st.just("tick"),
                  st.floats(min_value=0.0, max_value=5.0,
                            allow_nan=False, allow_infinity=False)),
    ),
    max_size=50,
)


class TestDifferentialModel:
    @settings(max_examples=200, deadline=None)
    @given(entries=st.integers(min_value=1, max_value=4),
           ttl_s=st.floats(min_value=0.5, max_value=10.0,
                           allow_nan=False, allow_infinity=False),
           ops=_ops)
    def test_cache_agrees_with_model_on_every_read(self, entries, ttl_s,
                                                   ops):
        clock = TickClock()
        cache = ResultCache(entries=entries, ttl_s=ttl_s, clock=clock)
        model = ModelCache(entries=entries, ttl_s=ttl_s, clock=clock)
        for op in ops:
            if op[0] == "put":
                cache.put(op[1], op[2])
                model.put(op[1], op[2])
            elif op[0] == "get":
                assert cache.get(op[1]) == model.get(op[1])
            else:
                clock.advance(op[1])
        for key in KEYS:  # final sweep: full state agreement
            assert cache.get(key) == model.get(key)
        assert cache.corruption_rejections == 0  # honest ops never trip it


class TestBoundaries:
    @settings(max_examples=50, deadline=None)
    @given(entries=st.integers(min_value=1, max_value=8),
           overflow=st.integers(min_value=0, max_value=8))
    def test_max_entries_boundary_evicts_exactly_the_oldest(self, entries,
                                                            overflow):
        cache = ResultCache(entries=entries, ttl_s=100.0,
                            clock=TickClock())
        total = entries + overflow
        for i in range(total):
            cache.put(f"k{i}", f"v{i}")
        assert len(cache) == entries
        for i in range(total):
            expected = f"v{i}" if i >= overflow else None
            assert cache.get(f"k{i}") == expected

    @settings(max_examples=50, deadline=None)
    @given(ops=_ops)
    def test_zero_ttl_never_serves(self, ops):
        # age >= ttl expires, so with ttl 0 every entry is born expired.
        clock = TickClock()
        cache = ResultCache(entries=4, ttl_s=0.0, clock=clock)
        for op in ops:
            if op[0] == "put":
                cache.put(op[1], op[2])
            elif op[0] == "get":
                assert cache.get(op[1]) is None
            else:
                clock.advance(op[1])

    @settings(max_examples=50, deadline=None)
    @given(ops=_ops)
    def test_zero_entries_cache_is_inert(self, ops):
        cache = ResultCache(entries=0, ttl_s=100.0, clock=TickClock())
        for op in ops:
            if op[0] == "put":
                cache.put(op[1], op[2])
            elif op[0] == "get":
                assert cache.get(op[1]) is None
        assert len(cache) == 0


class TestDigestGuard:
    @settings(max_examples=100, deadline=None)
    @given(body=st.text(min_size=1, max_size=32))
    def test_corrupted_entry_is_rejected_not_served(self, body):
        cache = ResultCache(entries=4, ttl_s=100.0, clock=TickClock())
        cache.put("k", body)
        assert cache.corrupt("k") == "k"
        assert cache.get("k") is None  # digest mismatch → miss, dropped
        assert cache.corruption_rejections == 1
        assert len(cache) == 0

    @settings(max_examples=300, deadline=None)
    @given(body=st.text(_CHARS, min_size=1, max_size=64)
           | st.text(_LATIN_1, min_size=1, max_size=64),
           at=st.integers(min_value=0, max_value=63),
           char=_CHARS | _LATIN_1)
    @example(body='{"domain": "a.com"}', at=3, char="e")  # same length
    @example(body='{"domain": "a.com"}', at=3, char="é")  # 1 -> 2 bytes
    @example(body='{"note": "ü"}', at=10, char="u")       # 2 -> 1 byte
    @example(body="€", at=0, char="😀")                   # 3 -> 4 bytes
    @example(body='{"t": "§1798"}', at=7, char="¨")      # Latin-1 -> Latin-1
    @example(body='{"t": "§1798"}', at=7, char="Ā")      # Latin-1 -> UTF-8
    @example(body='{"t": "€1798"}', at=7, char="§")      # UTF-8 -> Latin-1
    def test_any_one_character_change_is_rejected(self, body, at, char):
        """Replace any one character of a stored body with any other,
        ASCII or not, whether or not the UTF-8 length changes, in a body
        checked by its Latin-1 or by its UTF-8 bytes, or moving it from
        one to the other: the checksum catches it, so ``get`` misses,
        drops the entry and counts one rejection.
        """
        at %= len(body)
        assume(char != body[at])
        cache = ResultCache(entries=4, ttl_s=100.0, clock=TickClock())
        cache.put("k", body)
        assert cache.get("k") is body  # unchanged: the stored string
        stored_at, stored, checksum = cache._data["k"]
        cache._data["k"] = (stored_at,
                            stored[:at] + char + stored[at + 1:], checksum)
        assert cache.get("k") is None
        assert cache.corruption_rejections == 1
        assert len(cache) == 0

    def test_a_latin_1_hit_does_no_utf_8_encode(self):
        """A body whose characters Latin-1 encodes (here ``§``, the one
        non-ASCII character of the rule packs' titles) is checked by its
        Latin-1 bytes, one per character: a hit encodes it once, and not
        to UTF-8. Any other body is checked by its UTF-8 bytes."""
        cache = ResultCache(entries=4, ttl_s=100.0, clock=TickClock())
        latin = _Encodings('{"title":"Data sale (§1798.120)"}' * 50)
        other = _Encodings('{"title":"Data sale (€1798.120)"}' * 50)
        for key, body in (("latin", latin), ("other", other)):
            cache.put(key, body)
            body.encodings.clear()
            assert cache.get(key) is body
        assert latin.encodings == ["latin-1"]
        assert other.encodings == ["latin-1", "utf-8"]
        assert cache._data["latin"][2] == (
            True, zlib.crc32(latin.encode("latin-1")))
        assert cache._data["other"][2] == (
            False, zlib.crc32(other.encode("utf-8")))

    def test_rewrite_after_corruption_serves_the_fresh_body(self):
        cache = ResultCache(entries=4, ttl_s=100.0, clock=TickClock())
        cache.put("k", "original")
        cache.corrupt("k")
        cache.put("k", "recomputed")  # overwrite refreshes the digest
        assert cache.get("k") == "recomputed"
        assert cache.corruption_rejections == 0

    def test_corrupt_missing_or_empty_targets(self):
        cache = ResultCache(entries=4, ttl_s=100.0, clock=TickClock())
        assert cache.corrupt() is None          # empty cache
        cache.put("k", "body")
        assert cache.corrupt("missing") is None  # unknown key
        assert cache.get("k") == "body"          # untouched entry intact
