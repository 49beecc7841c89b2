"""Tests for the token estimator."""

import doctest

from hypothesis import given
from hypothesis import strategies as st

from repro.llm import tokenizer
from repro.llm.tokenizer import count_tokens


class TestCountTokens:
    def test_empty(self):
        assert count_tokens("") == 0

    def test_simple_words(self):
        assert count_tokens("pick up the red mug") == 5

    def test_long_word_splits(self):
        # 12 letters -> ceil(12/6) = 2 subword tokens
        assert count_tokens("abcdefghijkl") == 2

    def test_digits_count_individually(self):
        assert count_tokens("123") == 3

    def test_punctuation_counts(self):
        assert count_tokens("a, b.") == 4

    def test_whitespace_free(self):
        assert count_tokens("   \n\t  ") == 0

    def test_cache_is_bounded(self):
        # The lru cache must carry an explicit bound so long multi-episode
        # worker processes cannot grow it without limit.
        assert count_tokens.cache_info().maxsize == tokenizer._COUNT_CACHE_SIZE

    def test_doctests_run(self):
        results = doctest.testmod(tokenizer)
        assert results.attempted >= 5
        assert results.failed == 0


class TestProperties:
    @given(st.text(max_size=300))
    def test_non_negative(self, text):
        assert count_tokens(text) >= 0

    @given(st.text(max_size=150), st.text(max_size=150))
    def test_concat_superadditive_with_space(self, a, b):
        # Joining with a space never merges tokens across the boundary.
        assert count_tokens(a + " " + b) == count_tokens(a) + count_tokens(b)

    @given(st.text(alphabet=st.characters(categories=("Ll",)), min_size=1, max_size=80))
    def test_alpha_word_token_bound(self, word):
        tokens = count_tokens(word)
        assert 1 <= tokens <= len(word)

    @given(st.lists(st.text(max_size=40), max_size=10))
    def test_monotone_in_content(self, parts):
        text = " ".join(parts)
        assert count_tokens(text) <= count_tokens(text + " extra")
