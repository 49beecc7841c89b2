"""Lightweight token estimation for prompt accounting.

We do not ship a real BPE vocabulary; the paper's token-length analyses
(Fig. 6) and latency models only need a consistent, monotone estimate of
how many tokens a piece of prompt text occupies.  The estimator below uses
the standard ~4-characters-per-token heuristic refined with a word/number/
punctuation split, which tracks GPT-style tokenizers within ~10 % on
English prose — more than enough fidelity for trend reproduction.

A load-bearing property: tokens never span whitespace, so counting is
*additive over space-joined pieces* —
``count_tokens(a + " " + b) == count_tokens(a) + count_tokens(b)`` for any
``a``/``b``.  The incremental prompt builder relies on this to account for
a section built from many small pieces without re-tokenizing the joined
text (property-tested in ``tests/llm/test_tokenizer.py``).
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable

_WORD_RE = re.compile(r"[A-Za-z]+|\d|[^\sA-Za-z\d]")

#: Long alphabetic words are split into multiple subword tokens; GPT-style
#: tokenizers average roughly one token per ~6 characters within a word.
_CHARS_PER_SUBWORD = 6

#: ``count_tokens`` cache bound.  Sized for long-lived worker processes
#: that run many episodes back to back: the hot path counts short, highly
#: repetitive pieces (fact/message/subgoal renderings — hundreds of
#: distinct strings per episode, heavily shared across episodes of the
#: same environment), so 64k entries of mostly sub-100-byte keys is a few
#: MB ceiling while keeping the steady-state hit rate near 100 %.  The
#: bound matters for callers that count whole joined sections, whose keys
#: differ every step of every episode.
_COUNT_CACHE_SIZE = 65536


@lru_cache(maxsize=_COUNT_CACHE_SIZE)
def count_tokens(text: str) -> int:
    """Estimate the number of tokens in ``text``.

    Rules: every digit and punctuation mark is one token; alphabetic words
    contribute ``ceil(len/6)`` tokens (so short words are one token and
    long words split).  The empty string is zero tokens.

    >>> count_tokens("")
    0
    >>> count_tokens("pick up the red mug")
    5
    """
    if not text:
        return 0
    total = 0
    for piece in _WORD_RE.findall(text):
        if piece[0].isalpha():
            total += -(-len(piece) // _CHARS_PER_SUBWORD)  # ceil division
        else:
            total += 1
    return total


def count_tokens_many(texts: Iterable[str]) -> int:
    """Sum of token counts over ``texts`` (convenience for fact lists).

    Accepts any iterable of strings, including single-pass generators:

    >>> count_tokens_many(["pick up", "the red mug"])
    5
    >>> count_tokens_many(word for word in "pick up the red mug".split())
    5
    >>> count_tokens_many([])
    0
    """
    return sum(count_tokens(text) for text in texts)
