"""Shared pieces for the corpus-level metrics."""

from __future__ import annotations

from collections import Counter
from typing import Sequence

Ngram = tuple[str, ...]


def ngram_counts(tokens: Sequence[str], n: int) -> Counter[Ngram]:
    """Multiset of the order-n n-grams of a token sequence."""
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def validate_corpora(hyps: Sequence[Sequence[str]], refs: Sequence[Sequence[str]]) -> None:
    """Common preconditions: parallel, non-empty, no empty reference."""
    if len(hyps) != len(refs):
        raise ValueError(
            f"hypothesis corpus has {len(hyps)} sentences, reference has {len(refs)}"
        )
    if not hyps:
        raise ValueError("cannot score an empty corpus")
    for k, ref in enumerate(refs):
        if not ref:
            raise ValueError(f"reference sentence {k + 1} is empty")


def validate_ngram_scoring(
    hyps: Sequence[Sequence[str]], refs: Sequence[Sequence[str]], max_n: int
) -> tuple[int, int]:
    """Preconditions of the n-gram metrics (BLEU, NIST): those of
    validate_corpora, max_n >= 1 and at least one hypothesis token.

    Returns the hypothesis and reference lengths in tokens.
    """
    validate_corpora(hyps, refs)
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    hyp_length = sum(len(h) for h in hyps)
    if hyp_length == 0:
        raise ValueError("hypothesis corpus has no tokens")
    return hyp_length, sum(len(r) for r in refs)


def clipped_ngrams(hyp: Sequence[str], ref: Sequence[str], n: int) -> Counter[Ngram]:
    """Order-n hypothesis n-gram counts clipped to the reference's counts,
    in the hypothesis n-grams' order; unmatched n-grams are absent."""
    return ngram_counts(hyp, n) & ngram_counts(ref, n)
