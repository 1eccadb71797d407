"""Shared pieces for the corpus-level metrics."""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

from ..corpus import _Frozen, check_parallel

Ngram = tuple[str, ...]

NIST_ORDER = 5  # as in Doddington 2002; BLEU's orders 1 to 4 are a prefix


def validate_corpora(hyps: Sequence[Sequence[str]], refs: Sequence[Sequence[str]]) -> None:
    """Common preconditions: parallel, every sentence a list of tokens
    (corpus.check_parallel), non-empty, no empty reference."""
    check_parallel("hypothesis", hyps, "reference", refs)
    if not hyps:
        raise ValueError("cannot score an empty corpus")
    for k, ref in enumerate(refs):
        if not ref:
            raise ValueError(f"reference sentence {k + 1} is empty")


class NgramStatistics(_Frozen):
    """What BLEU and NIST read from one hypothesis/reference corpus pair.

    Orders run from 1 to NIST_ORDER.  clipped[n - 1][k] is segment k's
    order-n hypothesis n-gram counts clipped to its own reference's counts,
    in the hypothesis n-grams' order (unmatched n-grams are absent);
    totals[n - 1] is the number of order-n hypothesis n-grams; ref_counts
    counts every reference n-gram of those orders over the whole corpus.
    """

    __slots__ = __match_args__ = (
        "clipped", "totals", "ref_counts", "hyp_length", "ref_length"
    )


def ngram_statistics(
    hyps: Sequence[Sequence[str]], refs: Sequence[Sequence[str]]
) -> NgramStatistics:
    """Check the preconditions of the n-gram metrics (those of
    validate_corpora and at least one hypothesis token), then count orders
    1 to NIST_ORDER in one pass.  zip lists a side's n-grams, building each
    one in C, in the order of their first occurrence.  Each segment's
    order-n reference n-grams are listed once and feed the corpus counts
    and the set that filters the hypothesis n-grams; the matched ones are
    counted as they come, so their keys keep the hypothesis order.  Only
    when one of them occurs more than once are they clipped against the
    segment's reference counts, in place: a count of 1 is already at most
    its reference count.  Counter counts an iterable in C, but Counter &
    Counter loops in Python over every hypothesis n-gram, matched or
    not."""
    validate_corpora(hyps, refs)
    hyp_length = sum(len(h) for h in hyps)
    if hyp_length == 0:
        raise ValueError("hypothesis corpus has no tokens")
    ref_counts: Counter[Ngram] = Counter()
    clipped = []
    totals = []
    for n in range(1, NIST_ORDER + 1):
        order = []
        for hyp, ref in zip(hyps, refs):
            ref_ngrams = list(zip(*[ref[k:] for k in range(n)]))
            ref_counts.update(ref_ngrams)
            matched = Counter(
                filter(set(ref_ngrams).__contains__, zip(*[hyp[k:] for k in range(n)]))
            )
            if matched.total() != len(matched):
                matched &= Counter(ref_ngrams)
            order.append(matched)
        clipped.append(tuple(order))
        totals.append(sum(max(len(h) - n + 1, 0) for h in hyps))
    return NgramStatistics(
        clipped=tuple(clipped),
        totals=tuple(totals),
        ref_counts=ref_counts,
        hyp_length=hyp_length,
        ref_length=sum(len(r) for r in refs),
    )
