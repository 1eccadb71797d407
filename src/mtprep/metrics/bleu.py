"""Corpus-level BLEU: geometric mean of modified n-gram precisions with a
brevity penalty, single reference per segment."""

from __future__ import annotations

import math

from ..corpus import Corpus, _Frozen
from .common import NgramStatistics, ngram_statistics

BLEU_ORDER = 4  # orders 1 to 4, as in Papineni et al. 2002


class BleuScore(_Frozen):
    """Headline score in [0,1] plus the components that produce it."""

    __slots__ = __match_args__ = (
        "score", "precisions", "matches", "totals", "brevity_penalty", "hyp_length",
        "ref_length",
    )

    @property
    def percent(self) -> float:
        return 100.0 * self.score


def bleu(hyps: Corpus, refs: Corpus) -> BleuScore:
    """Score a hypothesis corpus against a parallel reference corpus.

    Clipping is per segment against its single reference.  No smoothing:
    a zero match count at any order with hypothesis n-grams present makes
    the whole score 0.  Orders beyond every hypothesis length contribute a
    neutral factor (only reachable on tiny test corpora).
    """
    return bleu_from_statistics(ngram_statistics(hyps, refs))


def bleu_from_statistics(stats: NgramStatistics) -> BleuScore:
    """BLEU from orders 1 to BLEU_ORDER of the statistics, which are
    counted to NIST's order so that evaluate counts once for both."""
    hyp_length, ref_length = stats.hyp_length, stats.ref_length
    totals = stats.totals[:BLEU_ORDER]
    matches = tuple(sum(c.total() for c in order) for order in stats.clipped[:BLEU_ORDER])
    precisions = tuple(m / t if t else 1.0 for m, t in zip(matches, totals))
    if hyp_length > ref_length:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_length / hyp_length)

    score = 0.0
    if all(precisions):
        log_sum = 0.0  # a loop, not sum(): sum() compensates from Python 3.12 on
        for p in precisions:
            log_sum += math.log(p)
        score = bp * math.exp(log_sum / BLEU_ORDER)
    return BleuScore(
        score=score,
        precisions=precisions,
        matches=matches,
        totals=totals,
        brevity_penalty=bp,
        hyp_length=hyp_length,
        ref_length=ref_length,
    )
