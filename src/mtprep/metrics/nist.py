"""Information-weighted n-gram co-occurrence score.

Matched n-grams are weighted by how informative they are in the reference
corpus of the same evaluation run: rare sequences count for more than
frequent ones.  The brevity factor is calibrated so that a hypothesis 2/3
the reference length is penalized by exactly 0.5.
"""

from __future__ import annotations

import math
from collections import Counter

from ..corpus import Corpus, _Frozen
from .common import Ngram, NgramStatistics, ngram_statistics

# exp(BETA * ln(2/3)^2) == 0.5
BETA = math.log(0.5) / math.log(2.0 / 3.0) ** 2


class NistScore(_Frozen):
    __slots__ = __match_args__ = (
        "score", "per_order", "brevity", "hyp_length", "ref_length"
    )


def information(gram: Ngram, ref_counts: Counter[Ngram], ref_length: int) -> float:
    """Info weight of a reference n-gram.

    info(g) = log2(count(prefix of g) / count(g)), counted over the whole
    reference corpus, with the prefix count of a unigram taken as the
    reference word count (ref_length).  Weights depend only on the
    proportions of the reference n-gram counts: repeating the whole
    reference corpus changes no weight, repeating one sentence does.
    nist_from_statistics restates these two lines in its loop.
    """
    prefix = ref_counts[gram[:-1]] if len(gram) > 1 else ref_length
    return math.log2(prefix / ref_counts[gram])


def nist(hyps: Corpus, refs: Corpus) -> NistScore:
    """Score a hypothesis corpus against a parallel reference corpus.

    Each order from 1 to NIST_ORDER contributes (sum of info over clipped
    matches) divided by the number of hypothesis n-grams of that order;
    orders with no hypothesis n-grams contribute 0.  Matching is per segment against its
    own reference, info weights come from the whole reference corpus.
    """
    return nist_from_statistics(ngram_statistics(hyps, refs))


def nist_from_statistics(stats: NgramStatistics) -> NistScore:
    """NIST over every order the statistics hold (1 to NIST_ORDER).

    Each matched n-gram's weight is information()'s two lines, restated in
    the loop so that no call is made per n-gram, and the weighted counts
    are added one by one in the order the statistics hold them, which is
    the oracle's: each order's sum has the bits of adding
    matched * information(...) in that order."""
    hyp_length, ref_length = stats.hyp_length, stats.ref_length
    ref_counts = stats.ref_counts
    log2 = math.log2
    per_order = []
    score = 0.0  # added up here, not by sum(), as in bleu_from_statistics
    for order, total in zip(stats.clipped, stats.totals):
        info_sum = 0.0
        for clipped in order:
            for gram, matched in clipped.items():
                # information(gram, ref_counts, ref_length), restated
                prefix = ref_counts[gram[:-1]] if len(gram) > 1 else ref_length
                info_sum += matched * log2(prefix / ref_counts[gram])
        per_order.append(info_sum / total if total else 0.0)
        score += per_order[-1]

    brevity = math.exp(BETA * math.log(min(hyp_length / ref_length, 1.0)) ** 2)
    return NistScore(
        score=score * brevity,
        per_order=tuple(per_order),
        brevity=brevity,
        hyp_length=hyp_length,
        ref_length=ref_length,
    )
