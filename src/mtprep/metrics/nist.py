"""Information-weighted n-gram co-occurrence score.

Matched n-grams are weighted by how informative they are in the reference
corpus of the same evaluation run: rare sequences count for more than
frequent ones.  The brevity factor is calibrated so that a hypothesis 2/3
the reference length is penalized by exactly 0.5.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from ..corpus import Corpus
from .common import Ngram, clipped_ngrams, ngram_counts, validate_ngram_scoring

# exp(BETA * ln(2/3)^2) == 0.5
BETA = math.log(0.5) / math.log(2.0 / 3.0) ** 2


@dataclass(frozen=True)
class NistScore:
    score: float
    per_order: tuple[float, ...]
    brevity: float
    hyp_length: int
    ref_length: int


def reference_information(refs: Corpus, max_n: int) -> dict[Ngram, float]:
    """Info weight of every reference n-gram.

    info(g) = log2(count(prefix of g) / count(g)), with the prefix count of
    a unigram taken as the total reference word count.  Weights depend only
    on the multiset of reference n-grams, so duplicated sentences change
    nothing.
    """
    counts: Counter[Ngram] = Counter()
    total_words = 0
    for ref in refs:
        total_words += len(ref)
        for n in range(1, max_n + 1):
            counts.update(ngram_counts(ref, n))
    info = {}
    for gram, count in counts.items():
        prefix = counts[gram[:-1]] if len(gram) > 1 else total_words
        info[gram] = math.log2(prefix / count)
    return info


def nist(hyps: Corpus, refs: Corpus, max_n: int = 5) -> NistScore:
    """Score a hypothesis corpus against a parallel reference corpus.

    Each order contributes (sum of info over clipped matches) divided by
    the number of hypothesis n-grams of that order; orders with no
    hypothesis n-grams contribute 0.  Matching is per segment against its
    own reference, info weights come from the whole reference corpus.
    """
    hyp_length, ref_length = validate_ngram_scoring(hyps, refs, max_n)
    info = reference_information(refs, max_n)
    per_order = []
    for n in range(1, max_n + 1):
        info_sum = 0.0
        total = 0
        for hyp, ref in zip(hyps, refs):
            if len(hyp) < n:
                continue
            total += len(hyp) - n + 1
            for gram, matched in clipped_ngrams(hyp, ref, n).items():
                info_sum += matched * info[gram]
        per_order.append(info_sum / total if total else 0.0)

    brevity = math.exp(BETA * math.log(min(hyp_length / ref_length, 1.0)) ** 2)
    return NistScore(
        score=sum(per_order) * brevity,
        per_order=tuple(per_order),
        brevity=brevity,
        hyp_length=hyp_length,
        ref_length=ref_length,
    )
