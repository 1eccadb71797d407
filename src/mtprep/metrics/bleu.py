"""Corpus-level BLEU: geometric mean of modified n-gram precisions with a
brevity penalty, single reference per segment."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..corpus import Corpus, Sentence
from .common import clipped_ngrams, validate_ngram_scoring


@dataclass(frozen=True)
class BleuScore:
    """Headline score in [0,1] plus the components that produce it."""

    score: float
    precisions: tuple[float, ...]
    matches: tuple[int, ...]
    totals: tuple[int, ...]
    brevity_penalty: float
    hyp_length: int
    ref_length: int

    @property
    def percent(self) -> float:
        return 100.0 * self.score


def _clipped_counts(hyps: Corpus, refs: Corpus, max_n: int) -> tuple[list[int], list[int]]:
    matches = [0] * max_n
    totals = [0] * max_n
    for hyp, ref in zip(hyps, refs):
        for n in range(1, max_n + 1):
            if len(hyp) < n:
                break
            totals[n - 1] += len(hyp) - n + 1
            matches[n - 1] += clipped_ngrams(hyp, ref, n).total()
    return matches, totals


def bleu(hyps: Corpus, refs: Corpus, max_n: int = 4) -> BleuScore:
    """Score a hypothesis corpus against a parallel reference corpus.

    Clipping is per segment against its single reference.  No smoothing:
    a zero match count at any order with hypothesis n-grams present makes
    the whole score 0.  Orders beyond every hypothesis length contribute a
    neutral factor (only reachable on tiny test corpora).
    """
    hyp_length, ref_length = validate_ngram_scoring(hyps, refs, max_n)
    matches, totals = _clipped_counts(hyps, refs, max_n)
    precisions = tuple(
        m / t if t else 1.0 for m, t in zip(matches, totals)
    )
    if hyp_length > ref_length:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_length / hyp_length)

    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = bp * math.exp(sum(math.log(p) for p in precisions) / max_n)
    return BleuScore(
        score=score,
        precisions=precisions,
        matches=tuple(matches),
        totals=tuple(totals),
        brevity_penalty=bp,
        hyp_length=hyp_length,
        ref_length=ref_length,
    )


def sentence_bleu(hyp: Sentence, ref: Sentence, max_n: int = 4) -> float:
    """Diagnostic per-sentence BLEU with add-one smoothing for orders >= 2.

    Not comparable with corpus scores; useful only for eyeballing single
    segments, where unsmoothed BLEU is almost always 0.
    """
    score = bleu([hyp], [ref], max_n)
    smoothed = [score.precisions[0]]
    for m, t in zip(score.matches[1:], score.totals[1:]):
        smoothed.append((m + 1) / (t + 1))
    if smoothed[0] == 0.0:
        return 0.0
    return score.brevity_penalty * math.exp(
        sum(math.log(p) for p in smoothed) / max_n
    )
