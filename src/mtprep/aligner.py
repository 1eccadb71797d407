"""Desk-scale lexical-translation aligner trained by expectation-maximization.

Bag-of-words model: every target word is generated by one source word of
the same sentence pair, chosen uniformly.  Training learns the lexical
table t(target | source); Viterbi alignment links each target position to
its argmax source position.  Small corpora only; there is no distortion
model and no attempt at efficiency beyond dictionaries.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from .corpus import Corpus, Sentence

# Pseudo source word that absorbs target words with no good real source.
# Prepended at position 0 when training with null_word=True.
NULL_TOKEN = "<null>"

# Mass below this is treated as zero during normalization.
PROB_FLOOR = 1e-12

Link = tuple[int, int]

# One "i-j" link of an alignment line.
_PAIR = re.compile(r"([0-9]+)-([0-9]+)")


@dataclass(frozen=True)
class TranslationTable:
    """t(target | source) plus the log-likelihood after each iteration.

    has_null records whether training prepended the null word to every
    source sentence (a source corpus may contain the literal NULL_TOKEN).
    """

    probs: dict[str, dict[str, float]]
    log_likelihoods: tuple[float, ...] = ()
    has_null: bool = False

    def prob(self, source: str, target: str) -> float:
        return self.probs.get(source, {}).get(target, 0.0)


def _validate_parallel(src_corpus: Corpus, tgt_corpus: Corpus) -> None:
    if len(src_corpus) != len(tgt_corpus):
        raise ValueError(
            f"source corpus has {len(src_corpus)} sentences, "
            f"target has {len(tgt_corpus)}"
        )
    if not src_corpus:
        raise ValueError("cannot train on an empty corpus")


def train_em(
    src_corpus: Corpus,
    tgt_corpus: Corpus,
    iterations: int = 5,
    null_word: bool = False,
) -> TranslationTable:
    """Train the lexical table on a parallel corpus.

    Initialization is uniform over co-occurring pairs, so training is fully
    deterministic.  The log-likelihood recorded for iteration k is measured
    with the table that iteration starts from; the sequence is
    non-decreasing.  Sentence pairs with an empty side carry no signal and
    are skipped.
    """
    _validate_parallel(src_corpus, tgt_corpus)
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if null_word and any(NULL_TOKEN in s for s in src_corpus):
        raise ValueError(f"source corpus already contains {NULL_TOKEN!r}")

    pairs = []
    for src, tgt in zip(src_corpus, tgt_corpus):
        if src and tgt:
            pairs.append(([NULL_TOKEN] + src if null_word else src, tgt))
    if not pairs:
        raise ValueError("no non-empty sentence pairs to train on")

    cooc: dict[str, set[str]] = defaultdict(set)
    for src, tgt in pairs:
        for s in set(src):
            cooc[s].update(tgt)
    probs = {
        s: {t: 1.0 / len(targets) for t in targets} for s, targets in cooc.items()
    }

    history = []
    for _ in range(iterations):
        counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        log_likelihood = 0.0
        for src, tgt in pairs:
            for t in tgt:
                denom = sum(probs[s].get(t, 0.0) for s in src)
                denom = max(denom, PROB_FLOOR)
                log_likelihood += math.log(denom / len(src))
                for s in src:
                    p = probs[s].get(t, 0.0)
                    if p:
                        counts[s][t] += p / denom
        history.append(log_likelihood)
        for s, dist in probs.items():
            total = sum(counts[s].values())
            if total < PROB_FLOOR:
                continue  # no evidence this round: keep the old distribution
            probs[s] = {t: c / total for t, c in counts[s].items()}
    return TranslationTable(
        probs=probs, log_likelihoods=tuple(history), has_null=null_word
    )


def viterbi_align(src: Sentence, tgt: Sentence, table: TranslationTable) -> set[Link]:
    """Link each target position to its most probable source position.

    Ties go to the leftmost candidate.  When the table was trained with a
    null word it occupies the leftmost slot, so it wins ties and absorbs
    unknown target words; positions it claims get no link.
    """
    links: set[Link] = set()
    for j, t in enumerate(tgt):
        best_i = None
        best_p = -1.0
        if table.has_null:
            best_i = -1
            best_p = table.prob(NULL_TOKEN, t)
        for i, s in enumerate(src):
            p = table.prob(s, t)
            if p > best_p:
                best_i = i
                best_p = p
        if best_i is not None and best_i >= 0:
            links.add((best_i, j))
    return links


def align_corpus(
    src_corpus: Corpus, tgt_corpus: Corpus, table: TranslationTable
) -> list[set[Link]]:
    _validate_parallel(src_corpus, tgt_corpus)
    return [viterbi_align(s, t, table) for s, t in zip(src_corpus, tgt_corpus)]


@dataclass(frozen=True)
class F1Score:
    precision: float
    recall: float
    f1: float


def _prf(intersection: int, predicted: int, gold: int) -> F1Score:
    precision = intersection / predicted if predicted else 1.0
    recall = intersection / gold if gold else 1.0
    if precision + recall == 0.0:
        return F1Score(precision, recall, 0.0)
    return F1Score(precision, recall, 2 * precision * recall / (precision + recall))


def alignment_f1(predicted: set[Link], gold: set[Link]) -> F1Score:
    """Set precision/recall of predicted links against gold links."""
    return _prf(len(predicted & gold), len(predicted), len(gold))


def corpus_alignment_f1(
    predicted: Iterable[set[Link]], gold: Iterable[set[Link]]
) -> F1Score:
    """Micro-averaged link precision/recall over sentence pairs."""
    predicted = list(predicted)
    gold = list(gold)
    if len(predicted) != len(gold):
        raise ValueError(
            f"{len(predicted)} predicted alignments against {len(gold)} gold"
        )
    inter = sum(len(p & g) for p, g in zip(predicted, gold))
    return _prf(inter, sum(len(p) for p in predicted), sum(len(g) for g in gold))


def format_alignment(links: set[Link]) -> str:
    """Render links as the conventional "i-j" pairs, sorted."""
    return " ".join(f"{i}-{j}" for i, j in sorted(links))


def parse_alignment(line: str) -> set[Link]:
    """Inverse of format_alignment; blank line means no links.  Indices are
    ASCII digits only."""
    links = set()
    for pair in line.split():
        match = _PAIR.fullmatch(pair)
        if match is None:
            raise ValueError(f"bad alignment pair {pair!r}")
        links.add((int(match[1]), int(match[2])))
    return links
