"""Desk-scale lexical-translation aligner trained by expectation-maximization.

Bag-of-words model: every target word is generated by one source word of
the same sentence pair, chosen uniformly.  Training learns the lexical
table t(target | source); Viterbi alignment links each target position to
its argmax source position; both put the null word, when on, in slot 0.
Training numbers the table's cells (each source word's co-occurring
targets as one run of ids) and iterates over flat lists, walking each
sentence pair's cell ids as one block; the result is a dict of rows, which
Viterbi reads.  Small corpora only; there is no distortion model.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable
from functools import lru_cache
from itertools import islice

from .corpus import Corpus, Sentence, _Frozen, check_int, check_parallel, parse_digits

# Pseudo source word that absorbs target words with no good real source.
# It sits in slot 0 of every source sentence when the null word is on.
NULL_TOKEN = "<null>"

# Mass below this is treated as zero during normalization.
PROB_FLOOR = 1e-12

Link = tuple[int, int]

# How many distinct pair texts parse_alignment keeps parsed.  A gold file
# repeats a few pairs ("0-0", "1-1", ...) on every line, but it may hold any
# number of distinct ones, so the cache is bounded.
_LINK_CACHE_SIZE = 4096


class TranslationTable(_Frozen):
    """t(target | source) plus the log-likelihood of each iteration,
    measured with the table that iteration starts from (so entry 0 is that
    of the uniform start, and the final table's own is not recorded).

    has_null records whether training put the null word in slot 0 of every
    source sentence (a source corpus may contain the literal NULL_TOKEN).
    """

    __slots__ = __match_args__ = ("probs", "log_likelihoods", "has_null")

    def __init__(
        self, probs: dict[str, dict[str, float]],
        log_likelihoods: tuple[float, ...] = (), has_null: bool = False,
    ) -> None:
        super().__init__(probs, log_likelihoods, has_null)

    def prob(self, source: str, target: str) -> float:
        return self.probs.get(source, {}).get(target, 0.0)


def _with_null(src: Sentence, null_word: bool) -> Sentence:
    """The source side as the model sees it: NULL_TOKEN in slot 0 if on."""
    return [NULL_TOKEN, *src] if null_word else src


def train_em(
    src_corpus: Corpus,
    tgt_corpus: Corpus,
    iterations: int = 5,
    null_word: bool = False,
) -> TranslationTable:
    """Train the lexical table on a parallel corpus.

    Initialization is uniform over co-occurring pairs, so training is fully
    deterministic; table keys keep first-seen order under any hash seed.
    The log-likelihood recorded for iteration k is measured with the table
    that iteration starts from; the sequence is non-decreasing.  Sentence
    pairs with an empty side carry no signal and are skipped.

    Training runs over cells, one per co-occurring (source, target) pair:
    t(t|s) and the expected counts are flat float lists indexed by cell,
    and the E-step walks one array of cell ids, each sentence pair's as
    one block, taking each target word's source positions' ids as one
    tuple.  Every sum runs in the order of the dict-per-source EM it
    replaces, so each value is bit-identical to it.
    """
    check_int("iterations", iterations, 1)  # True would train once, 2.5 fail in range
    if type(null_word) is not bool:  # "no" would turn the null word on
        raise TypeError(f"null_word must be a bool, not {null_word!r}")
    check_parallel("source", src_corpus, "target", tgt_corpus)
    if not src_corpus:
        raise ValueError("cannot train on an empty corpus")
    if null_word and any(NULL_TOKEN in s for s in src_corpus):
        raise ValueError(f"source corpus already contains {NULL_TOKEN!r}")

    pairs = []
    for src, tgt in zip(src_corpus, tgt_corpus):
        if src and tgt:
            pairs.append((_with_null(src, null_word), tgt))
    if not pairs:
        raise ValueError("no non-empty sentence pairs to train on")

    # Each source word's co-occurring targets in first-seen order, then
    # each source word's cells numbered in that order as one run of ids.
    cooc: dict[str, dict[str, int | None]] = {}
    for src, tgt in pairs:
        tgt_keys = dict.fromkeys(tgt)
        for s in dict.fromkeys(src):
            cooc.setdefault(s, {}).update(tgt_keys)
    runs: list[tuple[int, int]] = []  # each source word's cells: range(lo, hi)
    p: list[float] = []  # t(t|s) of each cell
    for s, row in cooc.items():
        lo, hi = len(p), len(p) + len(row)
        cooc[s] = dict(zip(row, range(lo, hi)))
        runs.append((lo, hi))
        p += [1.0 / len(row)] * len(row)

    # The E-step's reads, pair after pair: for each target word, one cell
    # per source position.
    cells = array("I")
    shapes = array("I")  # each pair's source length, then its target length
    for src, tgt in pairs:
        rows = [cooc[s] for s in src]
        cells.extend([row[t] for t in tgt for row in rows])
        shapes.extend((len(src), len(tgt)))
    sources = list(cooc)
    targets = [t for row in cooc.values() for t in row]  # the target of each cell
    del pairs, cooc

    dropped: set[int] = set()  # cells no longer in their source word's row
    history = []
    read = p.__getitem__  # p is only ever updated in place
    cnt = [0.0] * len(p)
    for _ in range(iterations):
        log_likelihood = 0.0
        stream = iter(cells)  # read once, pair after pair
        for n, m in zip(*[iter(shapes)] * 2):
            # the pair's m target words, each as a tuple of its n cells
            for ids in islice(zip(*[stream] * n), m):
                denom = sum(map(read, ids))
                if denom < PROB_FLOOR:
                    denom = PROB_FLOOR
                log_likelihood += math.log(denom / n)
                for c in ids:  # a cell read as 0.0 adds an exact 0.0
                    cnt[c] += p[c] / denom
        history.append(log_likelihood)
        for lo, hi in runs:
            run = cnt[lo:hi]
            # zero for the next E-step, which frees the counts as the M-step goes
            cnt[lo:hi] = [0.0] * (hi - lo)
            total = sum(run)  # 0.0 counts leave the sum's bits alone
            if total >= PROB_FLOOR:  # else no evidence: keep the old distribution
                if 0.0 in run:  # a cell read as 0.0 got no count: it leaves the row
                    dropped.update(c for c in range(lo, hi) if not p[c])
                p[lo:hi] = [c / total for c in run]
    del cells, shapes, cnt

    probs = {
        s: {targets[c]: p[c] for c in range(lo, hi) if c not in dropped}
        for s, (lo, hi) in zip(sources, runs)
    }
    return TranslationTable(
        probs=probs, log_likelihoods=tuple(history), has_null=null_word
    )


def viterbi_align(src: Sentence, tgt: Sentence, table: TranslationTable) -> set[Link]:
    """Link each target position to its most probable source position.

    Ties go to the leftmost candidate.  When the table was trained with a
    null word it occupies slot 0, so it wins ties and absorbs unknown
    target words; positions it claims get no link.
    """
    first = int(table.has_null)  # slot of the first real source word
    rows = [table.probs.get(s, {}) for s in _with_null(src, table.has_null)]
    if not rows:
        return set()  # no source word and no null word: nothing to link to
    links: set[Link] = set()
    for j, t in enumerate(tgt):
        column = [row.get(t, 0.0) for row in rows]
        i = column.index(max(column))  # leftmost maximum
        if i >= first:
            links.add((i - first, j))
    return links


def align_corpus(
    src_corpus: Corpus, tgt_corpus: Corpus, table: TranslationTable
) -> list[set[Link]]:
    check_parallel("source", src_corpus, "target", tgt_corpus)
    return [viterbi_align(s, t, table) for s, t in zip(src_corpus, tgt_corpus)]


class F1Score(_Frozen):
    __slots__ = __match_args__ = ("precision", "recall", "f1")


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
    """Inverse of format_alignment; blank line means no links.  A pair is two
    corpus.parse_digits integers joined by "-"; anything else raises.  Each
    distinct pair text is parsed once (up to _LINK_CACHE_SIZE of them are
    kept), so equal pairs across lines give the same link tuple."""
    return set(map(_link, line.split()))


@lru_cache(maxsize=_LINK_CACHE_SIZE)
def _link(pair: str) -> Link:
    """One "i-j" pair text as a link.  A malformed pair raises ValueError,
    which lru_cache does not keep, so it raises again each time."""
    i, _, j = pair.partition("-")
    link = parse_digits(i), parse_digits(j)
    if None in link:
        raise ValueError(f"bad alignment pair {pair!r}")
    return link
