"""Synthetic agglutinative parallel corpus with gold alignments.

Builds a toy language pair where source words are concatenations of stems
and suffixes while the target spells every morpheme as its own word (each
piece maps to its uppercase form).  Because the composed source types are
mostly one-off, a lexical EM aligner ties and guesses on them; after
compound splitting and suffix separation every piece is a recurring type
and alignment sharpens.  That is the effect the benchmark demonstrates,
with gold links generated alongside the text.

The lexicon is constructed so that pipeline output provably matches the
intended segmentation:
  * no stem is a suffix of another stem,
  * no stem ends with a listed suffix,
  * no listed suffix is a suffix of another listed suffix,
  * a compound never spells an adjacent stem pair inside a longer compound,
  * every stem occurs bare, and every stem needing to be stripped mid-word
    also ends some two-stem compound (so induction discovers it).
The builder still validates by running the real pipeline and retries with
a fresh derived seed if a coincidence slips through.
"""

from __future__ import annotations

import random

from .aligner import Link, align_corpus, corpus_alignment_f1, train_em
from .compounds import DEFAULT_MARGIN, induce_compound_suffixes
from .corpus import Corpus, _Frozen, build_vocabulary, check_int
from .pipeline import Mode, PipelineConfig, preprocess
from .suffixes import SuffixList

ALPHABET = "abcdefghijklmnopqrstuvwxyz"
DEFAULT_SEED = 1729

# A unit is one source word: its fused form, its pieces, its target words.
Unit = tuple[str, tuple[str, ...], tuple[str, ...]]


class SyntheticBenchmark(_Frozen):
    """Parallel corpus in two source tokenizations plus gold links."""

    __slots__ = __match_args__ = (
        "src_fused", "src_split", "tgt", "gold_fused", "gold_split", "stems", "suffixes"
    )

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        if not (
            len(self.src_fused) == len(self.src_split) == len(self.tgt)
            == len(self.gold_fused) == len(self.gold_split)
        ):
            raise ValueError("benchmark sides have different sentence counts")


def _draw_words(
    rng: random.Random, count: int, lengths: tuple[int, int],
    avoid: tuple[str, ...] = (),
) -> list[str]:
    """count random words of lengths[0] to lengths[1] letters, none ending
    with a tail in avoid and none a suffix of another (rejection sampling)."""
    out: list[str] = []
    while len(out) < count:
        cand = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(*lengths)))
        if cand.endswith(avoid):
            continue
        if any(cand.endswith(s) or s.endswith(cand) for s in out):
            continue
        out.append(cand)
    return out


class _Generator:
    """Samples units while tracking the constraints listed in the module
    docstring.  Stems are at least 6 characters, one more than DEFAULT_MARGIN,
    so any non-head constituent clears the induction length test."""

    def __init__(self, rng: random.Random, stems: list[str], suffixes: list[str]):
        self.rng = rng
        self.stems = stems
        self.suffixes = suffixes
        self.pieces_of: dict[str, tuple[str, ...]] = {}
        self.deep_pairs: set[str] = set()  # adjacent-pair spellings inside deeps
        self.compound_strings: set[str] = set()

    def _register(self, token: str, pieces: tuple[str, ...]) -> bool:
        known = self.pieces_of.get(token)
        if known is not None and known != pieces:
            return False
        self.pieces_of[token] = pieces
        return True

    @staticmethod
    def _unit(pieces: tuple[str, ...]) -> Unit:
        return "".join(pieces), pieces, tuple(p.upper() for p in pieces)

    def bare(self, stem: str | None = None) -> Unit:
        pieces = (stem if stem is not None else self.rng.choice(self.stems),)
        self._register(pieces[0], pieces)
        return self._unit(pieces)

    def fused(self) -> Unit:
        # A fused form cannot end with any stem (stems never end with a
        # suffix), so only registration can fail, and only on a same-pieces
        # repeat, which is fine.
        pieces = (self.rng.choice(self.stems), self.rng.choice(self.suffixes))
        self._register("".join(pieces), pieces)
        return self._unit(pieces)

    def compound(self, tail: str | None = None) -> Unit:
        for _ in range(60):
            a = self.rng.choice(self.stems)
            b = tail if tail is not None else self.rng.choice(self.stems)
            if a == b:
                continue
            token = a + b
            if token in self.deep_pairs or not self._register(token, (a, b)):
                continue
            self.compound_strings.add(token)
            return self._unit((a, b))
        return self.bare()

    def deep(self) -> Unit:
        for _ in range(60):
            a, b, c = (self.rng.choice(self.stems) for _ in range(3))
            if len({a, b, c}) < 3:
                continue
            token = a + b + c
            if a + b in self.compound_strings or b + c in self.compound_strings:
                continue
            if not self._register(token, (a, b, c)):
                continue
            self.deep_pairs.update((a + b, b + c))
            return self._unit((a, b, c))
        return self.compound()

    def random_unit(self) -> Unit:
        roll = self.rng.random()
        if roll < 0.30:
            return self.bare()
        if roll < 0.64:
            return self.fused()
        if roll < 0.86:
            return self.compound()
        return self.deep()

    def uncovered_middles(self) -> list[str]:
        """Stems stripped mid-word that no composite yet ends with."""
        needed = {p[1] for p in self.pieces_of.values() if len(p) == 3}
        covered = {p[-1] for p in self.pieces_of.values() if len(p) >= 2}
        return sorted(needed - covered)


def _assemble(sentence_units: list[list[Unit]]):
    src_fused, src_split, tgt = [], [], []
    gold_fused, gold_split = [], []
    for units in sentence_units:
        fused_sent: list[str] = []
        split_sent: list[str] = []
        tgt_sent: list[str] = []
        links_fused: set[Link] = set()
        links_split: set[Link] = set()
        for token, pieces, targets in units:
            i = len(fused_sent)
            fused_sent.append(token)
            for piece, target in zip(pieces, targets):
                j = len(tgt_sent)
                links_fused.add((i, j))
                links_split.add((len(split_sent), j))
                split_sent.append(piece)
                tgt_sent.append(target)
        src_fused.append(fused_sent)
        src_split.append(split_sent)
        tgt.append(tgt_sent)
        gold_fused.append(frozenset(links_fused))
        gold_split.append(frozenset(links_split))
    return src_fused, src_split, tgt, tuple(gold_fused), tuple(gold_split)


def _build_once(rng: random.Random, sentences: int) -> SyntheticBenchmark | None:
    suffixes = _draw_words(rng, 8, (2, 3))
    stems = _draw_words(rng, 48, (6, 8), avoid=tuple(suffixes))
    gen = _Generator(rng, stems, suffixes)

    sentence_units: list[list[Unit]] = []
    # Opening block: every stem bare at least once, so induction can see it.
    for base in range(0, len(stems), 6):
        sentence_units.append([gen.bare(s) for s in stems[base : base + 6]])
    while len(sentence_units) < sentences:
        sentence_units.append(
            [gen.random_unit() for _ in range(rng.randint(4, 7))]
        )
    # Closing block: witness compounds for deep middles nothing ends with.
    middles = gen.uncovered_middles()
    for base in range(0, len(middles), 3):
        sentence_units.append(
            [gen.compound(tail=m) for m in middles[base : base + 3]]
        )

    src_fused, src_split, tgt, gold_fused, gold_split = _assemble(sentence_units)
    compound_set = induce_compound_suffixes(
        build_vocabulary(src_fused), margin=DEFAULT_MARGIN
    )
    config = PipelineConfig(
        mode=Mode.CS_SS,
        suffix_list=SuffixList(suffixes),
        compound_set=compound_set,
    )
    if preprocess(src_fused, config) != src_split:
        return None
    return SyntheticBenchmark(
        src_fused=src_fused,
        src_split=src_split,
        tgt=tgt,
        gold_fused=gold_fused,
        gold_split=gold_split,
        stems=tuple(stems),
        suffixes=tuple(suffixes),
    )


def build_benchmark(
    sentences: int = 220, seed: int = DEFAULT_SEED
) -> SyntheticBenchmark:
    """Deterministic benchmark; same arguments, same corpus.

    Generation validates itself by running the actual pipeline over the
    fused corpus and comparing with the intended segmentation; on the rare
    constraint-evading coincidence it retries with a derived seed.
    """
    check_int("sentences", sentences, 1)
    for salt in range(32):
        bench = _build_once(random.Random(seed * 1000003 + salt), sentences)
        if bench is not None:
            return bench
    raise RuntimeError("could not build a self-consistent benchmark corpus")


def alignment_improvement(bench: SyntheticBenchmark) -> tuple[float, float]:
    """Train (train_em's default iterations) and score both tokenizations;
    returns (fused F1, split F1)."""
    fused_table = train_em(bench.src_fused, bench.tgt)
    split_table = train_em(bench.src_split, bench.tgt)
    fused_f1 = corpus_alignment_f1(
        align_corpus(bench.src_fused, bench.tgt, fused_table), bench.gold_fused
    ).f1
    split_f1 = corpus_alignment_f1(
        align_corpus(bench.src_split, bench.tgt, split_table), bench.gold_split
    ).f1
    return fused_f1, split_f1
