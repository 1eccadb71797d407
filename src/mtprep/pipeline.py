"""Preprocessing pipeline: compose compound splitting and suffix separation.

Four modes mirror the submitted system configurations: bl (identity),
ss (suffix separation), cs (compound splitting), cs+ss (compound splitting
first, then suffix separation on every resulting constituent): the stages
of suffixes.make_splitter.  preprocess maps token lists and
preprocess_lines text lines, both through _render and its rules.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from enum import Enum
from itertools import chain

from .compounds import CompoundSuffixSet
from .corpus import Corpus, _Frozen, checked_sentences
from .markers import check_marker, join_marked, mark_pieces
from .suffixes import SuffixList, make_splitter

# Tokens carrying this POS tag are exempt from splitting when tags are
# supplied: proper nouns fragment badly and gain nothing from separation.
NNP_TAG = "NNP"


class Mode(Enum):
    BL = "bl"
    SS = "ss"
    CS = "cs"
    CS_SS = "cs+ss"


COMPOUND_MODES = (Mode.CS, Mode.CS_SS)
SUFFIX_MODES = (Mode.SS, Mode.CS_SS)


class PipelineConfig(_Frozen):
    __slots__ = __match_args__ = (
        "mode", "suffix_list", "compound_set", "marker", "nnp_tags"
    )

    def __init__(
        self, mode: Mode, suffix_list: SuffixList | None = None,
        compound_set: CompoundSuffixSet | None = None, marker: str | None = None,
        nnp_tags: Corpus | None = None,
    ) -> None:
        mode = Mode(mode)  # "ss" -> Mode.SS
        check_marker(marker)
        if mode in SUFFIX_MODES and suffix_list is None:
            raise ValueError(f"mode {mode.value} requires a suffix list")
        if mode in COMPOUND_MODES and compound_set is None:
            raise ValueError(f"mode {mode.value} requires a compound suffix set")
        super().__init__(mode, suffix_list, compound_set, marker, nnp_tags)

    def splitter(self) -> Callable[[str], list[str]]:
        """make_splitter with the mode's stages: a function from a word to
        its unmarked pieces, in surface order, which always concatenate back
        to the word.  Each call builds a new one, so build it once and call
        it per word, as preprocess does."""
        mode = self.mode
        return make_splitter(
            self.compound_set if mode in COMPOUND_MODES else None,
            self.suffix_list if mode in SUFFIX_MODES else None,
        )


class _Cache(dict):
    """word -> finish(its pieces under config's mode), made on first lookup."""

    __slots__ = ("split", "finish")

    def __init__(self, config: PipelineConfig, finish: Callable[[list[str]], object]) -> None:
        self.split, self.finish = config.splitter(), finish

    def __missing__(self, word: str) -> object:
        value = self[word] = self.finish(self.split(word))
        return value


def _render(
    sentences: Iterable[list[str]], count: int, config: PipelineConfig, finish: Callable
) -> Iterator[Iterable[object]]:
    """The per-sentence rules, stated once: yield each sentence's tokens as
    finish(pieces), a token tagged NNP being one piece, splitting each other
    word once per call.  The tags must have count sentences; then the first
    faulty sentence raises, its tag count checked before its tokens."""
    tags, marker = config.nnp_tags, config.marker
    if tags is not None and len(tags) != count:
        raise ValueError(f"tag file has {len(tags)} sentences, corpus has {count}")
    render = _Cache(config, finish).__getitem__
    for k, sentence in enumerate(checked_sentences("corpus", sentences)):
        sentence_tags = None if tags is None else tags[k]
        if isinstance(sentence_tags, str):
            raise TypeError(f"tag sentence {k + 1} is a str, not a list of tags")
        if sentence_tags is not None and len(sentence_tags) != len(sentence):
            raise ValueError(
                f"sentence {k + 1}: {len(sentence_tags)} tags "
                f"for {len(sentence)} tokens"
            )
        # a marker has no whitespace, so a hit in the joined tokens is in one
        if marker is not None and marker in " ".join(sentence):
            t = next(t for t, word in enumerate(sentence) if marker in word)
            for u in range(t):  # reading order: a token before it may fail to split
                if sentence_tags is None or sentence_tags[u] != NNP_TAG:
                    render(sentence[u])
            raise ValueError(
                f"sentence {k + 1}: input token {sentence[t]!r} contains "
                f"the marker {marker!r}"
            )
        if sentence_tags is None:
            yield map(render, sentence)
        else:
            yield (finish([word]) if tag == NNP_TAG else render(word)
                   for word, tag in zip(sentence, sentence_tags))


def preprocess(corpus: Corpus, config: PipelineConfig) -> Corpus:
    """Apply the configured splitting to every token of every sentence.

    Sentence count is always preserved.  When a marker is configured, any
    input token already containing it is rejected (round-tripping would be
    ambiguous otherwise).  When tags are configured (one per token, in a
    line-parallel corpus), tokens tagged NNP pass through whole.  A sentence
    or tag row that is a str, not a list, raises TypeError."""
    marker = config.marker
    items = _render(corpus, len(corpus), config, lambda pieces: mark_pieces(pieces, marker))
    return [list(chain.from_iterable(sentence)) for sentence in items]


def preprocess_lines(lines: Sequence[str], config: PipelineConfig) -> Iterator[str]:
    """preprocess on text lines split by str.split, giving the lines
    write_token_corpus would write: a word is rendered once, as its pieces
    joined by the marker and a space (or a space), and a line joins its
    tokens' renderings with spaces."""
    sep = " " if config.marker is None else config.marker + " "
    return map(" ".join, _render(map(str.split, lines), len(lines), config, sep.join))


def reconstruct(corpus: Corpus, marker: str = "@@") -> Corpus:
    """Undo a marked preprocessing run: join marker-bearing tokens onward.

    reconstruct(preprocess(x, config-with-marker), marker) == x.  A sentence
    ending in a marked token is malformed and raises, and so does a marker
    that is None or not one token, even on an empty corpus, and a sentence
    that is a str raises TypeError (corpus.checked_sentences).
    """
    if marker is None:
        raise ValueError("reconstruct needs a marker")
    check_marker(marker)
    return [join_marked(sentence, marker) for sentence in checked_sentences("corpus", corpus)]
