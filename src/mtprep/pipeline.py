"""Preprocessing pipeline: compose compound splitting and suffix separation.

Four modes mirror the submitted system configurations: bl (identity),
ss (suffix separation), cs (compound splitting), cs+ss (compound splitting
first, then suffix separation on every resulting constituent): the stages
of suffixes.make_splitter, of which preprocess builds one per call.
"""

from __future__ import annotations

from collections.abc import Callable
from enum import Enum

from .compounds import CompoundSuffixSet
from .corpus import Corpus, _Frozen
from .markers import check_marker, join_marked
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


def _splitter(config: PipelineConfig, marker: str | None) -> Callable[[str], list[str]]:
    """make_splitter with the configured mode's stages, marking with marker."""
    mode = config.mode
    compound_set = config.compound_set if mode in COMPOUND_MODES else None
    return make_splitter(compound_set, config.suffix_list if mode in SUFFIX_MODES else None, marker)


def token_pieces(word: str, config: PipelineConfig) -> list[str]:
    """One token's unmarked pieces under the configured mode, in surface
    order; they always concatenate back to the word."""
    return _splitter(config, None)(word)


def preprocess(corpus: Corpus, config: PipelineConfig) -> Corpus:
    """Apply the configured splitting to every token of every sentence.

    Sentence count is always preserved.  When a marker is configured, any
    input token already containing it is rejected (round-tripping would be
    ambiguous otherwise).  When tags are configured (one per token, in a
    line-parallel corpus), tokens tagged NNP pass through whole.  Each
    distinct word not tagged NNP is split once per call: its marked pieces
    are kept in a dict that lives as long as the call.  Sentences are
    checked in order, tag count before tokens, so the first faulty one raises;
    a sentence or tag row that is a str, not a list, raises TypeError.
    """
    tags, marker = config.nnp_tags, config.marker
    if tags is not None and len(tags) != len(corpus):
        raise ValueError(
            f"tag file has {len(tags)} sentences, corpus has {len(corpus)}"
        )
    split = _splitter(config, marker)
    cache: dict[str, list[str]] = {}
    result: Corpus = []
    for k, sentence in enumerate(corpus):
        if isinstance(sentence, str):  # would be split as its characters
            raise TypeError(f"corpus sentence {k + 1} is a str, not a list of tokens")
        sentence_tags = None if tags is None else tags[k]
        if isinstance(sentence_tags, str):
            raise TypeError(f"tag sentence {k + 1} is a str, not a list of tags")
        if sentence_tags is not None and len(sentence_tags) != len(sentence):
            raise ValueError(
                f"sentence {k + 1}: {len(sentence_tags)} tags "
                f"for {len(sentence)} tokens"
            )
        tokens: list[str] = []
        for t, word in enumerate(sentence):
            if marker is not None and marker in word:
                raise ValueError(
                    f"sentence {k + 1}: input token {word!r} contains "
                    f"the marker {marker!r}"
                )
            if sentence_tags is not None and sentence_tags[t] == NNP_TAG:
                tokens.append(word)
                continue
            pieces = cache.get(word)
            if pieces is None:
                pieces = cache[word] = split(word)
            tokens.extend(pieces)
        result.append(tokens)
    return result


def reconstruct(corpus: Corpus, marker: str = "@@") -> Corpus:
    """Undo a marked preprocessing run: join marker-bearing tokens onward.

    reconstruct(preprocess(x, config-with-marker), marker) == x.  A sentence
    ending in a marked token is malformed and raises, and so does a marker
    that is None or not one token, even on an empty corpus.
    """
    if marker is None:
        raise ValueError("reconstruct needs a marker")
    check_marker(marker)
    return [join_marked(sentence, marker) for sentence in corpus]
