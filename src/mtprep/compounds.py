"""Compound-word splitting with a corpus-induced constituent inventory.

Induction scans a monolingual vocabulary: a word joins the compound-suffix
inventory when some other, sufficiently longer vocabulary word ends with it
(the length margin keeps short accidental tails out).  It sorts the
reversed words once (induce-suffixes reads them reversed from the file),
so that the words ending with v follow v[::-1] as one run, and walks only
those runs.  Splitting then recursively strips inventory members off the
right edge of a word, under the same margin, which the inventory carries
(and its file records): suffixes.make_splitter.  The inventory shares its
base, suffixes._Tails (lengths, order, the ends index), with SuffixList.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from itertools import compress

from .corpus import check_int, is_token, parse_digits, read_lines, write_lines
from .suffixes import _Tails, make_splitter

TYPE_CHECKING = False
if TYPE_CHECKING:  # read for annotations only
    import os

DEFAULT_MARGIN = 5


class CompoundSuffixSet(_Tails):
    """Induced constituent inventory.

    counts maps each member to the number of distinct vocabulary words it
    was observed trailing during induction (its provenance); members is the
    same mapping.  margin is the length margin the members were induced
    with; splitting uses it too.
    """

    __match_args__ = ("counts", "margin")

    def __init__(
        self, counts: Mapping[str, int] = {}, margin: int = DEFAULT_MARGIN
    ) -> None:
        counts = dict(counts)  # a copy: later edits to the caller's skip no check
        check_int("margin", margin, 0)  # saved as digits, only an int loads back equal
        for member, count in counts.items():
            if not is_token(member):
                raise ValueError(f"compound suffix {member!r} is not one token")
            if type(count) is not int:
                raise TypeError(f"provenance count for {member!r} must be an int")
            if count < 1:
                raise ValueError(f"provenance count for {member!r} must be >= 1")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "margin", margin)
        self._measure()

    @property
    def members(self) -> dict[str, int]:
        return self.counts


def induce_compound_suffixes(
    vocab: Iterable[str], margin: int = DEFAULT_MARGIN, min_count: int = 1
) -> CompoundSuffixSet:
    """Collect vocabulary words that appear as long-margin suffixes of other
    vocabulary words.

    vocab is any iterable of words but a str (TypeError); repeats and ""
    are ignored, and so are the counts when it is a Mapping from word to
    frequency.  A word v is kept when some other word w satisfies
    w.endswith(v) and len(w) > len(v) + margin; provenance counts the
    distinct w per v.
    margin and min_count must be ints; min_count filters rare members (1
    keeps everything observed).

    The distinct reversed words are sorted once.  In that order the words
    ending with v are exactly the run of entries right after v[::-1] that
    start with it, so v is a candidate only when its successor starts with
    v[::-1], and each candidate's run is walked once.  The cost is one sort
    plus one step per pair (v, w) with w.endswith(v).
    """
    if isinstance(vocab, str):  # would be read as its characters
        raise TypeError("vocab must be a collection of words, not a str")
    check_int("margin", margin, 0)  # CompoundSuffixSet would refuse it after the pass
    check_int("min_count", min_count, 1)  # 2.5 or True would filter like an int
    # deduplicated before reversing: a word caches its hash, its reverse does not
    distinct = set(vocab)
    distinct.discard("")
    return _induce_reversed([word[::-1] for word in distinct], margin, min_count)


def _induce_reversed(
    reversed_words: Iterable[str], margin: int, min_count: int
) -> CompoundSuffixSet:
    """induce_compound_suffixes on distinct, non-empty words given reversed
    (as corpus.read_reversed_types reads them), with checked arguments."""
    words = sorted(reversed_words)
    end = len(words)
    counts: dict[str, int] = {}
    for k in compress(range(end), map(str.startswith, words[1:], words)):
        tail = words[k]
        longer = len(tail) + margin
        count = 0
        k += 1
        # the count reads every entry of the run, so walking to its end costs
        # nothing more (and needs no successor string, which U+10FFFF lacks)
        while k < end and words[k].startswith(tail):
            if len(words[k]) > longer:
                count += 1
            k += 1
        if count >= min_count:
            counts[tail[::-1]] = count
    return CompoundSuffixSet(counts, margin)


def split_compound(
    word: str, compound_suffixes: CompoundSuffixSet, margin: int | None = None
) -> list[str]:
    """The word's constituents, in surface order, by make_splitter's compound
    stage under the inventory's margin.  Another margin splits under a copy
    of the inventory with that margin, built for this call."""
    if margin is not None:
        check_int("margin", margin, 0)
        if margin != compound_suffixes.margin:
            compound_suffixes = CompoundSuffixSet(compound_suffixes.counts, margin)
    return make_splitter(compound_suffixes, None)(word)


def save_compound_suffixes(
    compound_suffixes: CompoundSuffixSet, path: str | os.PathLike[str]
) -> None:
    """Write a "# margin=N" header, then one "suffix<TAB>count" line per
    member, sorted for stable diffs, with corpus.write_lines, which refuses
    a member with no UTF-8 form (a lone surrogate) before it opens the file."""
    counts = compound_suffixes.counts
    write_lines(
        [f"# margin={compound_suffixes.margin}"]
        + [f"{member}\t{counts[member]}" for member in sorted(counts)],
        path,
    )


def load_compound_suffixes(path: str | os.PathLike[str]) -> CompoundSuffixSet:
    """Read the format written by save_compound_suffixes.

    The "# margin=N" header is optional and only allowed on line 1 (member
    lines always contain a tab, so it cannot be mistaken for one); a file
    without it was induced with the default margin.  Lines are those of
    corpus.read_lines, and the margin and counts are integers as
    corpus.parse_digits reads them.  A member with whitespace in it could
    never match a token, so it is a data error.
    """
    counts: dict[str, int] = {}
    margin = DEFAULT_MARGIN
    for lineno, line in enumerate(read_lines(path), start=1):
        if lineno == 1 and line.startswith("#") and "\t" not in line:
            # without the prefix the line still starts with "#": no integer
            margin = parse_digits(line.removeprefix("# margin="))
            if margin is None:
                raise ValueError(f"{path}:1: bad margin header {line!r}")
            continue
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'suffix<TAB>count'")
        member, raw_count = parts
        count = parse_digits(raw_count)
        if count is None:
            raise ValueError(f"{path}:{lineno}: bad count {raw_count!r}")
        if not member or count < 1:
            raise ValueError(f"{path}:{lineno}: bad entry {line!r}")
        if not is_token(member):
            raise ValueError(
                f"{path}:{lineno}: member {member!r} contains whitespace"
            )
        if member in counts:
            raise ValueError(f"{path}:{lineno}: duplicate member {member!r}")
        counts[member] = count
    return CompoundSuffixSet(counts, margin)
