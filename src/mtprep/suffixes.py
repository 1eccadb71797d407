"""Stem/suffix splitting against a curated suffix inventory.

A word is split at most once, on the longest inventory entry that is a
strict suffix of the word (the stem must keep at least one character).
The inventory itself is a hand-written list of source-language suffixes
that correspond to free-standing postpositions in the target language.
It and compounds.CompoundSuffixSet derive from _Tails, which states once
what both tail inventories hold: lengths, order and the ends index.

make_splitter states the compound and suffix rules once: every splitter in
the package calls the function it builds.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Collection, Iterable, Iterator
from functools import cached_property

from .corpus import _Frozen, is_token, read_lines, write_lines

TYPE_CHECKING = False
if TYPE_CHECKING:  # read for annotations only: compounds imports this module
    import os

    from .compounds import CompoundSuffixSet


class _Tails(_Frozen):
    """The base of both tail inventories, SuffixList and CompoundSuffixSet,
    stated once over each one's members: longest and shortest are the
    longest and shortest member's lengths (0 and 1 when there is none:
    nothing to probe), and ordered lists the members longest first, ties
    lexicographic (a stable order for listings, and the iteration order)."""

    members: Collection[str]  # no __slots__: the cached properties need a __dict__

    def _measure(self) -> None:
        """Set longest and shortest, in one pass over the members' lengths."""
        lengths = set(map(len, self.members))
        object.__setattr__(self, "longest", max(lengths, default=0))
        object.__setattr__(self, "shortest", min(lengths, default=1))

    @cached_property
    def ordered(self) -> tuple[str, ...]:
        return tuple(sorted(self.members, key=lambda s: (-len(s), s)))

    @cached_property
    def ends(self) -> dict[str, tuple[int, ...]]:
        """make_splitter's index, built on first use, so loading does not
        pay: the last shortest characters of each member, mapped to the
        distinct lengths of the members that end with them, longest first
        (the only lengths a tail can be listed at)."""
        lengths: dict[str, set[int]] = {}
        shortest = self.shortest
        for member in self.members:
            lengths.setdefault(member[-shortest:], set()).add(len(member))
        return {end: tuple(sorted(found, reverse=True)) for end, found in lengths.items()}

    def __contains__(self, member: object) -> bool:
        return member in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[str]:
        return iter(self.ordered)


class SuffixList(_Tails):
    """Suffix inventory: members is its set of suffixes, and suffixes (the
    field) is ordered, so saved files come out in a stable order."""

    __match_args__ = ("suffixes",)

    def __init__(self, suffixes: Iterable[str] = ()) -> None:
        if isinstance(suffixes, str):  # would list its characters
            raise TypeError("suffixes must be a collection of strings, not a str")
        suffixes = tuple(suffixes)  # taken once: a generator is used up by the checks
        for s in suffixes:
            if not is_token(s) or s.startswith("#"):
                raise ValueError(f"suffix {s!r} is not one token or starts with '#'")
        object.__setattr__(self, "members", frozenset(suffixes))
        object.__setattr__(self, "suffixes", self.ordered)  # sorted once, here
        self._measure()


class Split(_Frozen):
    """One word split into a stem and at most one suffix.

    An absent suffix means the word was left whole.
    """

    __slots__ = __match_args__ = ("stem", "suffix")

    def __init__(self, stem: str, suffix: str | None = None) -> None:
        super().__init__(stem, suffix)

    def pieces(self) -> list[str]:
        if self.suffix is None:
            return [self.stem]
        return [self.stem, self.suffix]


def load_suffix_list(path: str | os.PathLike[str]) -> SuffixList:
    """Load a one-suffix-per-line file (lines as in corpus.read_lines).

    Blank lines and lines starting with '#' are ignored, surrounding
    whitespace is stripped, and duplicates are dropped.  A suffix with
    whitespace inside could never match a token, so it is a data error.
    An empty result is legal but almost certainly a mistake, so it warns.
    """
    entries = []
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not is_token(line):
            raise ValueError(f"{path}:{lineno}: suffix {line!r} contains whitespace")
        entries.append(line)
    if not entries:
        warnings.warn(f"suffix list {path} contains no suffixes", stacklevel=2)
    return SuffixList(tuple(entries))


def save_suffix_list(suffixes: SuffixList, path: str | os.PathLike[str]) -> None:
    """Write one suffix per line in the list's longest-first order, with
    corpus.write_lines, which refuses, before it opens the file, a list
    load_suffix_list could not read back."""
    write_lines(suffixes.suffixes, path)


def separate_suffix(word: str, suffixes: SuffixList) -> Split:
    """Split off the longest listed suffix that leaves a non-empty stem, if
    any (make_splitter's suffix stage); an empty word raises ValueError."""
    return Split(*make_splitter(None, suffixes)(word))


def make_splitter(
    compound_set: CompoundSuffixSet | None, suffix_list: SuffixList | None
) -> Callable[[str], list[str]]:
    """Build the function from a word to its pieces: the one statement of
    the splitting rules, which every splitter here calls.

    With a compound inventory it strips the longest member off the residue's
    right edge while one is strictly shorter than the residue and the word
    is longer than member length + margin, the margin the inventory records.
    With a suffix list it then splits each constituent once, on the longest
    listed strict tail.  None skips a stage.  The pieces concatenate back
    to the word.  An empty word raises ValueError
    unless both stages are skipped.  A strip reads the lengths the
    inventory's ends index lists for the residue's last shortest characters
    and probes only those that fit, longest first: one dict lookup and at
    most longest - shortest + 1 set lookups, and the first hit is the longest.
    The residue is an end index into the word, so a strip slices only the
    probed tails, and the compound stage is linear in the word's length
    for a given inventory.  No probe is made once the cap is below the
    shortest member's length, so a key's start is never negative, where a
    slice would wrap around.
    """
    compounds = suffixes = None
    if compound_set is not None:
        compounds, c_ends, c_low = compound_set.members, compound_set.ends, compound_set.shortest
        margin = compound_set.margin
    if suffix_list is not None:
        suffixes, s_ends, s_low = suffix_list.members, suffix_list.ends, suffix_list.shortest

    def split(word: str) -> list[str]:
        if not word and (compounds is not None or suffixes is not None):
            raise ValueError("cannot split an empty word")
        pieces = [word]
        if compounds is not None:
            top = len(word) - margin - 1  # longer members fail the margin
            # the residue is word[:end]; pieces: the stripped members, right to left
            end, pieces = len(word), []
            while True:
                cap = end - 1  # a strip leaves a non-empty residue
                if cap > top:
                    cap = top
                if cap < c_low:  # no member fits, and the key's start would be < 1
                    break
                for length in c_ends.get(word[end - c_low : end], ()):
                    if length <= cap and word[end - length : end] in compounds:
                        pieces.append(word[end - length : end])
                        end -= length
                        break
                else:
                    break
            pieces.append(word[:end])
            pieces.reverse()
        if suffixes is not None:
            constituents, pieces = pieces, []
            for constituent in constituents:
                cap = len(constituent) - 1  # the stem keeps a character
                for length in s_ends.get(constituent[-s_low:], ()):
                    if length <= cap and constituent[-length:] in suffixes:
                        pieces += (constituent[:-length], constituent[-length:])
                        break
                else:
                    pieces.append(constituent)
        return pieces

    return split
