"""Stem/suffix splitting against a curated suffix inventory.

A word is split at most once, on the longest inventory entry that is a
strict suffix of the word (the stem must keep at least one character).
The inventory itself is a hand-written list of source-language suffixes
that correspond to free-standing postpositions in the target language.

longest_tail is the matching primitive shared with compound splitting.
It probes tails by length, only within the inventory's length window, so
one strip costs at most longest - shortest + 1 set lookups, whatever the
inventory size.
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import Container, Iterable, Iterator

from .corpus import _Frozen, is_token, read_lines, write_lines


def longest_tail(
    residue: str, members: Container[str], cap: int, shortest: int
) -> int:
    """Length of the longest tail of residue that is in members, or 0.

    Only tails of at most cap characters count.  shortest is the length of
    the shortest member: no shorter tail can match, so none is probed.  It
    must be at least 1 (a precondition, not checked): residue[-0:] is the
    whole residue, not an empty tail.  Probing by length therefore costs
    at most cap - shortest + 1 lookups whatever the inventory size, and
    since exactly one string of each length is a tail, the first hit is
    the longest match.
    """
    for length in range(min(cap, len(residue)), shortest - 1, -1):
        if residue[-length:] in members:
            return length
    return 0


class SuffixList(_Frozen):
    """Suffix inventory, deduplicated and ordered longest first (ties
    lexicographic) so saved files and listings come out in a stable order.

    members holds them as a set for matching, longest the first one's length
    and shortest the last one's (0 and 1 for an empty list: nothing to probe).
    """

    __slots__ = ("suffixes", "members", "longest", "shortest")
    __match_args__ = ("suffixes",)

    def __init__(self, suffixes: Iterable[str] = ()) -> None:
        if isinstance(suffixes, str):  # would list its characters
            raise TypeError("suffixes must be a collection of strings, not a str")
        suffixes = tuple(suffixes)  # taken once: a generator is used up by the checks
        for s in suffixes:
            if not is_token(s) or s.startswith("#"):
                raise ValueError(f"suffix {s!r} is not one token or starts with '#'")
        members = frozenset(suffixes)
        ordered = tuple(sorted(members, key=lambda s: (-len(s), s)))
        object.__setattr__(self, "suffixes", ordered)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "longest", len(ordered[0]) if ordered else 0)
        object.__setattr__(self, "shortest", len(ordered[-1]) if ordered else 1)

    def __iter__(self) -> Iterator[str]:
        return iter(self.suffixes)

    def __len__(self) -> int:
        return len(self.suffixes)

    def __contains__(self, suffix: object) -> bool:
        return suffix in self.members


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


def load_suffix_list(path: str | Path) -> SuffixList:
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


def save_suffix_list(suffixes: SuffixList, path: str | Path) -> None:
    """Write one suffix per line in the list's longest-first order.

    A list whose file load_suffix_list would refuse raises ValueError
    before the file is opened: one whose first entry starts with U+FEFF
    (read back as a byte order mark), or one with an entry that has no
    UTF-8 form (a lone surrogate).
    """
    ordered = suffixes.suffixes
    if ordered and ordered[0].startswith("\ufeff"):
        raise ValueError(
            f"suffix {ordered[0]!r} would start the file with a byte order mark"
        )
    _check_utf8(ordered, "suffix")
    write_lines(ordered, path)


def _check_utf8(entries: Iterable[str], kind: str) -> None:
    """Raise ValueError naming the first entry that has no UTF-8 form (a
    lone surrogate), so that an inventory saver refuses it before it opens
    the file, rather than fail halfway through writing it."""
    for entry in entries:
        try:
            entry.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{kind} {entry!r} has no UTF-8 form") from None


def suffix_length(word: str, suffixes: SuffixList) -> int:
    """Length of the longest listed suffix to split off word, or 0.

    The match must be strict: the word has to be longer than the suffix so
    the stem stays non-empty.  Only tails within the list's length window
    are probed.
    """
    if not word:
        raise ValueError("cannot split an empty word")
    return longest_tail(
        word, suffixes.members, min(len(word) - 1, suffixes.longest), suffixes.shortest
    )


def separate_suffix(word: str, suffixes: SuffixList) -> Split:
    """Split off the longest listed suffix, if any (see suffix_length).

    Words with no qualifying suffix come back whole.
    """
    length = suffix_length(word, suffixes)
    if length:
        return Split(word[:-length], word[-length:])
    return Split(word)
