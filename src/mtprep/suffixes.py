"""Stem/suffix splitting against a curated suffix inventory.

A word is split at most once, on the longest inventory entry that is a
strict suffix of the word (the stem must keep at least one character).
The inventory itself is a hand-written list of source-language suffixes
that correspond to free-standing postpositions in the target language.

longest_tail is the matching primitive shared with compound splitting.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Container, Iterator

from .corpus import is_token, read_lines, write_lines


def longest_tail(residue: str, members: Container[str], cap: int) -> int:
    """Length of the longest tail of residue that is in members, or 0.

    Only tails of at most cap characters count.  Probing by length costs
    O(len(residue)) lookups whatever the inventory size, and since exactly
    one string of each length is a tail, the first hit is the longest match.
    """
    for length in range(min(cap, len(residue)), 0, -1):
        if residue[-length:] in members:
            return length
    return 0


@dataclass(frozen=True)
class SuffixList:
    """Suffix inventory, deduplicated and ordered longest first (ties
    lexicographic) so saved files and listings come out in a stable order.

    members holds the same suffixes as a set for matching.
    """

    suffixes: tuple[str, ...] = field(default=())
    members: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for s in self.suffixes:
            if not s:
                raise ValueError("suffix list entries must be non-empty")
        members = frozenset(self.suffixes)
        ordered = tuple(sorted(members, key=lambda s: (-len(s), s)))
        object.__setattr__(self, "suffixes", ordered)
        object.__setattr__(self, "members", members)

    def __iter__(self) -> Iterator[str]:
        return iter(self.suffixes)

    def __len__(self) -> int:
        return len(self.suffixes)

    def __contains__(self, suffix: object) -> bool:
        return suffix in self.members


@dataclass(frozen=True)
class Split:
    """One word split into a stem and at most one suffix.

    An absent suffix means the word was left whole.
    """

    stem: str
    suffix: str | None = None

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
    """Write one suffix per line in the list's longest-first order."""
    write_lines(suffixes, path)


def separate_suffix(word: str, suffixes: SuffixList) -> Split:
    """Split off the longest listed suffix, if any.

    The match must be strict: the word has to be longer than the suffix so
    the stem stays non-empty.  Words with no qualifying suffix come back
    whole.
    """
    if not word:
        raise ValueError("cannot split an empty word")
    length = longest_tail(word, suffixes.members, len(word) - 1)
    if length:
        return Split(word[:-length], word[-length:])
    return Split(word)
