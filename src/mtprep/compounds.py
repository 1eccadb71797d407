"""Compound-word splitting with a corpus-induced constituent inventory.

Induction scans a monolingual vocabulary: a word joins the compound-suffix
inventory when some other, sufficiently longer vocabulary word ends with it
(the length margin keeps short accidental tails out).  Splitting then
recursively strips inventory members off the right edge of a word, under
the same margin, which the inventory carries (and its file records).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterator, Mapping

from .corpus import is_token, read_lines, write_lines
from .suffixes import longest_tail

DEFAULT_MARGIN = 5

_MARGIN_HEADER = re.compile(r"# margin=([0-9]+)")


@dataclass(frozen=True)
class CompoundSuffixSet:
    """Induced constituent inventory.

    counts maps each member to the number of distinct vocabulary words it
    was observed trailing during induction (its provenance).  margin is the
    length margin the members were induced with; splitting uses it too.
    """

    counts: Mapping[str, int] = field(default_factory=dict)
    margin: int = DEFAULT_MARGIN

    def __post_init__(self) -> None:
        if self.margin < 0:
            raise ValueError("margin must be >= 0")
        for member, count in self.counts.items():
            if not member:
                raise ValueError("compound suffixes must be non-empty")
            if count < 1:
                raise ValueError(f"provenance count for {member!r} must be >= 1")

    @cached_property
    def ordered(self) -> tuple[str, ...]:
        """Members sorted longest first (ties lexicographic): a stable
        display order, also the iteration order."""
        return tuple(sorted(self.counts, key=lambda s: (-len(s), s)))

    def __contains__(self, member: object) -> bool:
        return member in self.counts

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self) -> Iterator[str]:
        return iter(self.ordered)


def induce_compound_suffixes(
    vocab: Mapping[str, int], margin: int = DEFAULT_MARGIN, min_count: int = 1
) -> CompoundSuffixSet:
    """Collect vocabulary words that appear as long-margin suffixes of other
    vocabulary words.

    A word v is kept when some other word w satisfies w.endswith(v) and
    len(w) > len(v) + margin; provenance counts the distinct w per v.
    min_count filters rare members (1 keeps everything observed).
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    words = set(vocab)
    counts: dict[str, int] = {}
    for w in words:
        # Tails of length L satisfy len(w) > L + margin, i.e. L <= len(w)-margin-1,
        # and are strictly shorter than w, so w itself never qualifies.
        longest = len(w) - margin - 1
        for length in range(1, longest + 1):
            tail = w[-length:]
            if tail in words:
                counts[tail] = counts.get(tail, 0) + 1
    if min_count > 1:
        counts = {s: c for s, c in counts.items() if c >= min_count}
    return CompoundSuffixSet(counts, margin)


def split_compound(
    word: str, compound_suffixes: CompoundSuffixSet, margin: int | None = None
) -> list[str]:
    """Repeatedly strip the longest fitting inventory member off the right
    edge of the word.

    A strip needs residue.endswith(member), a strictly shorter member than
    the current residue (constituents stay non-empty), and the original
    word longer than member length + margin.  margin defaults to the one
    the inventory was induced with.  Returned constituents are in surface
    order and always concatenate back to the input.
    """
    if not word:
        raise ValueError("cannot split an empty word")
    if margin is None:
        margin = compound_suffixes.margin
    stripped: list[str] = []
    residue = word
    longest = len(word) - margin - 1
    while True:
        length = longest_tail(
            residue, compound_suffixes.counts, min(len(residue) - 1, longest)
        )
        if not length:
            break
        stripped.append(residue[-length:])
        residue = residue[:-length]
    stripped.append(residue)
    stripped.reverse()
    return stripped


def save_compound_suffixes(
    compound_suffixes: CompoundSuffixSet, path: str | Path
) -> None:
    """Write a "# margin=N" header, then one "suffix<TAB>count" line per
    member, sorted for stable diffs."""
    counts = compound_suffixes.counts
    write_lines(
        [f"# margin={compound_suffixes.margin}"]
        + [f"{member}\t{counts[member]}" for member in sorted(counts)],
        path,
    )


def load_compound_suffixes(path: str | Path) -> CompoundSuffixSet:
    """Read the format written by save_compound_suffixes.

    The "# margin=N" header is optional and only allowed on line 1 (member
    lines always contain a tab, so it cannot be mistaken for one); a file
    without it was induced with the default margin.  Lines are those of
    corpus.read_lines.  A member with whitespace in it could never match a
    token, so it is a data error.
    """
    counts: dict[str, int] = {}
    margin = DEFAULT_MARGIN
    for lineno, line in enumerate(read_lines(path), start=1):
        if lineno == 1 and line.startswith("#") and "\t" not in line:
            header = _MARGIN_HEADER.fullmatch(line)
            if header is None:
                raise ValueError(f"{path}:1: bad margin header {line!r}")
            margin = int(header.group(1))
            continue
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'suffix<TAB>count'")
        member, raw_count = parts
        try:
            count = int(raw_count)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad count {raw_count!r}") from None
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
