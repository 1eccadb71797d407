"""The line format of every file mtprep reads or writes, and corpora on it.

Every file mtprep reads (corpora, tags, suffix lists, compound
inventories, config, gold alignments, monolingual text) goes through
read_text, the one reader, which passes its str or os.PathLike path to
open(): read_lines splits its text into lines, and read_reversed_types into
the set of distinct tokens, each reversed.  Every file mtprep writes goes
through write_lines, so "a line" means the same everywhere, and a written
file always reads back: write_lines refuses, before it opens the file, any
text read_text would refuse.  Integers read from text go through
parse_digits, integer arguments of the library through check_int, and
corpora through checked_sentences, which refuses a sentence given as a str
(check_parallel adds the sentence counts of two parallel sides).  _Frozen
is the one base of the package's value classes, here because every module
that defines one imports this one.
A corpus has one sentence per line and tokens separated by whitespace.
Empty lines are kept as empty sentences so that line-parallel
source/target files stay aligned through preprocessing.
"""

from __future__ import annotations

import codecs
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain

TYPE_CHECKING = False
if TYPE_CHECKING:  # read for annotations only
    import io
    import os

Sentence = list[str]
Corpus = list[Sentence]


def split_lines(text: str) -> list[str]:
    """Split text into lines: the one definition of a line.

    A line ends at a line feed (U+000A), and a carriage return just before
    it belongs to the line ending, so CRLF text splits like LF text.  A
    final line feed ends the last line; it does not start an empty one.
    No other character ends a line: a lone carriage return, form feed,
    U+0085 or U+2028 stays inside its line.
    """
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def read_text(path: str | os.PathLike[str]) -> str:
    """Read a UTF-8 file into one string.

    Invalid UTF-8 raises UnicodeDecodeError (a ValueError) whose message
    gives the byte offset and names the file and line of the bad byte.  A
    file that starts with a UTF-8 byte order mark raises ValueError: the
    mark would otherwise become part of the first token or key.  An int
    raises TypeError: open() would read, then close, that file descriptor.
    """
    with _open(path, "rb") as fh:
        data = fh.read()
    if data.startswith(codecs.BOM_UTF8):
        raise ValueError(f"{path}:1: starts with a UTF-8 byte order mark")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        exc.reason = f"{exc.reason} (at {path}:{lineno})"
        raise


def read_lines(path: str | os.PathLike[str]) -> list[str]:
    """Read a file with read_text and split it with split_lines."""
    return split_lines(read_text(path))


def write_lines(lines: Iterable[str], path: str | os.PathLike[str]) -> None:
    """Write UTF-8 text, each line ended by a line feed: the inverse of
    read_lines for lines without a line feed or a final carriage return.

    The text is composed whole before the file is opened, so a refusal
    leaves an existing file as it was and creates none: text that starts
    with U+FEFF or has no UTF-8 form (a lone surrogate), which read_text
    could not read back, raises ValueError naming path:line, and an int
    path raises TypeError, as in read_text.
    """
    text = "".join(line + "\n" for line in lines)
    if text.startswith("\ufeff"):
        raise ValueError(f"{path}:1: would start the file with a byte order mark")
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        lineno = text.count("\n", 0, exc.start) + 1
        raise ValueError(
            f"{path}:{lineno}: {text[exc.start]!r} has no UTF-8 form"
        ) from None
    with _open(path, "wb") as fh:
        fh.write(data)


def _open(path: str | os.PathLike[str], mode: str) -> io.BufferedIOBase:
    """open(path, mode), refusing an int with TypeError: open() would take
    it for a file descriptor and close the caller's descriptor."""
    if isinstance(path, int):
        raise TypeError(f"expected str, bytes or os.PathLike object, not {type(path).__name__}")
    return open(path, mode)


def is_token(text: object) -> bool:
    """True when text is one token: a str, non-empty and free of the
    characters that separate tokens (those for which str.isspace() holds).
    Anything else, bytes included, is not one, so each caller's ValueError
    names it."""
    return isinstance(text, str) and text.split() == [text]


def parse_digits(text: str) -> int | None:
    """text as an int if it is ASCII digits 0-9 that int() converts, else
    None: no sign, space, underscore or other Unicode digit, and no more
    digits than sys.get_int_max_str_digits().  Every integer mtprep reads
    from a flag, a config file or a data file goes through here."""
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:  # more digits than int() converts
        return None


def check_int(name: str, value: object, minimum: int) -> None:
    """Refuse an integer argument that is not exactly an int (a bool, float
    or str is refused with TypeError) or is below minimum (ValueError)."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, not {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def checked_sentences(side: str, corpus: Iterable[Sentence]) -> Iterator[Sentence]:
    """Yield the corpus's sentences, refusing one that is a str, not a list
    of tokens (every layer would read its characters as tokens), when it is
    reached: TypeError names the side and the sentence's number.  Checking
    as it reads, it reads the corpus once, so a generator corpus works."""
    for k, sentence in enumerate(corpus, start=1):
        if isinstance(sentence, str):
            raise TypeError(f"{side} sentence {k} is a str, not a list of tokens")
        yield sentence


def check_parallel(
    first: str, a: Sequence[object], second: str, b: Sequence[object]
) -> None:
    """Refuse two line-parallel corpora (side names first and second) whose
    sentence counts differ, with ValueError, then each with checked_sentences."""
    if len(a) != len(b):
        raise ValueError(f"{first} corpus has {len(a)} sentences, {second} has {len(b)}")
    for _ in chain(checked_sentences(first, a), checked_sentences(second, b)):
        pass


class _Frozen:
    """An immutable value, as a frozen dataclass would make it, without the
    cost of importing dataclasses: the base of every mtprep value class.  A
    subclass names its fields once, in __match_args__; repr, equality
    (within one class) and hash read them.  __init__ binds its arguments to
    the fields as a dataclass __init__ does, positional ones first, and sets
    each attribute once, through object.__setattr__."""

    __slots__ = ("__weakref__",)  # weakly referable, as a dataclass instance is

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__match_args__
        if len(args) > len(names):
            raise TypeError(
                f"{self.__class__.__qualname__}() takes {len(names)} arguments "
                f"but {len(args)} were given"
            )
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args) :]:
            if name not in kwargs:
                raise TypeError(
                    f"{self.__class__.__qualname__}() missing argument {name!r}"
                )
            object.__setattr__(self, name, kwargs.pop(name))
        for name in kwargs:  # left over: unknown, or given twice
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(
                f"{self.__class__.__qualname__}() got {problem} argument {name!r}"
            )

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({', '.join(fields)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__
        return self.__class__, self._fields()


def parse_token_corpus(text: str) -> Corpus:
    """Tokenize corpus text: one sentence per line, split on whitespace runs.

    Lines are those of split_lines.  Tokens are separated by runs of any
    character for which str.isspace() holds, so tab, carriage return and
    no-break space (U+00A0) separate tokens too.  All tokens are non-empty
    and whitespace-free by construction.  Writing the result back
    (write_token_corpus) reproduces the text byte for byte only when every
    line is its tokens joined by single ASCII spaces and the text ends
    with a line feed (or is empty).  Equal tokens of one call are one str
    object (a dict of the call's tokens, dropped on return, shares them), so
    a corpus holds one str per distinct token and a dict finds its key by
    identity.
    """
    share = {}.setdefault
    return [list(map(share, words, words)) for words in map(str.split, split_lines(text))]


def read_token_corpus(path: str | os.PathLike[str]) -> Corpus:
    """Read a corpus file (see read_text) with parse_token_corpus."""
    return parse_token_corpus(read_text(path))


def read_reversed_types(path: str | os.PathLike[str]) -> set[str]:
    """Read a corpus file (see read_text) into its set of distinct tokens,
    each reversed: {w[::-1] for line in read_lines(path) for w in line.split()}
    without a list per line or a slice per token.  Every
    whitespace character is one code point, so reversing the text reverses
    every token and keeps every separator, and both line ends are whitespace
    to str.split, so no token spans two lines."""
    return set(read_text(path)[::-1].split())


def write_token_corpus(corpus: Corpus, path: str | os.PathLike[str]) -> None:
    """Write one line per sentence, tokens joined by single spaces, with
    write_lines, which refuses what read_token_corpus could not read back.

    Inverse of read_token_corpus for corpora whose tokens are non-empty and
    whitespace-free.  A sentence that is a str raises TypeError
    (checked_sentences) before the file is opened.
    """
    write_lines(map(" ".join, checked_sentences("corpus", corpus)), path)


def build_vocabulary(corpus: Corpus) -> Counter[str]:
    """Count exact token frequencies over the whole corpus."""
    return Counter(chain.from_iterable(checked_sentences("corpus", corpus)))
