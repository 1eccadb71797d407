"""The line format of every file mtprep reads or writes, and corpora on it.

Every file mtprep reads (corpora, tags, suffix lists, compound
inventories, config, gold alignments) goes through read_lines, and every
file it writes through write_lines, so "a line" means the same everywhere.
A corpus has one sentence per line and tokens separated by whitespace.
Empty lines are kept as empty sentences so that line-parallel
source/target files stay aligned through preprocessing.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Iterable

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


def read_lines(path: str | Path) -> list[str]:
    """Read a UTF-8 file and split it with split_lines.

    Invalid UTF-8 raises UnicodeDecodeError (a ValueError) whose message
    gives the byte offset and names the file and line of the bad byte.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        exc.reason = f"{exc.reason} (at {path}:{lineno})"
        raise
    return split_lines(text)


def write_lines(lines: Iterable[str], path: str | Path) -> None:
    """Write UTF-8 text, each line ended by a line feed: the inverse of
    read_lines for lines without a line feed or a final carriage return."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def is_token(text: str) -> bool:
    """True when text is one token: non-empty and free of the characters
    that separate tokens (those for which str.isspace() holds)."""
    return text.split() == [text]


def parse_token_corpus(text: str) -> Corpus:
    """Tokenize corpus text: one sentence per line, split on whitespace runs.

    Lines are those of split_lines.  Tokens are separated by runs of any
    character for which str.isspace() holds, so tab, carriage return and
    no-break space (U+00A0) separate tokens too.  All tokens are non-empty
    and whitespace-free by construction.  Writing the result back
    (write_token_corpus) reproduces the text byte for byte only when every
    line is its tokens joined by single ASCII spaces and the text ends
    with a line feed (or is empty).
    """
    return [line.split() for line in split_lines(text)]


def read_token_corpus(path: str | Path) -> Corpus:
    """Read a corpus file (see read_lines) into one token list per line."""
    return [line.split() for line in read_lines(path)]


def write_token_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write one line per sentence, tokens joined by single spaces.

    Inverse of read_token_corpus for corpora whose tokens are non-empty and
    whitespace-free.
    """
    write_lines((" ".join(sentence) for sentence in corpus), path)


def build_vocabulary(corpus: Corpus) -> Counter[str]:
    """Count exact token frequencies over the whole corpus."""
    vocab: Counter[str] = Counter()
    for sentence in corpus:
        vocab.update(sentence)
    return vocab
