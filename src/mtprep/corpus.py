"""Reading, writing, and counting whitespace-tokenized corpora.

The on-disk format is the shared plain-text convention: UTF-8, one sentence
per line, tokens separated by whitespace.  Empty lines are kept as empty
sentences so that line-parallel source/target files stay aligned through
preprocessing.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

Sentence = list[str]
Corpus = list[Sentence]


def parse_token_corpus(text: str) -> Corpus:
    """Tokenize corpus text: one sentence per line, split on whitespace runs.

    Lines end at a line feed (U+000A) only.  Tokens are separated by runs
    of any character for which str.isspace() holds, so tab, carriage
    return and no-break space (U+00A0) separate tokens too.  All tokens
    are non-empty and whitespace-free by construction.  A final newline
    does not produce a trailing empty sentence.  Writing the result back
    (write_token_corpus) reproduces the text byte for byte only when every
    line is its tokens joined by single ASCII spaces and the text ends
    with a line feed (or is empty).
    """
    if not text:
        return []
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line.split() for line in lines]


def read_token_corpus(path: str | Path) -> Corpus:
    """Read a corpus file into a list of token lists, one per input line.

    Invalid UTF-8 raises UnicodeDecodeError with the absolute byte offset
    of the bad byte.
    """
    return parse_token_corpus(Path(path).read_bytes().decode("utf-8"))


def write_token_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write one line per sentence, tokens joined by single spaces.

    Inverse of read_token_corpus for corpora whose tokens are non-empty and
    whitespace-free.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for sentence in corpus:
            fh.write(" ".join(sentence))
            fh.write("\n")


def build_vocabulary(corpus: Corpus) -> Counter[str]:
    """Count exact token frequencies over the whole corpus."""
    vocab: Counter[str] = Counter()
    for sentence in corpus:
        vocab.update(sentence)
    return vocab
