"""Corpus file round-trips and vocabulary counting."""

import pytest
from hypothesis import given, strategies as st

from mtprep.corpus import (
    build_vocabulary,
    parse_token_corpus,
    read_token_corpus,
    write_token_corpus,
)

token = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc")),
    min_size=1,
    max_size=8,
)
sentence = st.lists(token, max_size=6)
corpus = st.lists(sentence, max_size=8)


def test_parse_basic():
    assert parse_token_corpus("a b\nc\n") == [["a", "b"], ["c"]]


def test_parse_empty_text_is_empty_corpus():
    assert parse_token_corpus("") == []


def test_parse_keeps_interior_blank_lines():
    # blank lines are empty sentences, needed to stay line-parallel
    assert parse_token_corpus("a\n\nb\n") == [["a"], [], ["b"]]


def test_parse_no_trailing_newline():
    assert parse_token_corpus("a b") == [["a", "b"]]


def test_parse_collapses_whitespace_runs():
    assert parse_token_corpus("a\t b   c\n") == [["a", "b", "c"]]


def test_read_write_round_trip(tmp_path):
    body = [["dara", "sahaa"], [], ["ghyaa"]]
    path = tmp_path / "corpus.txt"
    write_token_corpus(body, path)
    assert read_token_corpus(path) == body


def test_write_ends_with_newline(tmp_path):
    path = tmp_path / "c.txt"
    write_token_corpus([["a"]], path)
    assert path.read_bytes() == b"a\n"


def test_read_rejects_invalid_utf8(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"ok\n\xff\n")
    with pytest.raises(UnicodeDecodeError):
        read_token_corpus(path)


def test_vocabulary_counts_tokens():
    vocab = build_vocabulary([["a", "b", "a"], ["b"]])
    assert vocab == {"a": 2, "b": 2}


def test_vocabulary_of_empty_corpus():
    assert build_vocabulary([]) == {}


@given(body=corpus)
def test_write_read_round_trip_property(body, tmp_path_factory):
    path = tmp_path_factory.mktemp("rt") / "c.txt"
    write_token_corpus(body, path)
    assert read_token_corpus(path) == body


@given(body=corpus)
def test_canonical_text_round_trips_byte_for_byte(body, tmp_path_factory):
    # canonical: tokens joined by single ASCII spaces, every line ending in
    # a newline; other whitespace is normalised (see test_cli.py)
    text = "".join(" ".join(s) + "\n" for s in body)
    path = tmp_path_factory.mktemp("ws") / "c.txt"
    write_token_corpus(parse_token_corpus(text), path)
    assert path.read_bytes() == text.encode("utf-8")


@given(corpus)
def test_vocabulary_total_is_token_count(body):
    vocab = build_vocabulary(body)
    assert sum(vocab.values()) == sum(len(s) for s in body)
