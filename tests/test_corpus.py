"""Corpus file round-trips and vocabulary counting."""

import re

import pytest
from hypothesis import given, strategies as st

from mtprep.cli import _read_gold, load_config
from mtprep.compounds import load_compound_suffixes
from mtprep.corpus import (
    build_vocabulary,
    is_token,
    parse_token_corpus,
    read_lines,
    read_token_corpus,
    write_lines,
    write_token_corpus,
)
from mtprep.suffixes import load_suffix_list

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


def test_decode_error_names_file_line_and_offset(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"ok\nab\xff\n")
    with pytest.raises(UnicodeDecodeError) as info:
        read_lines(path)
    assert "position 5" in str(info.value)
    assert f"{path}:2" in str(info.value)


# --- the line format -----------------------------------------------------------

def test_read_lines_ends_lines_at_line_feed_only(tmp_path):
    path = tmp_path / "l.txt"
    path.write_bytes("a\x85b\u2028c\r\nd\re\x0cf\n\ng".encode("utf-8"))
    assert read_lines(path) == ["a\x85b\u2028c", "d\re\x0cf", "", "g"]


def test_read_lines_empty_file(tmp_path):
    path = tmp_path / "l.txt"
    path.write_bytes(b"")
    assert read_lines(path) == []


def test_write_lines_ends_every_line_with_line_feed(tmp_path):
    path = tmp_path / "l.txt"
    write_lines(["a", "", "b c"], path)
    assert path.read_bytes() == b"a\n\nb c\n"
    assert read_lines(path) == ["a", "", "b c"]


def test_is_token():
    assert is_token("ab")
    for text in ("", " ", "a b", "a\xa0b", "@@\n", "a\x85b", "\u2028"):
        assert not is_token(text)


GOLD_SRC = [["a", "b"], [], ["c"]]
GOLD_TGT = [["x", "y"], ["z"], ["w"]]

# Every line-based input format with a reader: (reader, LF text).
FORMATS = {
    "corpus": (read_token_corpus, "a b\n\nc\td\n"),
    "suffix list": (load_suffix_list, "# top\n\naaMnii\n ii \n"),
    "compounds": (load_compound_suffixes, "# margin=3\nkaDuuna\t3\nna\t7\n"),
    "config": (load_config, "marker = @@\n# c\n\niters=3\n"),
    "gold": (lambda p: _read_gold(p, GOLD_SRC, GOLD_TGT), "0-0 1-1\n\n0-0\n"),
}


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_crlf_file_loads_like_lf_file(name, tmp_path):
    reader, text = FORMATS[name]
    lf = tmp_path / "lf"
    crlf = tmp_path / "crlf"
    lf.write_bytes(text.encode("utf-8"))
    crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    assert reader(lf) == reader(crlf)


@pytest.mark.parametrize("sep", ["\x85", "\u2028", "\x0c", "\x1e"])
def test_other_separators_stay_inside_the_line(sep, tmp_path):
    path = tmp_path / "f"
    path.write_text(f"ii{sep}aaMnii\n", encoding="utf-8")
    assert read_token_corpus(path) == [["ii", "aaMnii"]]
    where = re.escape(f"{path}:1:")
    with pytest.raises(ValueError, match=f"{where} suffix .* contains whitespace"):
        load_suffix_list(path)
    path.write_text(f"ii{sep}aaMnii\t1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"{where} member .* contains whitespace"):
        load_compound_suffixes(path)


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
