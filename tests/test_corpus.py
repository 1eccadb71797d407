"""Corpus file round-trips and vocabulary counting."""

import io
import os
import re
import sys
from contextlib import redirect_stderr

import pytest
from hypothesis import assume, given, strategies as st

from mtprep import synth
from mtprep.aligner import TranslationTable, align_corpus, train_em
from mtprep.cli import _read_gold, load_config, main
from mtprep.compounds import (
    CompoundSuffixSet,
    induce_compound_suffixes,
    load_compound_suffixes,
    save_compound_suffixes,
    split_compound,
)
from mtprep.corpus import (
    build_vocabulary,
    is_token,
    parse_digits,
    parse_token_corpus,
    read_lines,
    read_reversed_types,
    read_token_corpus,
    write_lines,
    write_token_corpus,
)
from mtprep.metrics import ngram_statistics, ter
from mtprep.pipeline import PipelineConfig, preprocess, reconstruct
from mtprep.suffixes import SuffixList, load_suffix_list

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


def test_read_lines_rejects_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbfa b\n")
    with pytest.raises(ValueError) as info:
        read_lines(path)
    assert str(info.value) == f"{path}:1: starts with a UTF-8 byte order mark"


@pytest.mark.parametrize("path", [0, True])
def test_read_lines_refuses_a_file_descriptor(path):
    # open() would take it for a descriptor, and read and close it
    with pytest.raises(TypeError, match=f"not {type(path).__name__}$"):
        read_lines(path)


def test_a_byte_order_mark_after_the_start_stays_in_its_token(tmp_path):
    path = tmp_path / "l.txt"
    path.write_bytes("a\n\ufeffb\n".encode("utf-8"))
    assert read_token_corpus(path) == [["a"], ["\ufeffb"]]


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


# lines as write_lines takes them (no line feed, no final carriage return),
# from any character but the line feed, lone surrogates (category Cs) among
# them, with U+FEFF and a surrogate drawn often
written_line = st.text(
    st.characters(blacklist_categories=(), blacklist_characters="\n")
    | st.sampled_from("\ufeff\ud800\r"),
    max_size=6,
).filter(lambda line: not line.endswith("\r"))


@given(lines=st.lists(written_line, max_size=5))
def test_a_written_file_reads_back_or_is_refused_untouched(lines, tmp_path_factory):
    path = tmp_path_factory.mktemp("wl") / "l.txt"
    old = b"old \xff contents\n"
    path.write_bytes(old)
    starts_with_mark = bool(lines) and lines[0].startswith("\ufeff")
    has_surrogate = any("\ud800" <= char <= "\udfff" for char in "".join(lines))
    unreadable = starts_with_mark or has_surrogate
    try:
        write_lines(lines, path)
    except ValueError:
        assert unreadable
        assert path.read_bytes() == old
    else:
        assert not unreadable
        assert read_lines(path) == lines


def test_lines_that_raise_midway_leave_the_target_untouched(tmp_path):
    path = tmp_path / "l.txt"
    path.write_bytes(b"old\n")

    def lines():
        yield "a"
        yield "b"
        raise RuntimeError("midway")

    with pytest.raises(RuntimeError, match="midway"):
        write_lines(lines(), path)
    assert path.read_bytes() == b"old\n"


@pytest.mark.parametrize(
    "write",
    [lambda fd: write_lines(["a"], fd), lambda fd: write_token_corpus([["a"]], fd)],
    ids=["write_lines", "write_token_corpus"],
)
def test_writers_refuse_a_file_descriptor(write):
    # open() would take it for a descriptor, write into it and close it
    r, w = os.pipe()
    try:
        with pytest.raises(TypeError, match="not int$"):
            write(w)
        os.fstat(w)  # still the caller's, and open
    finally:
        os.close(r)
        os.close(w)


def test_is_token():
    assert is_token("ab")
    for text in ("", " ", "a b", "a\xa0b", "@@\n", "a\x85b", "\u2028"):
        assert not is_token(text)


# int()'s digit limit; 0 (none) where sys has no get_int_max_str_digits
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", int)()
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="no int() digit limit")


@pytest.mark.parametrize("text, value", [
    ("0", 0),
    ("007", 7),
    pytest.param(
        "9" * DIGIT_LIMIT, 10**DIGIT_LIMIT - 1, id="at-limit", marks=needs_digit_limit
    ),
    ("", None),
    ("-1", None),
    ("+2", None),
    ("1_0", None),
    (" 3", None),
    ("3 ", None),
    ("\u0663", None),  # Arabic-Indic three
    ("\u00b3", None),  # superscript three
    pytest.param(
        "9" * (DIGIT_LIMIT + 1), None, id="past-limit", marks=needs_digit_limit
    ),
])
def test_parse_digits(text, value):
    assert parse_digits(text) == value


class Unread:
    """An input that fails the test if it is iterated or measured."""

    def __iter__(self):
        pytest.fail("iterated")

    def __len__(self):
        pytest.fail("measured")


def _never_built(*args):
    pytest.fail("a benchmark was built")


# Every integer argument of the library: (call with the value, name, minimum).
# Each call's other inputs fail the test if read, so a refusal comes first.
INT_ARGUMENTS = {
    "CompoundSuffixSet-margin": (lambda v: CompoundSuffixSet({}, v), "margin", 0),
    "induce_compound_suffixes-margin": (
        lambda v: induce_compound_suffixes(Unread(), margin=v), "margin", 0
    ),
    "split_compound-margin": (
        lambda v: split_compound(Unread(), CompoundSuffixSet(), v), "margin", 0
    ),
    "induce_compound_suffixes-min_count": (
        lambda v: induce_compound_suffixes(Unread(), min_count=v), "min_count", 1
    ),
    "train_em-iterations": (
        lambda v: train_em(Unread(), Unread(), iterations=v), "iterations", 1
    ),
    "build_benchmark-sentences": (
        lambda v: synth.build_benchmark(sentences=v), "sentences", 1
    ),
}


@pytest.mark.parametrize("value", [True, 2.5, "3", "below"])
@pytest.mark.parametrize("argument", sorted(INT_ARGUMENTS))
def test_integer_arguments_are_exactly_ints_at_their_minimum(
    argument, value, monkeypatch
):
    monkeypatch.setattr(synth, "_build_once", _never_built)
    call, name, minimum = INT_ARGUMENTS[argument]
    if value == "below":
        with pytest.raises(ValueError, match=f"^{name} must be >= {minimum}$"):
            call(minimum - 1)
    else:
        message = re.escape(f"{name} must be an int, not {value!r}")
        with pytest.raises(TypeError, match=f"^{message}$"):
            call(value)


def ss_config(tags=None):
    return PipelineConfig("ss", suffix_list=SuffixList(["c"]), nnp_tags=tags)


# Every corpus-taking layer, with one sentence given as a str: (call, the
# side and number its TypeError names).  A str would be read as its characters.
STR_SENTENCES = {
    "ngram_statistics": (
        lambda: ngram_statistics([["a"], "a b"], [["a"], ["a", "c"]]), "hypothesis", 2
    ),
    "ter": (lambda: ter([["a"], ["a", "b"]], [["a"], "a c"]), "reference", 2),
    "train_em": (lambda: train_em([["ab"]], ["xy"]), "target", 1),
    "align_corpus": (lambda: align_corpus(["ab"], [["x"]], TranslationTable({})), "source", 1),
    "preprocess": (lambda: preprocess([["c"], "ab c"], ss_config()), "corpus", 2),
    "preprocess-tags": (lambda: preprocess([["ab"]], ss_config(["NN"])), "tag", 1),
    "reconstruct": (lambda: reconstruct([["a@@", "b"], "ab@@ c"], "@@"), "corpus", 2),
    "write_token_corpus": (lambda: write_token_corpus(["abc"], os.devnull), "corpus", 1),
    "build_vocabulary": (lambda: build_vocabulary([["a"], [], "ab"]), "corpus", 3),
}


@pytest.mark.parametrize("layer", sorted(STR_SENTENCES))
def test_a_sentence_that_is_a_str_is_refused_by_side_and_number(layer):
    call, side, number = STR_SENTENCES[layer]
    with pytest.raises(TypeError, match=f"^{side} sentence {number} is a str, not a list of t"):
        call()


def test_the_corpus_layers_read_a_generator_corpus_once(tmp_path):
    # each sentence is checked as it is read, so a one-shot corpus still works
    corpus = [["ab@@", "c"], [], ["ab"]]
    path = tmp_path / "out"
    write_token_corpus(iter(corpus), path)
    assert read_token_corpus(path) == corpus
    assert build_vocabulary(iter(corpus)) == {"ab@@": 1, "c": 1, "ab": 1}
    assert reconstruct(iter(corpus), "@@") == [["abc"], [], ["ab"]]
    # a refused corpus leaves no file behind
    with pytest.raises(TypeError, match="^corpus sentence 2 is a str"):
        write_token_corpus(iter([["a"], "b c"]), tmp_path / "refused")
    assert not (tmp_path / "refused").exists()


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


# the writer refuses a file that starts with U+FEFF (tested below), so the
# first token of the first line must not start with it
@given(body=corpus.filter(lambda b: not (b and b[0] and b[0][0][0] == "\ufeff")))
def test_write_read_round_trip_property(body, tmp_path_factory):
    path = tmp_path_factory.mktemp("rt") / "c.txt"
    write_token_corpus(body, path)
    assert read_token_corpus(path) == body


def test_a_written_first_token_starting_with_a_byte_order_mark_is_rejected(tmp_path):
    # read_token_corpus would refuse the file, so the writer refuses to make it
    path = tmp_path / "c.txt"
    with pytest.raises(ValueError) as info:
        write_token_corpus([["\ufeffa"]], path)
    assert str(info.value) == f"{path}:1: would start the file with a byte order mark"
    assert not path.exists()


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


# line ends, other str.isspace() characters, two characters that are not
# whitespace (U+200B, U+FEFF), and letters of two scripts
mono_text = st.lists(st.sampled_from([
    "\n", "\r\n", "\r", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
    "\x85", "\xa0", " ", "\u2028", "\u3000", "\u200b", "\ufeff",
    "a", "b", "\u0915", "\u093e",
])).map("".join)


@given(text=mono_text)
def test_read_reversed_types_is_the_reversed_corpus_vocabulary(text, tmp_path_factory):
    assume(not text.startswith("\ufeff"))  # both readers refuse the mark
    path = tmp_path_factory.mktemp("types") / "mono.txt"
    path.write_bytes(text.encode("utf-8"))
    vocab = build_vocabulary(read_token_corpus(path))
    assert read_reversed_types(path) == {word[::-1] for word in vocab}


@given(text=mono_text, margin=st.integers(min_value=0, max_value=3))
def test_induce_command_matches_induction_on_the_corpus_vocabulary(
    text, margin, tmp_path_factory
):
    assume(not text.startswith("\ufeff"))
    folder = tmp_path_factory.mktemp("induce")
    mono, got, expected = folder / "mono.txt", folder / "got.tsv", folder / "expected.tsv"
    mono.write_bytes(text.encode("utf-8"))
    err = io.StringIO()
    with redirect_stderr(err):
        status = main([
            "induce-suffixes", "--mono", str(mono), "--margin", str(margin), "-o", str(got),
        ])
    assert status == 0
    vocab = build_vocabulary(read_token_corpus(mono))
    induced = induce_compound_suffixes(vocab, margin=margin)
    save_compound_suffixes(induced, expected)
    assert got.read_bytes() == expected.read_bytes()
    assert err.getvalue() == (
        f"induced {len(induced)} compound suffixes from {len(vocab)} vocabulary types\n"
    )
