"""Command-line behavior: arguments, config merging, exit codes, file I/O."""

import importlib.util
import inspect
import io
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mtprep
from mtprep import cli
from mtprep.aligner import train_em
from mtprep.cli import load_config, main
from mtprep.compounds import (
    CompoundSuffixSet, induce_compound_suffixes, load_compound_suffixes,
    save_compound_suffixes,
)
from mtprep.corpus import (
    build_vocabulary,
    parse_token_corpus,
    read_token_corpus,
    write_lines,
    write_token_corpus,
)
from mtprep.pipeline import Mode, PipelineConfig, preprocess
from mtprep.suffixes import load_suffix_list
from mtprep.synth import build_benchmark

from oracles import preprocess_oracle, token_pieces_oracle

# int()'s digit limit, and a digit string one past it; the limit is 0 (none)
# where sys has no get_int_max_str_digits, and then such strings are valid.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", int)()
TOO_LONG = "1" * (DIGIT_LIMIT + 1)
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="no int() digit limit")


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "in.txt"
    path.write_text(
        "dara sahaa mahinyaaMnii daMtatajGYaaMkaDuuna tapaasuuna ghyaa\n"
        "sahaa divasaaMnii aushadha gheNe\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture
def suffix_file(tmp_path):
    path = tmp_path / "suf.txt"
    path.write_text("aaMnii\n", encoding="utf-8")
    return path


@pytest.fixture
def compound_file(tmp_path):
    path = tmp_path / "comp.tsv"
    path.write_text("kaDuuna\t2\ntajGYaaM\t1\n", encoding="utf-8")
    return path


# --- exit codes --------------------------------------------------------------

def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_input_file_is_a_runtime_error(tmp_path, capsys):
    code = main(["evaluate", "--hyp", str(tmp_path / "no.txt"), "--ref", str(tmp_path / "no.txt")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_mode_without_resources_is_a_usage_error(corpus_file, tmp_path, capsys):
    code = main([
        "preprocess", "--mode", "ss",
        "-i", str(corpus_file), "-o", str(tmp_path / "out.txt"),
    ])
    assert code == 2
    assert "--suffixes" in capsys.readouterr().err


# --- preprocess --------------------------------------------------------------

def test_preprocess_writes_split_corpus(corpus_file, suffix_file, compound_file, tmp_path, capsys):
    out = tmp_path / "out.txt"
    code = main([
        "preprocess", "--mode", "cs+ss",
        "--suffixes", str(suffix_file), "--compounds", str(compound_file),
        "-i", str(corpus_file), "-o", str(out),
    ])
    assert code == 0
    assert out.read_text(encoding="utf-8").splitlines()[0] == (
        "dara sahaa mahiny aaMnii daMta tajGYaaM kaDuuna tapaasuuna ghyaa"
    )
    capsys.readouterr()


def test_preprocess_baseline_is_byte_identical(corpus_file, tmp_path):
    out = tmp_path / "out.txt"
    assert main(["preprocess", "--mode", "bl", "-i", str(corpus_file), "-o", str(out)]) == 0
    assert out.read_bytes() == corpus_file.read_bytes()


@pytest.mark.parametrize("text", ["a\xa0b", "a  b", "a b\r\n"])
def test_preprocess_baseline_normalises_other_whitespace(tmp_path, text):
    # tokens split on any str.isspace() character; output joins them with
    # single spaces and ends every line with a newline
    src = tmp_path / "in.txt"
    src.write_bytes(text.encode("utf-8"))
    out = tmp_path / "out.txt"
    assert main(["preprocess", "--mode", "bl", "-i", str(src), "-o", str(out)]) == 0
    assert out.read_bytes() == b"a b\n"


def test_preprocess_marker(corpus_file, suffix_file, tmp_path):
    out = tmp_path / "out.txt"
    code = main([
        "preprocess", "--mode", "ss", "--suffixes", str(suffix_file),
        "--marker", "@@", "-i", str(corpus_file), "-o", str(out),
    ])
    assert code == 0
    assert "mahiny@@ aaMnii" in out.read_text(encoding="utf-8")


def test_preprocess_rejects_empty_marker(corpus_file, suffix_file, tmp_path, capsys):
    code = main([
        "preprocess", "--mode", "ss", "--suffixes", str(suffix_file),
        "--marker", "", "-i", str(corpus_file), "-o", str(tmp_path / "o"),
    ])
    assert code == 2
    capsys.readouterr()


def test_preprocess_rejects_marker_with_whitespace(
    corpus_file, suffix_file, tmp_path, capsys
):
    # such a marker splits the marked piece or adds a line in the output,
    # which reconstruct cannot undo
    cfg = tmp_path / "c.cfg"
    cfg.write_text("marker=@ @\n", encoding="utf-8")
    argv = [
        "preprocess", "--mode", "ss", "--suffixes", str(suffix_file),
        "-i", str(corpus_file), "-o", str(tmp_path / "o"),
    ]
    for marker in ("@ @", "@@\n", "\xa0"):
        assert main(argv + ["--marker", marker]) == 2
        assert "no whitespace" in capsys.readouterr().err
    assert main(["--config", str(cfg)] + argv) == 2
    assert "no whitespace" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_preprocess_rejects_bad_thread_count(corpus_file, tmp_path, capsys):
    # preprocess is serial; --threads is no longer a flag at all
    for count in ("0", "2"):
        code = main([
            "preprocess", "--mode", "bl", "--threads", count,
            "-i", str(corpus_file), "-o", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_evaluate_rejects_threads_flag(corpus_file, capsys):
    code = main([
        "evaluate", "--hyp", str(corpus_file), "--ref", str(corpus_file),
        "--threads", "2",
    ])
    assert code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


def test_preprocess_rejects_negative_margin(corpus_file, suffix_file, tmp_path, capsys):
    # the margin comes from the compound file; preprocess has no such flag
    for margin in ("-3", "3"):
        code = main([
            "preprocess", "--mode", "ss", "--suffixes", str(suffix_file),
            "--margin", margin, "-i", str(corpus_file), "-o", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "unrecognized arguments: --margin" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_induced_margin_carries_to_preprocess(tmp_path, capsys):
    mono = tmp_path / "mono.txt"
    mono.write_text("kaDuuna abckaDuuna\n", encoding="utf-8")
    comp = tmp_path / "comp.tsv"
    text = tmp_path / "in.txt"
    text.write_text("abckaDuuna kaDuuna\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    assert main([
        "induce-suffixes", "--mono", str(mono), "--margin", "2", "-o", str(comp),
    ]) == 0
    assert main([
        "preprocess", "--mode", "cs", "--compounds", str(comp),
        "-i", str(text), "-o", str(out),
    ]) == 0
    assert out.read_text(encoding="utf-8") == "abc kaDuuna kaDuuna\n"
    inventory = induce_compound_suffixes(
        build_vocabulary(read_token_corpus(mono)), margin=2
    )
    config = PipelineConfig(mode=Mode.CS, compound_set=inventory)
    assert read_token_corpus(out) == preprocess(read_token_corpus(text), config)
    capsys.readouterr()


@pytest.mark.parametrize(
    "body, message",
    [
        ("# margin=x\nkaDuuna\t2\n", ":1: bad margin"),
        ("# margin=-1\nkaDuuna\t2\n", ":1: bad margin"),
        ("kaDuuna\t2\n# margin=2\n", ":2: expected 'suffix<TAB>count'"),
        ("kaDuuna\t1\nkaDuuna\t7\n", ":2: duplicate member 'kaDuuna'"),
        ("kaDuuna\t \u0663\n", ":1: bad count ' \u0663'"),
    ],
)
def test_preprocess_bad_compound_file_is_a_data_error(
    corpus_file, tmp_path, capsys, body, message
):
    comp = tmp_path / "comp.tsv"
    comp.write_text(body, encoding="utf-8")
    code = main([
        "preprocess", "--mode", "cs", "--compounds", str(comp),
        "-i", str(corpus_file), "-o", str(tmp_path / "o"),
    ])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag", ["-i", "--suffixes", "--compounds", "--pos-tags"])
def test_preprocess_undecodable_file_is_named(
    flag, corpus_file, suffix_file, compound_file, tmp_path, capsys
):
    files = {
        "-i": corpus_file, "--suffixes": suffix_file,
        "--compounds": compound_file, "--pos-tags": tmp_path / "tags.txt",
    }
    files["--pos-tags"].write_text(
        "NN NN NN NN NN NN\nNN NN NN NN\n", encoding="utf-8"
    )
    bad = files[flag]
    lineno = len(bad.read_bytes().split(b"\n"))
    bad.write_bytes(bad.read_bytes() + b"\xff\n")
    argv = ["preprocess", "--mode", "cs+ss", "-o", str(tmp_path / "o")]
    for name, path in files.items():
        argv += [name, str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"at {bad}:{lineno}" in err
    assert "can't decode byte 0xff" in err


def test_undecodable_gold_and_config_files_are_named(tmp_path, capsys):
    src = tmp_path / "src.txt"
    src.write_text("a\n", encoding="utf-8")
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff")
    assert main([
        "align", "--src", str(src), "--tgt", str(src), "--gold", str(bad),
    ]) == 1
    assert f"at {bad}:1" in capsys.readouterr().err
    assert main(["--config", str(bad), "demo-table2"]) == 1
    assert f"at {bad}:1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "where", ["evaluate --ref", "preprocess -i", "--config", "induce-suffixes --mono"]
)
def test_byte_order_mark_is_a_data_error(
    where, corpus_file, suffix_file, tmp_path, capsys
):
    # the mark would become part of the first token (or config key)
    bad = tmp_path / "bom.txt"
    body = "marker=@@\n" if where == "--config" else corpus_file.read_text("utf-8")
    bad.write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
    out = tmp_path / "o"
    preprocess = [
        "preprocess", "--mode", "ss", "--suffixes", str(suffix_file), "-o", str(out),
    ]
    argv = {
        "evaluate --ref": ["evaluate", "--hyp", str(corpus_file), "--ref", str(bad)],
        "preprocess -i": preprocess + ["-i", str(bad)],
        "--config": ["--config", str(bad)] + preprocess + ["-i", str(corpus_file)],
        "induce-suffixes --mono": ["induce-suffixes", "--mono", str(bad), "-o", str(out)],
    }[where]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}:1: starts with a UTF-8 byte order mark\n"
    assert not out.exists()


def test_output_that_would_start_with_a_byte_order_mark_is_a_data_error(
    tmp_path, capsys
):
    # the mark follows a space in the input, so it reads as a token's first
    # character; bl drops the space, and the output could not be read back
    src = tmp_path / "in.txt"
    src.write_bytes(b" \xef\xbb\xbfabc de\n")
    out = tmp_path / "out.txt"
    assert main(["preprocess", "--mode", "bl", "-i", str(src), "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {out}:1: would start the file with a byte order mark\n"
    assert not out.exists()


def test_preprocess_writes_to_a_device(corpus_file):
    # the output is opened where it is, not replaced by a renamed file
    assert main(["preprocess", "--mode", "bl", "-i", str(corpus_file), "-o", os.devnull]) == 0


def test_preprocess_suffix_with_whitespace_is_a_data_error(
    corpus_file, tmp_path, capsys
):
    # U+0085 no longer ends a suffix-list line, and such an entry could
    # never match a whitespace-free token
    suffixes = tmp_path / "suf.txt"
    suffixes.write_text("nii\nii\x85aaMnii\n", encoding="utf-8")
    assert main([
        "preprocess", "--mode", "ss", "--suffixes", str(suffixes),
        "-i", str(corpus_file), "-o", str(tmp_path / "o"),
    ]) == 1
    assert f"{suffixes}:2: suffix 'ii\\x85aaMnii' contains whitespace" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "o").exists()


def test_preprocess_pos_tags_keep_proper_nouns_whole(corpus_file, suffix_file, tmp_path):
    tags = tmp_path / "tags.txt"
    tags.write_text("NN NN NNP NN NN NN\nNN NN NN NN\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    code = main([
        "preprocess", "--mode", "ss", "--suffixes", str(suffix_file),
        "--pos-tags", str(tags), "-i", str(corpus_file), "-o", str(out),
    ])
    assert code == 0
    assert out.read_text(encoding="utf-8").splitlines() == [
        "dara sahaa mahinyaaMnii daMtatajGYaaMkaDuuna tapaasuuna ghyaa",
        "sahaa divas aaMnii aushadha gheNe",
    ]


def test_preprocess_pos_tags_shape_mismatch_is_a_data_error(
    corpus_file, suffix_file, tmp_path, capsys
):
    tags = tmp_path / "tags.txt"
    tags.write_text("NN\n", encoding="utf-8")
    code = main([
        "preprocess", "--mode", "ss", "--suffixes", str(suffix_file),
        "--pos-tags", str(tags), "-i", str(corpus_file), "-o", str(tmp_path / "o"),
    ])
    assert code == 1
    assert "tag file has 1 sentences, corpus has 2" in capsys.readouterr().err


def test_preprocess_in_place_matches_a_separate_output(
    corpus_file, suffix_file, compound_file, tmp_path
):
    argv = [
        "preprocess", "--mode", "cs+ss", "--suffixes", str(suffix_file),
        "--compounds", str(compound_file), "--marker", "@@",
    ]
    before = corpus_file.read_bytes()
    separate = tmp_path / "out.txt"
    assert main([*argv, "-i", str(corpus_file), "-o", str(separate)]) == 0
    assert main([*argv, "-i", str(corpus_file), "-o", str(corpus_file)]) == 0
    assert separate.read_bytes() != before
    assert corpus_file.read_bytes() == separate.read_bytes()


def test_failed_in_place_preprocess_leaves_the_file_untouched(
    corpus_file, suffix_file, tmp_path, capsys
):
    tags = tmp_path / "tags.txt"
    tags.write_text("NN\n", encoding="utf-8")
    before = corpus_file.read_bytes()
    code = main([
        "preprocess", "--mode", "ss", "--suffixes", str(suffix_file),
        "--pos-tags", str(tags), "-i", str(corpus_file), "-o", str(corpus_file),
    ])
    assert code == 1
    assert "tag file has 1 sentences, corpus has 2" in capsys.readouterr().err
    assert corpus_file.read_bytes() == before


@pytest.fixture(scope="module")
def synthetic_inputs(tmp_path_factory):
    """A synthetic benchmark's fused source, its suffix list and the compound
    inventory induce-suffixes builds from that source, as files."""
    work = tmp_path_factory.mktemp("synthetic")
    bench = build_benchmark(60)
    src, suffixes, compounds = work / "src.txt", work / "suf.txt", work / "comp.tsv"
    write_token_corpus(bench.src_fused, src)
    write_lines(bench.suffixes, suffixes)
    assert main(["induce-suffixes", "--mono", str(src), "-o", str(compounds)]) == 0
    return src, suffixes, compounds


@pytest.mark.parametrize("marker", [None, "@@"])
@pytest.mark.parametrize("mode", list(Mode))
def test_preprocess_matches_the_per_token_oracle_on_synthetic_text(
    synthetic_inputs, mode, marker, tmp_path, capsys
):
    src, suffixes, compounds = synthetic_inputs
    out = tmp_path / "out.txt"
    argv = [
        "preprocess", "--mode", mode.value, "--suffixes", str(suffixes),
        "--compounds", str(compounds), "-i", str(src), "-o", str(out),
    ]
    assert main(argv + (["--marker", marker] if marker else [])) == 0
    assert capsys.readouterr() == ("", "")
    config = PipelineConfig(
        mode, load_suffix_list(suffixes), load_compound_suffixes(compounds), marker
    )
    corpus = read_token_corpus(src)
    expected = preprocess_oracle(
        corpus, lambda word: token_pieces_oracle(word, config), marker, None
    )
    assert read_token_corpus(out) == expected
    # every mode but bl splits some words of this text
    assert (expected == corpus) == (mode is Mode.BL)


# words over "abkD", a few over "abkD@" (so some hold the marker "@@"), the
# characters that separate tokens, and both line ends: empty lines, CRLF, a
# lone carriage return and Unicode whitespace that ends no line
_word = st.text(alphabet="abkD", min_size=1, max_size=10)
_separator = st.sampled_from(["\n", "\r\n", "\r", "\t", " ", "\xa0", "\x85", "\u2028"])
prep_text = st.lists(st.one_of(
    _word, _word, _separator, _separator, st.text(alphabet="abkD@", min_size=1, max_size=10),
), max_size=30).map("".join)


@settings(max_examples=150, deadline=None)
@given(
    text=prep_text, mode=st.sampled_from(list(Mode)), marker=st.sampled_from([None, "@@"]),
    with_tags=st.booleans(), data=st.data(),
)
def test_preprocess_file_output_is_the_oracle_corpus_written(
    text, mode, marker, with_tags, data, tmp_path_factory
):
    folder = tmp_path_factory.mktemp("prep")
    src, out, expected_file = folder / "in.txt", folder / "out.txt", folder / "expected.txt"
    suffixes, compounds = folder / "suf.txt", folder / "comp.tsv"
    src.write_bytes(text.encode("utf-8"))
    write_lines(["a", "Da", "kab", "D@"], suffixes)
    save_compound_suffixes(CompoundSuffixSet({"kaD": 1, "bk": 2, "ab": 1}, 1), compounds)
    out.write_bytes(b"untouched\n")
    argv = [
        "preprocess", "--mode", mode.value, "--suffixes", str(suffixes),
        "--compounds", str(compounds), "-i", str(src), "-o", str(out),
    ] + (["--marker", marker] if marker else [])
    corpus, tags = parse_token_corpus(text), None
    if with_tags:  # an NNP or NN tag per token
        tag_st = st.sampled_from(["NNP", "NN"])
        tags = [data.draw(st.lists(tag_st, min_size=len(s), max_size=len(s))) for s in corpus]
        write_token_corpus(tags, folder / "tags.txt")
        argv += ["--pos-tags", str(folder / "tags.txt")]
    config = PipelineConfig(
        mode, load_suffix_list(suffixes), load_compound_suffixes(compounds), marker
    )
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(argv)
    try:
        expected = preprocess_oracle(
            corpus, lambda word: token_pieces_oracle(word, config), marker, tags
        )
    except ValueError as exc:  # a marker hit: the oracle's message, no output
        assert (code, err.getvalue()) == (1, f"error: {exc}\n")
        assert out.read_bytes() == b"untouched\n"
        return
    assert (code, err.getvalue()) == (0, "")
    write_token_corpus(expected, expected_file)
    assert out.read_bytes() == expected_file.read_bytes()


# --- induce-suffixes ---------------------------------------------------------

def test_induce_writes_counts(tmp_path, capsys):
    mono = tmp_path / "mono.txt"
    mono.write_text(
        "kaDuuna daMtatajGYaaMkaDuuna\nhRdayatajGYaaMkaDuuna DaakTarakaDuuna\n",
        encoding="utf-8",
    )
    out = tmp_path / "suf.tsv"
    assert main(["induce-suffixes", "--mono", str(mono), "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "# margin=5\nkaDuuna\t3\n"
    assert "1 compound suffixes" in capsys.readouterr().err


def test_induce_min_count(tmp_path, capsys):
    mono = tmp_path / "mono.txt"
    mono.write_text("na aaaaaana\n", encoding="utf-8")
    out = tmp_path / "suf.tsv"
    assert main([
        "induce-suffixes", "--mono", str(mono), "--min-count", "2", "-o", str(out),
    ]) == 0
    assert out.read_text(encoding="utf-8") == "# margin=5\n"
    capsys.readouterr()


def test_induce_reads_the_same_types_as_the_token_corpus(tmp_path, capsys):
    # every line end and whitespace character separates tokens alike
    mono = tmp_path / "mono.txt"
    mono.write_text(
        "kaDuuna daMtatajGYaaMkaDuuna\r\nhRdayatajGYaaMkaDuuna\rDaakTarakaDuuna"
        "\x85tajGYaaM\u2028daMtatajGYaaM\xa0na\taaaaaana\t\r\n\naaaaaana kaDuuna",
        encoding="utf-8",
        newline="",
    )
    out = tmp_path / "got.tsv"
    assert main([
        "induce-suffixes", "--mono", str(mono), "--margin", "2", "-o", str(out),
    ]) == 0
    vocab = build_vocabulary(read_token_corpus(mono))
    induced = induce_compound_suffixes(vocab, margin=2)
    expected = tmp_path / "expected.tsv"
    save_compound_suffixes(induced, expected)
    assert out.read_bytes() == expected.read_bytes()
    assert len(induced) == 3
    assert capsys.readouterr().err == (
        f"induced 3 compound suffixes from {len(vocab)} vocabulary types\n"
    )


def test_induce_names_the_line_of_an_undecodable_mono_byte(tmp_path, capsys):
    mono = tmp_path / "mono.txt"
    mono.write_bytes(b"kaDuuna\r\nna aaaaaana\nab \xff\n")
    out = tmp_path / "suf.tsv"
    assert main(["induce-suffixes", "--mono", str(mono), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"at {mono}:3" in err
    assert "can't decode byte 0xff" in err
    assert not out.exists()


# --- evaluate ----------------------------------------------------------------

def test_evaluate_tsv_identity(corpus_file, capsys):
    code = main(["evaluate", "--hyp", str(corpus_file), "--ref", str(corpus_file)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "BLEU\tNIST\tTER"
    cells = lines[1].split("\t")
    assert cells[0] == "100.00"
    assert cells[2] == "0.00"


def test_evaluate_json(corpus_file, capsys):
    import json

    code = main([
        "evaluate", "--hyp", str(corpus_file), "--ref", str(corpus_file),
        "--report", "json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bleu"] == pytest.approx(1.0)
    assert payload["ter"] == 0.0


def test_evaluate_rejects_unparallel_files(corpus_file, tmp_path, capsys):
    short = tmp_path / "short.txt"
    short.write_text("one line\n", encoding="utf-8")
    code = main(["evaluate", "--hyp", str(corpus_file), "--ref", str(short)])
    assert code == 1
    capsys.readouterr()


# --- align -------------------------------------------------------------------

def test_align_prints_links_per_sentence(tmp_path, capsys):
    src = tmp_path / "src.txt"
    tgt = tmp_path / "tgt.txt"
    src.write_text("a b\na\n", encoding="utf-8")
    tgt.write_text("x y\nx\n", encoding="utf-8")
    assert main(["align", "--src", str(src), "--tgt", str(tgt)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["0-0 1-1", "0-0"]


def test_align_gold_f1_goes_to_stderr(tmp_path, capsys):
    src = tmp_path / "src.txt"
    tgt = tmp_path / "tgt.txt"
    gold = tmp_path / "gold.txt"
    src.write_text("a b\na\n", encoding="utf-8")
    tgt.write_text("x y\nx\n", encoding="utf-8")
    gold.write_text("0-0 1-1\n0-0\n", encoding="utf-8")
    assert main([
        "align", "--src", str(src), "--tgt", str(tgt), "--gold", str(gold),
    ]) == 0
    captured = capsys.readouterr()
    assert "precision=1.0000 recall=1.0000 f1=1.0000" in captured.err


def test_align_gold_link_past_sentence_end_is_a_data_error(tmp_path, capsys):
    src = tmp_path / "src.txt"
    tgt = tmp_path / "tgt.txt"
    gold = tmp_path / "gold.txt"
    src.write_text("a b\n", encoding="utf-8")
    tgt.write_text("x y\n", encoding="utf-8")
    gold.write_text("0-0 5-9\n", encoding="utf-8")
    assert main([
        "align", "--src", str(src), "--tgt", str(tgt), "--gold", str(gold),
    ]) == 1
    captured = capsys.readouterr()
    assert f"{gold}:1: link 5-9 is past the end" in captured.err
    assert captured.out == ""  # rejected before EM runs


def test_align_gold_line_count_is_checked_before_training(tmp_path, capsys):
    src = tmp_path / "src.txt"
    tgt = tmp_path / "tgt.txt"
    gold = tmp_path / "gold.txt"
    src.write_text("a b\na\n", encoding="utf-8")
    tgt.write_text("x y\nx\n", encoding="utf-8")
    gold.write_text("0-0 1-1\n", encoding="utf-8")
    assert main([
        "align", "--src", str(src), "--tgt", str(tgt), "--gold", str(gold),
    ]) == 1
    captured = capsys.readouterr()
    assert f"{gold}: 1 gold alignments for 2 sentence pairs" in captured.err
    assert captured.out == ""  # rejected before EM runs


@pytest.mark.parametrize("line", [
    "0-0 1-x", "0-0 \u0661-\u0660", "\u00b2-1",
    pytest.param("0-" + TOO_LONG, id="0-<too long>", marks=needs_digit_limit),
])
def test_align_malformed_gold_pair_is_a_data_error(line, tmp_path, capsys):
    # indices are ASCII digits; Arabic-Indic or superscript digits are not
    src = tmp_path / "src.txt"
    tgt = tmp_path / "tgt.txt"
    gold = tmp_path / "gold.txt"
    src.write_text("a b\n", encoding="utf-8")
    tgt.write_text("x y\n", encoding="utf-8")
    gold.write_text(line + "\n", encoding="utf-8")
    assert main([
        "align", "--src", str(src), "--tgt", str(tgt), "--gold", str(gold),
    ]) == 1
    captured = capsys.readouterr()
    assert f"{gold}:1: bad alignment pair" in captured.err
    assert captured.out == ""


def test_gold_errors_come_in_a_fixed_order(tmp_path):
    # a malformed pair anywhere comes first, then the line count, then the
    # first line with a link out of bounds
    src, tgt = [["a", "b"], ["c"]], [["x", "y"], ["z"]]
    gold = tmp_path / "gold.txt"
    gold.write_text("0-0 5-9\n0-x\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":2: bad alignment pair '0-x'$"):
        cli._read_gold(gold, src, tgt)
    gold.write_text("0-0 5-9\n0-0\n0-0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r": 3 gold alignments for 2 sentence pairs$"):
        cli._read_gold(gold, src, tgt)
    gold.write_text("0-0\n0-1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":2: link 0-1 is past the end of a "
                       r"1-token source or 1-token target sentence$"):
        cli._read_gold(gold, src, tgt)


def test_gold_bounds_error_names_the_smallest_bad_link(tmp_path):
    src, tgt = [["a", "b"]], [["x", "y"]]
    gold = tmp_path / "gold.txt"
    for line, named in (("5-9 3-9", "3-9"), ("3-9 5-9", "3-9"), ("0-0 3-0 1-5 1-1", "1-5")):
        gold.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf":1: link {named} is past the end"):
            cli._read_gold(gold, src, tgt)


def test_align_rejects_bad_iterations(tmp_path, capsys):
    src = tmp_path / "s.txt"
    src.write_text("a\n", encoding="utf-8")
    code = main(["align", "--src", str(src), "--tgt", str(src), "--iters", "0"])
    assert code == 2
    capsys.readouterr()


# --- demo-table2 -------------------------------------------------------------

def test_demo_subcommand_prints_rows(capsys):
    assert main(["demo-table2"]) == 0
    out = capsys.readouterr().out
    assert "source (split):" in out
    assert "dara sahaa mahiny aaMnii daMta tajGYaaM kaDuuna tapaasuuna ghyaa" in out


def test_library_warning_is_one_stderr_line(corpus_file, tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing listed\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    code = main([
        "preprocess", "--mode", "ss", "--suffixes", str(empty),
        "-i", str(corpus_file), "-o", str(out),
    ])
    assert code == 0
    assert read_token_corpus(out) == read_token_corpus(corpus_file)
    captured = capsys.readouterr()
    assert captured.err == f"warning: suffix list {empty} contains no suffixes\n"
    assert captured.out == ""


def test_warning_made_an_error_exits_1_with_a_message(corpus_file, tmp_path, capsys):
    # what `python -W error -m mtprep.cli ...` does to the same warning
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing listed\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([
            "preprocess", "--mode", "ss", "--suffixes", str(empty),
            "-i", str(corpus_file), "-o", str(out),
        ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: suffix list {empty} contains no suffixes\n"
    assert captured.out == ""
    assert not out.exists()


# --- config file -------------------------------------------------------------

def test_config_fills_unset_flags(corpus_file, suffix_file, tmp_path):
    cfg = tmp_path / "prep.cfg"
    cfg.write_text("marker=@@\n# comment\n\nmargin=5\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    code = main([
        "--config", str(cfg),
        "preprocess", "--mode", "ss", "--suffixes", str(suffix_file),
        "-i", str(corpus_file), "-o", str(out),
    ])
    assert code == 0
    assert "mahiny@@" in out.read_text(encoding="utf-8")


def test_explicit_flag_beats_config(corpus_file, suffix_file, tmp_path):
    cfg = tmp_path / "prep.cfg"
    cfg.write_text("marker=@@\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    code = main([
        "--config", str(cfg),
        "preprocess", "--mode", "ss", "--suffixes", str(suffix_file),
        "--marker", "++", "-i", str(corpus_file), "-o", str(out),
    ])
    assert code == 0
    assert "mahiny++" in out.read_text(encoding="utf-8")


def test_unknown_config_key_is_a_usage_error(corpus_file, tmp_path, capsys):
    cfg = tmp_path / "prep.cfg"
    cfg.write_text("bogus_key=1\n", encoding="utf-8")
    code = main(["--config", str(cfg), "demo-table2"])
    assert code == 2
    assert "bogus_key" in capsys.readouterr().err


def test_threads_config_key_is_unknown(corpus_file, tmp_path, capsys):
    cfg = tmp_path / "prep.cfg"
    cfg.write_text("threads=2\n", encoding="utf-8")
    code = main([
        "--config", str(cfg),
        "preprocess", "--mode", "bl", "-i", str(corpus_file), "-o", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "unknown config keys: threads" in capsys.readouterr().err


def test_unknown_config_key_with_a_line_break_stays_on_one_line(
    corpus_file, tmp_path, capsys
):
    cfg = tmp_path / "prep.cfg"
    cfg.write_bytes(b"0\r0=\n")
    code = main([
        "--config", str(cfg),
        "preprocess", "--mode", "bl", "-i", str(corpus_file), "-o", str(tmp_path / "o"),
    ])
    assert code == 2
    assert capsys.readouterr().err == "usage error: unknown config keys: '0\\r0'\n"


def test_config_value_must_be_one_of_the_flag_choices(corpus_file, tmp_path, capsys):
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("report=xml\n", encoding="utf-8")
    code = main([
        "--config", str(cfg),
        "evaluate", "--hyp", str(corpus_file), "--ref", str(corpus_file),
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert "usage error: config key report: invalid choice: 'xml'" in captured.err
    assert captured.out == ""


# (config key, value, message body); a flag and its config key share the body
_REJECTED = [
    ("margin", "-1", "must be an integer >= 0, not '-1'"),
    ("margin", "1_0", "must be an integer >= 0, not '1_0'"),
    ("margin", "\u0663", "must be an integer >= 0, not '\u0663'"),
    ("min_count", "0", "must be an integer >= 1, not '0'"),
    ("min_count", "+2", "must be an integer >= 1, not '+2'"),
    ("iters", "0", "must be an integer >= 1, not '0'"),
    ("iters", "abc", "must be an integer >= 1, not 'abc'"),
    ("iters", "\u0663", "must be an integer >= 1, not '\u0663'"),
    ("report", "xml", "invalid choice: 'xml' (choose from tsv, json)"),
    ("marker", "@ @", "must be non-empty and contain no whitespace"),
    ("marker", "", "must be non-empty and contain no whitespace"),
    ("null", "maybe", "not a boolean: 'maybe'"),
] + [
    (key, TOO_LONG, f"must be an integer >= {minimum}, not {TOO_LONG!r}")
    for key, minimum in [("margin", 0), ("min_count", 1), ("iters", 1)]
]


@pytest.mark.parametrize("key, value, body", [
    pytest.param(key, value, body, id=f"{key}=<too long>", marks=needs_digit_limit)
    if value == TOO_LONG else pytest.param(key, value, body, id=f"{key}={value}")
    for key, value, body in _REJECTED
])
def test_flag_and_config_key_reject_a_value_alike(
    key, value, body, corpus_file, tmp_path, capsys
):
    out = tmp_path / "out.txt"
    path = str(corpus_file)
    argv = {
        "margin": ["induce-suffixes", "--mono", path, "-o", str(out)],
        "min_count": ["induce-suffixes", "--mono", path, "-o", str(out)],
        "iters": ["align", "--src", path, "--tgt", path],
        "null": ["align", "--src", path, "--tgt", path],
        "report": ["evaluate", "--hyp", path, "--ref", path],
        "marker": ["preprocess", "--mode", "bl", "-i", path, "-o", str(out)],
    }[key]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key}={value}\n", encoding="utf-8")
    assert main(["--config", str(cfg)] + argv) == 2
    assert capsys.readouterr() == ("", f"usage error: config key {key}: {body}\n")
    if key != "null":  # --null takes no value
        flag = "--" + key.replace("_", "-")
        assert main(argv + [flag, value]) == 2
        assert capsys.readouterr() == ("", f"usage error: {flag}: {body}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, code, message", [
    (["induce-suffixes", "--min-count=--"], 2,
     "usage error: --min-count: must be an integer >= 1, not '--'\n"),
    (["induce-suffixes", "--margin=--"], 2,
     "usage error: --margin: must be an integer >= 0, not '--'\n"),
    (["align", "--iters=--"], 2, "usage error: --iters: must be an integer >= 1, not '--'\n"),
    (["evaluate", "--report=--"], 2,
     "usage error: --report: invalid choice: '--' (choose from tsv, json)\n"),
    (["preprocess", "--mode=--"], 2, "argument --mode: invalid choice: '--'"),
    (["align", "--gold=--"], 1, "error: [Errno 2] No such file or directory: '--'\n"),
], ids=["min-count", "margin", "iters", "report", "mode", "gold"])
def test_double_dash_given_as_a_flag_value_is_that_value(
    argv, code, message, corpus_file, tmp_path, capsys
):
    out, path = tmp_path / "out.txt", str(corpus_file)
    files = {
        "induce-suffixes": ["--mono", path, "-o", str(out)],
        "align": ["--src", path, "--tgt", path],
        "evaluate": ["--hyp", path, "--ref", path],
        "preprocess": ["-i", path, "-o", str(out)],
    }[argv[0]]
    assert main(argv + files) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_value_from_the_flag_choices_is_used(corpus_file, tmp_path, capsys):
    import json

    cfg = tmp_path / "eval.cfg"
    cfg.write_text("report=json\n", encoding="utf-8")
    code = main([
        "--config", str(cfg),
        "evaluate", "--hyp", str(corpus_file), "--ref", str(corpus_file),
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["ter"] == 0.0


def test_config_parser(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# top\nmarker = @@\niters=3\n", encoding="utf-8")
    assert load_config(cfg) == {"marker": "@@", "iters": "3"}


def test_config_rejects_a_repeated_key(corpus_file, suffix_file, tmp_path, capsys):
    cfg = tmp_path / "prep.cfg"
    cfg.write_text("marker=@@\n# later\nmarker=++\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    code = main([
        "--config", str(cfg),
        "preprocess", "--mode", "ss", "--suffixes", str(suffix_file),
        "-i", str(corpus_file), "-o", str(out),
    ])
    assert code == 2
    assert capsys.readouterr().err == f"usage error: {cfg}:3: duplicate key 'marker'\n"
    assert not out.exists()


def test_config_rejects_lines_without_equals(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("marker\n", encoding="utf-8")
    with pytest.raises(Exception):
        load_config(cfg)


def help_text(command, capsys):
    """A subcommand's --help output with its line wrapping undone."""
    assert main([command, "--help"]) == 0
    return " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command, shown", [
    ("induce-suffixes", [
        "--margin N length margin (default 5)",
        "--min-count N drop suffixes observed on fewer words (default 1)",
    ]),
    ("preprocess", []),
    ("evaluate", ["--report {tsv,json} output format (default tsv)"]),
    ("align", [
        "--iters N EM iterations (default 5)",
        "--null add a null source word absorbing unalignable targets (default False)",
    ]),
    ("demo-table2", []),
])
def test_help_shows_each_default(command, shown, capsys):
    text = help_text(command, capsys)
    for line in shown:
        assert line in text
    assert text.count("(default ") == len(shown)


def test_help_reads_its_defaults_from_the_option_table(monkeypatch, capsys):
    caster, _ = cli._OPTIONAL["align"]["iters"]
    monkeypatch.setitem(cli._OPTIONAL["align"], "iters", (caster, 9))
    assert "--iters N EM iterations (default 9)" in help_text("align", capsys)


def test_the_iters_default_is_train_ems():
    # cli may not import the aligner at start-up, so it restates the default
    _, default = cli._OPTIONAL["align"]["iters"]
    assert default == inspect.signature(train_em).parameters["iterations"].default


# --- names the benchmark's tracer wraps -------------------------------------

# The tracer reads each attribute it lists of mtprep.cli (CLI_CALLS) and of
# mtprep.metrics (METRIC_CALLS) and sets a timing wrapper in its place; it
# imports only the standard library, so its own tuples are read here.
_tracing_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).parent.parent / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_tracing_spec)
_tracing_spec.loader.exec_module(tracing)
TRACED_NAMES = tuple(attr for attr, _ in tracing.CLI_CALLS)
TRACED_METRIC_NAMES = tuple(attr for attr, _ in tracing.METRIC_CALLS)


def test_every_traced_name_resolves_on_a_fresh_import():
    probe = (
        "import mtprep.cli as cli; "
        f"print(*[n for n in {TRACED_NAMES!r} if not callable(getattr(cli, n, None))])"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_every_traced_metric_name_resolves_on_a_fresh_import():
    # Tracer.install also wraps mtprep.metrics.ter.sentence_ter by name
    pairs = [("metrics", n) for n in TRACED_METRIC_NAMES] + [("ter", "sentence_ter")]
    probe = (
        "import sys, mtprep.metrics as metrics; "
        "owners = {'metrics': metrics, 'ter': sys.modules['mtprep.metrics.ter']}; "
        f"print(*[f'{{o}}.{{n}}' for o, n in {pairs!r} "
        "if not callable(getattr(owners[o], n, None))])"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert TRACED_METRIC_NAMES and proc.stdout.split() == []


def test_commands_call_the_wrapper_set_on_the_module(corpus_file, monkeypatch, capsys):
    calls = []
    for name in ("train_em", "evaluate"):
        def counting(*args, _name=name, _inner=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _inner(*args, **kwargs)
        monkeypatch.setattr(cli, name, counting)
    assert main(["align", "--src", str(corpus_file), "--tgt", str(corpus_file)]) == 0
    assert main(["evaluate", "--hyp", str(corpus_file), "--ref", str(corpus_file)]) == 0
    assert calls == ["train_em", "evaluate"]
    capsys.readouterr()


def test_align_calls_the_aligner_wrappers_set_on_the_module(
    corpus_file, tmp_path, monkeypatch, capsys
):
    names = (
        "align_corpus", "format_alignment", "parse_alignment", "corpus_alignment_f1",
    )
    calls = []
    for name in names:
        def counting(*args, _name=name, _inner=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _inner(*args, **kwargs)
        monkeypatch.setattr(cli, name, counting)
    gold = tmp_path / "gold.txt"
    gold.write_text("0-0\n0-0\n", encoding="utf-8")
    assert main([
        "align", "--src", str(corpus_file), "--tgt", str(corpus_file),
        "--gold", str(gold),
    ]) == 0
    assert set(calls) == set(names)
    assert calls.count("parse_alignment") == 2
    assert calls.count("format_alignment") == 2
    capsys.readouterr()


def test_the_cli_resolves_only_the_package_exports(monkeypatch):
    monkeypatch.delitem(vars(cli), "viterbi_align", raising=False)
    assert cli.viterbi_align is mtprep.viterbi_align
    assert "viterbi_align" in vars(cli)  # kept: later reads skip __getattr__
    with pytest.raises(AttributeError, match="'mtprep.cli' has no attribute 'no_such"):
        cli.no_such_name
    with pytest.raises(AttributeError, match="mtprep.cli"):
        cli.TSV_HEADER  # the package does not export it; evaluate imports it itself


# --- console entry point -----------------------------------------------------

def test_installed_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mtprep.cli", "demo-table2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "one-to-one links (split):" in proc.stdout


# --- hash-seed independence --------------------------------------------------

def run_chain(work, hash_seed):
    """induce-suffixes -> preprocess --mode cs+ss -> align --null -> evaluate on
    a small synthetic benchmark, each a fresh interpreter with the given
    PYTHONHASHSEED; returns every output file and each command's output."""
    bench = build_benchmark(60)
    work.mkdir()
    files = {name: work / f"{name}.txt" for name in ("src", "tgt", "gold", "suffixes")}
    write_token_corpus(bench.src_fused, files["src"])
    write_token_corpus(bench.tgt, files["tgt"])
    write_lines((" ".join(f"{i}-{j}" for i, j in sorted(links))
                 for links in bench.gold_split), files["gold"])
    write_lines(bench.suffixes, files["suffixes"])
    compounds, split = work / "compounds.tsv", work / "split.txt"
    commands = [
        ["induce-suffixes", "--mono", files["src"], "-o", compounds],
        ["preprocess", "--mode", "cs+ss", "--suffixes", files["suffixes"],
         "--compounds", compounds, "-i", files["src"], "-o", split],
        ["align", "--null", "--src", split, "--tgt", files["tgt"],
         "--gold", files["gold"]],
        ["evaluate", "--report", "json", "--hyp", files["src"], "--ref", split],
    ]
    outputs = []
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "mtprep.cli", *map(str, argv)],
            capture_output=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        outputs.append((proc.stdout, proc.stderr))
    return outputs, compounds.read_bytes(), split.read_bytes()


def test_chain_output_does_not_depend_on_the_hash_seed(tmp_path):
    first, second = (run_chain(tmp_path / seed, seed) for seed in ("1", "2"))
    assert first == second
    # the chain did work: an inventory, split tokens, scored links, scores
    outputs, compounds, split = first
    assert compounds.count(b"\n") > 1 and split != (tmp_path / "1/src.txt").read_bytes()
    assert b"f1=" in outputs[2][1] and b'"ter"' in outputs[3][0]
