"""Command-line behavior: arguments, config merging, exit codes, file I/O."""

import subprocess
import sys

import pytest

from mtprep.cli import load_config, main
from mtprep.compounds import induce_compound_suffixes
from mtprep.corpus import build_vocabulary, read_token_corpus
from mtprep.pipeline import Mode, PipelineConfig, preprocess


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


@pytest.mark.parametrize("line", ["0-0 1-x", "0-0 \u0661-\u0660", "\u00b2-1"])
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


def test_config_rejects_lines_without_equals(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("marker\n", encoding="utf-8")
    with pytest.raises(Exception):
        load_config(cfg)


# --- console entry point -----------------------------------------------------

def test_installed_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mtprep.cli", "demo-table2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "one-to-one links (split):" in proc.stdout
