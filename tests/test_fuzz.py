"""Hostile input files: every failure is an exit code with a message.

Random bytes, and text near each format, go to every file the CLI reads:
corpora, tags, suffix lists, compound inventories, gold links and config.
main must return 0, 1 or 2 and never let an exception escape as a
traceback.  Corpus files stay a few dozen bytes so that greedy TER in
evaluate stays cheap.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mtprep.cli import main

# Raw bytes, plus text near each format so parsing gets past the first line.
config_lines = st.lists(
    st.tuples(
        st.sampled_from(["margin", "marker", "pos_tags", "iters", "bogus"]),
        st.text(alphabet="07-ab \xa0", max_size=6),
    ),
    max_size=4,
)
file_bytes = st.one_of(
    st.binary(max_size=64),
    st.text(alphabet="# margin=07\t\n\r\xa0-ab", max_size=48).map(str.encode),
    config_lines.map(lambda kv: "".join(f"{k}={v}\n" for k, v in kv).encode()),
)
# Corpus, tag and suffix-list text: tokens, the marker, tags, and the
# separators that do and do not end a line.
corpus_bytes = st.one_of(
    st.binary(max_size=48),
    st.text(alphabet="abiNP@ \t\n\r\xa0\x85\u2028", max_size=32).map(str.encode),
)
fuzz = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture
def files(tmp_path):
    (tmp_path / "in.txt").write_text("abckaDuuna kaDuuna\na b\n", encoding="utf-8")
    (tmp_path / "tgt.txt").write_text("x y\nx\n", encoding="utf-8")
    (tmp_path / "comp.tsv").write_text("# margin=2\nkaDuuna\t1\n", encoding="utf-8")
    (tmp_path / "suf.txt").write_text("a\nii\n", encoding="utf-8")
    (tmp_path / "tags.txt").write_text("NNP NN\nNN NN\n", encoding="utf-8")
    return tmp_path


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@fuzz
@given(data=file_bytes)
def test_fuzz_compounds_file(files, data):
    (files / "fuzz").write_bytes(data)
    run([
        "preprocess", "--mode", "cs", "--compounds", str(files / "fuzz"),
        "-i", str(files / "in.txt"), "-o", str(files / "out.txt"),
    ])


@fuzz
@given(data=file_bytes)
def test_fuzz_gold_file(files, data):
    (files / "fuzz").write_bytes(data)
    run([
        "align", "--src", str(files / "in.txt"), "--tgt", str(files / "tgt.txt"),
        "--iters", "1", "--gold", str(files / "fuzz"),
    ])


@fuzz
@given(data=file_bytes)
def test_fuzz_config_file(files, data):
    (files / "fuzz").write_bytes(data)
    run([
        "--config", str(files / "fuzz"),
        "preprocess", "--mode", "cs", "--compounds", str(files / "comp.tsv"),
        "-i", str(files / "in.txt"), "-o", str(files / "out.txt"),
    ])


def with_fuzz(files, defaults, flag):
    """The flag/path argv pairs of defaults, with flag reading the fuzz file."""
    paths = {**defaults, flag: "fuzz"}
    return [arg for name, path in paths.items() for arg in (name, str(files / path))]


@fuzz
@given(data=corpus_bytes, flag=st.sampled_from(["-i", "--suffixes", "--pos-tags"]))
@pytest.mark.filterwarnings("ignore:suffix list .* contains no suffixes")
def test_fuzz_preprocess_inputs(files, data, flag):
    (files / "fuzz").write_bytes(data)
    defaults = {
        "-i": "in.txt", "--suffixes": "suf.txt",
        "--compounds": "comp.tsv", "--pos-tags": "tags.txt",
    }
    run([
        "preprocess", "--mode", "cs+ss", "--marker", "@@",
        "-o", str(files / "out.txt"), *with_fuzz(files, defaults, flag),
    ])


@fuzz
@given(data=corpus_bytes, flag=st.sampled_from(["--hyp", "--ref"]))
def test_fuzz_evaluate_inputs(files, data, flag):
    (files / "fuzz").write_bytes(data)
    defaults = {"--hyp": "in.txt", "--ref": "tgt.txt"}
    run(["evaluate", *with_fuzz(files, defaults, flag)])


@fuzz
@given(data=corpus_bytes, flag=st.sampled_from(["--src", "--tgt"]))
def test_fuzz_align_inputs(files, data, flag):
    (files / "fuzz").write_bytes(data)
    defaults = {"--src": "in.txt", "--tgt": "tgt.txt"}
    run(["align", "--iters", "1", *with_fuzz(files, defaults, flag)])
