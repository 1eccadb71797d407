"""Hostile input files: every failure is an exit code with a message.

Random bytes go to the files the CLI parses itself (compound inventory,
gold links, config).  main must return 0, 1 or 2 and never let an
exception escape as a traceback.
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
