"""Hostile input files: every failure is an exit code with a message.

Random bytes, and text near each format, go to every file the CLI reads:
corpora, tags, suffix lists, compound inventories, gold links and config.
main must return 0, 1 or 2 and never let an exception escape as a
traceback.  Corpus files stay a few dozen bytes so that greedy TER in
evaluate stays cheap.  A last fuzzer draws whole command lines: any
subcommand, its optional flags as flags or config keys, and hostile files
for every path it takes.
"""

import contextlib
import io
import itertools
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mtprep import cli
from mtprep.cli import main
from mtprep.pipeline import Mode

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


# --- the whole CLI -----------------------------------------------------------

# int()'s digit limit; 0 (none) where sys has no get_int_max_str_digits.  A
# digit string past it is drawn only where there is a limit: a valid
# 4,000-digit --iters would never finish.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", int)()
too_long = st.just("7" * (DIGIT_LIMIT + 1)) if DIGIT_LIMIT else st.nothing()
# The file arguments each subcommand takes, besides -o and --pos-tags, and
# those of them that may be left out.
FILE_FLAGS = {
    "induce-suffixes": ["--mono"],
    "preprocess": ["-i", "--suffixes", "--compounds"],
    "evaluate": ["--hyp", "--ref"],
    "align": ["--src", "--tgt", "--gold"],
    "demo-table2": [],
}
OPTIONAL_FILES = {"--suffixes", "--compounds", "--gold"}
DIRECTORY = "<dir>"  # stands for a directory given where a file belongs
hostile_bytes = st.one_of(
    st.binary(max_size=48),
    st.text(alphabet="ab@#=\t-07 \r\n\x00\xa0\u2028\ufeff", max_size=32).map(
        str.encode
    ),
    st.sampled_from([
        b"", b"\xef\xbb\xbfa b\n", b"a\rb\rc\n", b"a\x00b\n", b"a \xff\xfeb\n",
        b"ab a\nb\n", b"x y\nz\n", b"0-0 1-1\n0-0\n", b"# margin=0\nb\t1\n",
        b"iters=2\nmargin=1\n",
        ("a" * 20_000 + " ab\n").encode(),
    ]),
    too_long.flatmap(lambda digits: st.sampled_from([
        f"0-{digits}\n", f"# margin={digits}\n", f"ab\t{digits}\n",
        f"iters={digits}\n", f"min_count={digits}\n",
    ])).map(str.encode),
    st.just(DIRECTORY),
)
# Values for optional flags and config keys: small counts, junk, names,
# and a hostile file for the flags that take a path.
values = st.one_of(
    st.integers(0, 99).map(str),
    st.text(alphabet="07-+_ a@\u0663\xa0", max_size=4),
    st.sampled_from(["tsv", "json", "@@", "on", "off"]),
    too_long,
    hostile_bytes,
)
ERROR_PREFIXES = ("error: ", "usage error: ", "warning: ")
# What a successful induce-suffixes and align --gold report on stderr.
REPORT_PREFIXES = ("induced ", "precision=")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzz_whole_cli(tmp_path_factory, data):
    work = tmp_path_factory.mktemp("cli")
    numbers = itertools.count()

    def put(content):
        """A path for content: the work directory itself, or a new file."""
        if content == DIRECTORY:
            return str(work)
        if isinstance(content, str):
            return content
        path = work / f"f{next(numbers)}"
        path.write_bytes(content)
        return str(path)

    command = data.draw(st.sampled_from(sorted(cli._OPTIONAL)), label="command")
    argv = [command]
    for flag in FILE_FLAGS[command]:
        if flag not in OPTIONAL_FILES or data.draw(st.booleans(), label=flag):
            argv += [flag, put(data.draw(hostile_bytes, label=flag))]
    if command == "preprocess":
        argv += ["--mode", data.draw(st.sampled_from([m.value for m in Mode]))]
    out = work / "out.txt"
    if command in ("induce-suffixes", "preprocess"):
        argv += ["-o", str(out)]
    config = []
    for dest in cli._OPTIONAL[command]:
        where = data.draw(st.sampled_from(["absent", "flag", "config"]), label=dest)
        if where == "absent":
            continue
        value = put(data.draw(values, label=f"{dest} value"))
        if where == "config":
            config.append(f"{dest}={value}")
        elif where == "flag" and dest == "null":  # --null takes no value
            argv.append("--null")
        elif where == "flag":
            argv.append(f"--{dest.replace('_', '-')}={value}")
    if config or data.draw(st.booleans(), label="config file"):
        config_bytes = data.draw(
            st.just("".join(f"{line}\n" for line in config).encode()) | hostile_bytes,
            label="config",
        )
        argv = ["--config", put(config_bytes), *argv]

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    allowed = ERROR_PREFIXES + (REPORT_PREFIXES if code == 0 else ())
    for line in err.getvalue().splitlines():
        assert line.startswith(allowed), line[:200]
        assert "set_int_max_str_digits" not in line
    if code:
        assert not out.exists()
