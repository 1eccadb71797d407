"""Bundled demo corpus and the before/after alignment printout."""

import io
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from mtprep.demo import load_demo_fixtures, one_to_one_links, run_demo

EXPECTED_SPLIT_ROW = (
    "dara sahaa mahiny aaMnii daMta tajGYaaM kaDuuna tapaasuuna ghyaa"
)


def test_fixtures_load_and_are_parallel():
    suffixes, compounds, src, tgt = load_demo_fixtures()
    assert len(suffixes) > 0
    assert len(compounds) > 0
    assert len(src) == len(tgt) > 0


def test_demo_output_shape():
    buf = io.StringIO()
    with redirect_stdout(buf):
        run_demo()
    lines = buf.getvalue().splitlines()
    assert lines[0] == "source (fused):"
    assert lines[2] == "source (split):"
    assert lines[3] == EXPECTED_SPLIT_ROW
    assert lines[4] == "target:"
    assert lines[6].startswith("one-to-one links (fused): ")
    assert lines[7].startswith("one-to-one links (split): ")


def test_splitting_raises_one_to_one_links():
    buf = io.StringIO()
    with redirect_stdout(buf):
        run_demo()
    lines = buf.getvalue().splitlines()
    fused = int(lines[6].split(":")[1].split()[0])
    split = int(lines[7].split(":")[1].split()[0])
    assert split > fused
    # after splitting, every target word of the showcase sentence gets
    # its own source token
    n_targets = len(lines[5].split())
    assert split == n_targets


def test_demo_is_fast():
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()):
        run_demo()
    assert time.perf_counter() - start < 1.0


def test_one_to_one_counting():
    # source 0 links twice, sources 1 and 2 once each
    links = {(0, 0), (0, 1), (1, 2), (2, 3)}
    assert one_to_one_links(links) == 2


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in 3.11")
def test_every_data_file_is_package_data():
    # a file no glob matches is left out of an installed package, and the
    # installed demo-table2 then cannot find its fixtures
    import tomllib

    root = Path(__file__).resolve().parent.parent
    pyproject = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    globs = pyproject["tool"]["setuptools"]["package-data"]["mtprep"]
    package = root / "src" / "mtprep"
    files = [
        path.relative_to(package)
        for path in (package / "data").rglob("*")
        if path.is_file()
    ]
    assert files
    assert [f for f in files if not any(f.match(g) for g in globs)] == []
