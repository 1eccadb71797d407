"""The package export lists name only what exists, and importing the package
or the CLI loads only what is used."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mtprep
import mtprep.metrics

SRC = str(Path(mtprep.__file__).resolve().parent.parent)


def test_every_exported_name_resolves():
    for module in (mtprep, mtprep.metrics):
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)
        assert set(module.__all__) <= set(namespace)
        # removed: only its own tests called it
        assert "sentence_bleu" not in namespace
        assert not hasattr(module, "sentence_bleu")


def test_unknown_name_is_an_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="mtprep"):
        mtprep.no_such_name


def test_each_exported_name_is_one_object():
    for name in mtprep.__all__:
        assert getattr(mtprep, name) is getattr(mtprep, name)
        assert name in vars(mtprep)  # cached: later lookups skip __getattr__


def fresh(code):
    """What `code` prints, split into words, in a fresh interpreter.  -S
    keeps site hooks from loading modules of their own."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def loaded_after(statement):
    return fresh(
        f"import sys; before = set(sys.modules); {statement}; "
        "print(*set(sys.modules) - before)"
    )


# Modules no command runs: dataclasses alone pulls in inspect, ast, dis and
# tokenize; typing and pathlib would be loaded for annotations alone.
UNUSED = {"dataclasses", "inspect", "typing", "pathlib"}


def test_dir_lists_every_exported_name_before_any_is_loaded():
    assert set(mtprep.__all__) <= fresh("import mtprep; print(*dir(mtprep))")


def test_importing_the_cli_loads_only_what_preprocess_runs():
    loaded = loaded_after("import mtprep.cli")
    assert {m for m in loaded if m.partition(".")[0] == "mtprep"} == {
        "mtprep", "mtprep.cli", "mtprep.corpus", "mtprep.compounds",
        "mtprep.suffixes", "mtprep.markers", "mtprep.pipeline",
    }
    assert not loaded & {"json", "random", *UNUSED}


@pytest.mark.parametrize("module", ["mtprep.metrics", "mtprep.aligner"])
def test_importing_the_metrics_or_the_aligner_loads_no_unused_module(module):
    assert not loaded_after(f"import {module}") & {"json", "random", *UNUSED}


def test_the_prep_commands_load_no_dataclasses_inspect_typing_or_pathlib(tmp_path):
    mono, suffixes, corpus = (tmp_path / name for name in ("mono", "suffixes", "corpus"))
    mono.write_text("sarakaara kaDuuna sarakaarakaDuuna\n", encoding="utf-8")
    suffixes.write_text("uuna\n", encoding="utf-8")
    corpus.write_text("sarakaarakaDuuna kaDuuna\n", encoding="utf-8")
    compounds, out = tmp_path / "compounds.tsv", tmp_path / "out"
    runs = [
        ["induce-suffixes", "--mono", str(mono), "-o", str(compounds)],
        ["preprocess", "--mode", "cs+ss", "--marker", "@@", "--suffixes", str(suffixes),
         "--compounds", str(compounds), "-i", str(corpus), "-o", str(out)],
    ]
    printed = fresh(
        "import sys, mtprep.cli; "
        f"codes = [mtprep.cli.main(argv) for argv in {runs!r}]; "
        f"print(*codes, *{UNUSED!r} & set(sys.modules))"
    )
    assert printed == {"0"}
    assert out.read_text(encoding="utf-8") == "sarakaara@@ kaD@@ uuna kaD@@ uuna\n"


def test_evaluate_and_align_load_no_dataclasses_inspect_typing_or_pathlib(tmp_path):
    hyp, ref = tmp_path / "hyp", tmp_path / "ref"
    hyp.write_text("a b c\n", encoding="utf-8")
    ref.write_text("a c b\n", encoding="utf-8")
    evaluate = ["evaluate", "--hyp", str(hyp), "--ref", str(ref), "--report"]
    align = ["align", "--src", str(hyp), "--tgt", str(ref)]
    watched = UNUSED | {"json"}
    for argv, also in [(evaluate + ["tsv"], set()), (evaluate + ["json"], {"json"}),
                       (align, set())]:
        printed = fresh(
            "import contextlib, io, sys, mtprep.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = mtprep.cli.main({argv!r})\n"
            f"print(code, *{watched!r} & set(sys.modules))"
        )
        assert printed == {"0"} | also, argv


def test_importing_the_package_loads_no_submodule():
    loaded = loaded_after("import mtprep")
    assert {m for m in loaded if m.startswith("mtprep")} == {"mtprep"}


def test_each_submodule_with_exports_resolves_after_importing_the_package():
    modules = ("aligner", "compounds", "corpus", "markers", "metrics", "pipeline",
               "suffixes", "synth")
    code = f"import mtprep; print(*[getattr(mtprep, m).__name__ for m in {modules!r}])"
    assert fresh(code) == {f"mtprep.{m}" for m in modules}
