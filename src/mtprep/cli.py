"""Command-line front end.

Subcommands: induce-suffixes, preprocess, evaluate, align, demo-table2.
Optional flags can take their defaults from a shared key=value config file
(--config); explicit flags always win.  Exit codes: 0 success, 1 I/O or
data errors, 2 usage errors.  Machine-readable output goes to files or
standard output; diagnostics go to standard error.  Importing this module
loads only what induce-suffixes and preprocess run (corpus, compounds,
suffixes, markers, pipeline).  Commands read the package's exported names
of metrics and the aligner as attributes of this module, which gets each
from the package on first use, so evaluate and align load theirs when they
run; evaluate and demo-table2 import TSV_HEADER and run_demo themselves.
No command loads dataclasses (nor the inspect module it imports): the
value classes are built on corpus._Frozen.  Only evaluate --report json
loads json.  Only demo-table2 loads typing and pathlib (importlib.resources
imports them): annotations use builtins and collections.abc, and a name only
a type checker reads is imported under TYPE_CHECKING, which is False.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from collections.abc import Callable

from .compounds import (
    DEFAULT_MARGIN,
    _induce_reversed,
    load_compound_suffixes,
    save_compound_suffixes,
)
from .corpus import (
    Corpus,
    is_token,
    parse_digits,
    read_lines,
    read_reversed_types,
    read_token_corpus,
    write_lines,
)
from .pipeline import COMPOUND_MODES, SUFFIX_MODES, Mode, PipelineConfig, preprocess_lines
from .suffixes import load_suffix_list

TYPE_CHECKING = False
if TYPE_CHECKING:  # read for annotations only
    import os


# Commands read the package's exported names through _self.  __getattr__
# gets one from the package, which imports its submodule on first use, and
# keeps it here; a value already set here (say, a wrapper set from outside)
# is found first, so it is what runs.
_self = sys.modules[__name__]


def __getattr__(name: str):
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
    return value


class UsageError(Exception):
    """Bad flags or config values; maps to exit code 2."""


def _cast_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


REPORT_FORMATS = ("tsv", "json")


def _cast_report(value: str) -> str:
    if value not in REPORT_FORMATS:
        raise ValueError(
            f"invalid choice: {value!r} (choose from {', '.join(REPORT_FORMATS)})"
        )
    return value


def _count(minimum: int) -> Callable[[str], int]:
    def cast(value: str) -> int:
        number = parse_digits(value)
        if number is None or number < minimum:
            raise ValueError(f"must be an integer >= {minimum}, not {value!r}")
        return number
    return cast


def _cast_marker(value: str) -> str:
    if not is_token(value):
        raise ValueError("must be non-empty and contain no whitespace")
    return value


# Optional flags per subcommand: dest -> (caster, default).  A flag or config
# value reaches a command only through its caster, which does the whole check.
# Required file arguments deliberately stay CLI-only.  --help shows each default.
_OPTIONAL: dict[str, dict[str, tuple[Callable, object]]] = {
    "induce-suffixes": {
        "margin": (_count(0), DEFAULT_MARGIN), "min_count": (_count(1), 1),
    },
    "preprocess": {"marker": (_cast_marker, None), "pos_tags": (str, None)},
    "evaluate": {"report": (_cast_report, "tsv")},
    "align": {"iters": (_count(1), 5), "null": (_cast_bool, False)},
    "demo-table2": {},
}


def load_config(path: str | os.PathLike[str]) -> dict[str, str]:
    """Parse the shared key=value config file ('#' comments, blank lines).
    A key may appear once."""
    entries: dict[str, str] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        key = key.strip()
        if not sep or not key:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        if key in entries:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value.strip()
    known = {dest for opts in _OPTIONAL.values() for dest in opts}
    unknown = set(entries) - known
    if unknown:
        # a key with a line break in it must not break the message's line
        names = (key if key.isprintable() else repr(key) for key in sorted(unknown))
        raise UsageError(f"unknown config keys: {', '.join(names)}")
    return entries


def _merge_config(args: argparse.Namespace, config: dict[str, str]) -> None:
    """Take each optional value from its flag, else its config key, else its default."""
    for dest, (caster, default) in _OPTIONAL[args.command].items():
        value, source = getattr(args, dest), "--" + dest.replace("_", "-")
        if value is None:
            value, source = config.get(dest), f"config key {dest}"
        try:
            setattr(args, dest, default if value is None else caster(value))
        except ValueError as exc:
            raise UsageError(f"{source}: {exc}") from None


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that keeps '--' as an option's own value.  Some
    Python versions' argparse drop the '--' of `--flag=--` and store [],
    which no caster takes; here the option gets '--' through its type and
    choices checks, as any other value does."""

    def _get_values(self, action, arg_strings):
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mtprep",
        description="Morphological preprocessing and scoring for machine "
        "translation over agglutinative source languages.",
    )
    parser.add_argument(
        "--config", metavar="FILE", help="key=value defaults for optional flags"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "induce-suffixes",
        help="collect compound suffixes from a monolingual corpus",
    )
    p.add_argument("--mono", required=True, metavar="FILE", help="monolingual corpus")
    p.add_argument("--margin", metavar="N", help="length margin")
    p.add_argument(
        "--min-count", dest="min_count", metavar="N",
        help="drop suffixes observed on fewer words",
    )
    p.add_argument("-o", "--output", required=True, metavar="FILE")

    p = sub.add_parser("preprocess", help="split a corpus with the chosen mode")
    p.add_argument("--mode", required=True, choices=[m.value for m in Mode])
    p.add_argument("--suffixes", metavar="FILE", help="suffix list (ss, cs+ss)")
    p.add_argument("--compounds", metavar="FILE", help="compound suffixes (cs, cs+ss)")
    p.add_argument("--marker", metavar="STR", help="reversibility marker, e.g. @@")
    p.add_argument(
        "--pos-tags", dest="pos_tags", metavar="FILE",
        help="parallel tag corpus; NNP tokens pass through unsplit",
    )
    p.add_argument("-i", "--input", required=True, metavar="FILE")
    p.add_argument("-o", "--output", required=True, metavar="FILE")

    p = sub.add_parser("evaluate", help="score a hypothesis corpus")
    p.add_argument("--hyp", required=True, metavar="FILE")
    p.add_argument("--ref", required=True, metavar="FILE")
    p.add_argument("--report", metavar="{tsv,json}", help="output format")

    p = sub.add_parser("align", help="train the EM aligner and print links")
    p.add_argument("--src", required=True, metavar="FILE")
    p.add_argument("--tgt", required=True, metavar="FILE")
    p.add_argument("--iters", metavar="N", help="EM iterations")
    p.add_argument("--gold", metavar="FILE", help="gold links for scoring")
    p.add_argument(
        "--null", action="store_const", const="on",
        help="add a null source word absorbing unalignable targets",
    )

    sub.add_parser("demo-table2", help="before/after alignment demonstration")

    for command, subparser in sub.choices.items():
        for action in subparser._actions:
            _, default = _OPTIONAL[command].get(action.dest, (None, None))
            if default is not None:
                action.help += f" (default {default})"
    return parser


def _cmd_induce(args: argparse.Namespace) -> int:
    vocab = read_reversed_types(args.mono)
    induced = _induce_reversed(vocab, args.margin, args.min_count)
    save_compound_suffixes(induced, args.output)
    print(
        f"induced {len(induced)} compound suffixes "
        f"from {len(vocab)} vocabulary types",
        file=sys.stderr,
    )
    return 0


def _cmd_preprocess(args: argparse.Namespace) -> int:
    mode = Mode(args.mode)
    if mode in SUFFIX_MODES and not args.suffixes:
        raise UsageError(f"--mode {args.mode} requires --suffixes")
    if mode in COMPOUND_MODES and not args.compounds:
        raise UsageError(f"--mode {args.mode} requires --compounds")
    config = PipelineConfig(
        mode=mode,
        suffix_list=load_suffix_list(args.suffixes) if args.suffixes else None,
        compound_set=load_compound_suffixes(args.compounds) if args.compounds else None,
        marker=args.marker,
        nnp_tags=(
            read_token_corpus(args.pos_tags) if args.pos_tags is not None else None
        ),
    )
    write_lines(preprocess_lines(read_lines(args.input), config), args.output)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .metrics import TSV_HEADER

    report = _self.evaluate(read_token_corpus(args.hyp), read_token_corpus(args.ref))
    if args.report == "json":
        print(report.to_json())
    else:
        print(TSV_HEADER)
        print(report.tsv_row())
    return 0


def _read_gold(path: str, src: Corpus, tgt: Corpus) -> list[set]:
    """Gold links, one parse_alignment call per line; every link must index
    into the pair's source and target sentences.  Checked before training,
    so a bad gold file fails before any alignment is printed.  Errors come
    in this order: a malformed pair on any line, the line count, then the
    first line with a link out of bounds, naming its smallest such link."""
    gold = []
    for lineno, line in enumerate(read_lines(path), start=1):
        try:
            gold.append(_self.parse_alignment(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if len(gold) != len(src):
        raise ValueError(
            f"{path}: {len(gold)} gold alignments for {len(src)} sentence pairs"
        )
    for lineno, (links, src_sent, tgt_sent) in enumerate(
        zip(gold, src, tgt), start=1
    ):
        n, m = len(src_sent), len(tgt_sent)
        for i, j in links:
            if i >= n or j >= m:
                i, j = min(link for link in links if link[0] >= n or link[1] >= m)
                raise ValueError(
                    f"{path}:{lineno}: link {i}-{j} is past the end of a "
                    f"{n}-token source or {m}-token target sentence"
                )
    return gold


def _cmd_align(args: argparse.Namespace) -> int:
    src = read_token_corpus(args.src)
    tgt = read_token_corpus(args.tgt)
    gold = _read_gold(args.gold, src, tgt) if args.gold else None
    table = _self.train_em(src, tgt, iterations=args.iters, null_word=args.null)
    alignments = _self.align_corpus(src, tgt, table)
    for links in alignments:
        print(_self.format_alignment(links))
    if gold is not None:
        score = _self.corpus_alignment_f1(alignments, gold)
        print(
            f"precision={score.precision:.4f} "
            f"recall={score.recall:.4f} f1={score.f1:.4f}",
            file=sys.stderr,
        )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from .demo import run_demo

    run_demo()
    return 0


_COMMANDS = {
    "induce-suffixes": _cmd_induce,
    "preprocess": _cmd_preprocess,
    "evaluate": _cmd_evaluate,
    "align": _cmd_align,
    "demo-table2": _cmd_demo,
}


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """A library warning is a diagnostic: one line on standard error, with
    no source location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        config = load_config(args.config) if args.config else {}
        _merge_config(args, config)
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, Warning) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
