"""Command-line front end.

Subcommands: induce-suffixes, preprocess, evaluate, align, demo-table2.
Optional flags can take their defaults from a shared key=value config file
(--config); explicit flags always win.  Exit codes: 0 success, 1 I/O or
data errors, 2 usage errors.  Machine-readable output goes to files or
standard output; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable

from .aligner import (
    align_corpus,
    corpus_alignment_f1,
    format_alignment,
    parse_alignment,
    train_em,
)
from .compounds import (
    DEFAULT_MARGIN,
    induce_compound_suffixes,
    load_compound_suffixes,
    save_compound_suffixes,
)
from .corpus import (
    Corpus,
    build_vocabulary,
    is_token,
    read_lines,
    read_token_corpus,
    write_token_corpus,
)
from .demo import run_demo
from .metrics import TSV_HEADER, evaluate
from .pipeline import Mode, PipelineConfig, preprocess
from .suffixes import load_suffix_list


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


# Optional flags per subcommand: dest -> (caster, default).  Required file
# arguments deliberately stay CLI-only.
_OPTIONAL: dict[str, dict[str, tuple[Callable, object]]] = {
    "induce-suffixes": {"margin": (int, DEFAULT_MARGIN), "min_count": (int, 1)},
    "preprocess": {"marker": (str, None), "pos_tags": (str, None)},
    "evaluate": {"report": (_cast_report, "tsv")},
    "align": {"iters": (int, 5), "null": (_cast_bool, False)},
    "demo-table2": {},
}


def load_config(path: str | Path) -> dict[str, str]:
    """Parse the shared key=value config file ('#' comments, blank lines)."""
    entries: dict[str, str] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep or not key.strip():
            raise UsageError(f"{path}:{lineno}: expected key=value")
        entries[key.strip()] = value.strip()
    known = {dest for opts in _OPTIONAL.values() for dest in opts}
    unknown = set(entries) - known
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return entries


def _merge_config(args: argparse.Namespace, config: dict[str, str]) -> None:
    """Fill unset optional flags from the config file, then defaults."""
    for dest, (caster, default) in _OPTIONAL[args.command].items():
        if getattr(args, dest) is not None:
            continue
        if dest in config:
            try:
                setattr(args, dest, caster(config[dest]))
            except ValueError as exc:
                raise UsageError(f"config key {dest}: {exc}") from None
        else:
            setattr(args, dest, default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--margin", type=int, metavar="N", help="length margin (default 5)")
    p.add_argument(
        "--min-count", dest="min_count", type=int, metavar="N",
        help="drop suffixes observed on fewer words (default 1)",
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
    p.add_argument("--report", choices=REPORT_FORMATS, help="output format")

    p = sub.add_parser("align", help="train the EM aligner and print links")
    p.add_argument("--src", required=True, metavar="FILE")
    p.add_argument("--tgt", required=True, metavar="FILE")
    p.add_argument("--iters", type=int, metavar="N", help="EM iterations (default 5)")
    p.add_argument("--gold", metavar="FILE", help="gold links for scoring")
    p.add_argument(
        "--null", action="store_const", const=True,
        help="add a null source word absorbing unalignable targets",
    )

    sub.add_parser("demo-table2", help="before/after alignment demonstration")
    return parser


def _cmd_induce(args: argparse.Namespace) -> int:
    if args.margin < 0:
        raise UsageError("--margin must be >= 0")
    if args.min_count < 1:
        raise UsageError("--min-count must be >= 1")
    vocab = build_vocabulary(read_token_corpus(args.mono))
    induced = induce_compound_suffixes(
        vocab, margin=args.margin, min_count=args.min_count
    )
    save_compound_suffixes(induced, args.output)
    print(
        f"induced {len(induced)} compound suffixes "
        f"from {len(vocab)} vocabulary types",
        file=sys.stderr,
    )
    return 0


def _cmd_preprocess(args: argparse.Namespace) -> int:
    mode = Mode(args.mode)
    if mode in (Mode.SS, Mode.CS_SS) and not args.suffixes:
        raise UsageError(f"--mode {args.mode} requires --suffixes")
    if mode in (Mode.CS, Mode.CS_SS) and not args.compounds:
        raise UsageError(f"--mode {args.mode} requires --compounds")
    if args.marker is not None and not is_token(args.marker):
        raise UsageError("--marker must be non-empty and contain no whitespace")
    config = PipelineConfig(
        mode=mode,
        suffix_list=load_suffix_list(args.suffixes) if args.suffixes else None,
        compound_set=load_compound_suffixes(args.compounds) if args.compounds else None,
        marker=args.marker,
        nnp_tags=(
            read_token_corpus(args.pos_tags) if args.pos_tags is not None else None
        ),
    )
    corpus = read_token_corpus(args.input)
    result = preprocess(corpus, config)
    write_token_corpus(result, args.output)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    report = evaluate(read_token_corpus(args.hyp), read_token_corpus(args.ref))
    if args.report == "json":
        print(report.to_json())
    else:
        print(TSV_HEADER)
        print(report.tsv_row())
    return 0


def _read_gold(path: str, src: Corpus, tgt: Corpus) -> list[set]:
    """Gold links, one line per sentence pair; every link must index into
    the pair's source and target sentences."""
    gold = []
    for lineno, line in enumerate(read_lines(path), start=1):
        try:
            gold.append(parse_alignment(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    for lineno, (links, src_sent, tgt_sent) in enumerate(
        zip(gold, src, tgt), start=1
    ):
        for i, j in sorted(links):
            if i >= len(src_sent) or j >= len(tgt_sent):
                raise ValueError(
                    f"{path}:{lineno}: link {i}-{j} is past the end of a "
                    f"{len(src_sent)}-token source or {len(tgt_sent)}-token "
                    "target sentence"
                )
    return gold


def _cmd_align(args: argparse.Namespace) -> int:
    if args.iters < 1:
        raise UsageError("--iters must be >= 1")
    src = read_token_corpus(args.src)
    tgt = read_token_corpus(args.tgt)
    gold = _read_gold(args.gold, src, tgt) if args.gold else None
    table = train_em(src, tgt, iterations=args.iters, null_word=args.null)
    alignments = align_corpus(src, tgt, table)
    for links in alignments:
        print(format_alignment(links))
    if gold is not None:
        score = corpus_alignment_f1(alignments, gold)
        print(
            f"precision={score.precision:.4f} "
            f"recall={score.recall:.4f} f1={score.f1:.4f}",
            file=sys.stderr,
        )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    run_demo()
    return 0


_COMMANDS = {
    "induce-suffixes": _cmd_induce,
    "preprocess": _cmd_preprocess,
    "evaluate": _cmd_evaluate,
    "align": _cmd_align,
    "demo-table2": _cmd_demo,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        config = load_config(args.config) if args.config else {}
        _merge_config(args, config)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
