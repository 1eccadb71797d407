"""Acceptance gate: the eight shipping criteria, one test each.

Every test prints a single "criterion N PASS/FAIL" line; run with

    pytest -s tests/test_acceptance.py

to see the lines regardless of outcome.  Tolerances and time limits are
stated inline next to the assertions they guard.
"""

import io
import random
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stdout

from mtprep.aligner import train_em
from mtprep.compounds import (
    CompoundSuffixSet,
    induce_compound_suffixes,
    split_compound,
)
from mtprep.corpus import parse_token_corpus, write_token_corpus
from mtprep.demo import load_demo_fixtures, run_demo
from mtprep.metrics.bleu import bleu
from mtprep.metrics.ter import sentence_ter, ter
from mtprep.pipeline import Mode, PipelineConfig, preprocess, reconstruct
from mtprep.suffixes import SuffixList, separate_suffix
from mtprep.synth import alignment_improvement, build_benchmark

from oracles import bleu_oracle, exhaustive_ter_edits, induce_oracle, wer_oracle

TABLE2_ROW = "dara sahaa mahiny aaMnii daMta tajGYaaM kaDuuna tapaasuuna ghyaa"


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL  {summary}")
        raise
    print(f"criterion {number} PASS  {summary}")


def random_corpus(rng, sentences, alphabet="abcd", max_len=8, min_len=1):
    return [
        [rng.choice(alphabet) for _ in range(rng.randint(min_len, max_len))]
        for _ in range(sentences)
    ]


def test_criterion_1_table2_reproduction():
    with criterion(1, "demo-table2 emits the split row byte-exact in < 1 s"):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "mtprep.cli", "demo-table2"],
            capture_output=True,
            timeout=10,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0
        assert TABLE2_ROW.encode("utf-8") in proc.stdout.split(b"\n")
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        # also via the library path, without interpreter startup
        buf = io.StringIO()
        with redirect_stdout(buf):
            run_demo()
        assert TABLE2_ROW in buf.getvalue().splitlines()


def test_criterion_2_worked_example_splits():
    with criterion(2, "worked-example splits match exactly"):
        suffixes, compounds, _, _ = load_demo_fixtures()
        split = separate_suffix("mahinyaaMnii", suffixes)
        assert (split.stem, split.suffix) == ("mahiny", "aaMnii")
        assert split_compound("daMtatajGYaaMkaDuuna", compounds) == [
            "daMta",
            "tajGYaaM",
            "kaDuuna",
        ]
        # documented failure mode: with only "iila" listed, the longest
        # match truncates the true stem "jarmanii"
        bad = separate_suffix("jarmaniitiila", SuffixList(["iila"]))
        assert (bad.stem, bad.suffix) == ("jarmaniit", "iila")
        # listing "tiila" as well repairs it, since longer entries win
        good = separate_suffix("jarmaniitiila", SuffixList(["iila", "tiila"]))
        assert (good.stem, good.suffix) == ("jarmanii", "tiila")


def test_criterion_3_concatenation_identity():
    with criterion(3, "pieces concatenate to the input on >= 10,000 random words"):
        rng = random.Random(31)
        checked = 0
        for _ in range(120):
            # fresh random suffix list and compound inventory per batch
            suffix_list = SuffixList(
                {
                    "".join(rng.choice("abcd") for _ in range(rng.randint(1, 5)))
                    for _ in range(rng.randint(1, 8))
                }
            )
            compound_set = CompoundSuffixSet(
                {
                    "".join(rng.choice("abcd") for _ in range(rng.randint(1, 7))): 1
                    for _ in range(rng.randint(1, 6))
                }
            )
            splitters = [
                PipelineConfig(
                    mode=mode, suffix_list=suffix_list, compound_set=compound_set
                ).splitter()
                for mode in Mode
            ]
            for _ in range(100):
                word = "".join(
                    rng.choice("abcd") for _ in range(rng.randint(1, 20))
                )
                for split in splitters:
                    pieces = split(word)
                    assert "".join(pieces) == word
                    assert all(pieces)
                checked += 1
        assert checked >= 10_000


def test_criterion_4_induction_matches_oracle():
    with criterion(4, "induction equals the double-loop oracle on vocabularies <= 500"):
        rng = random.Random(47)
        start = time.perf_counter()
        for _ in range(30):
            size = rng.randint(1, 500)
            vocab = {
                "".join(rng.choice("abc") for _ in range(rng.randint(1, 14)))
                for _ in range(size)
            }
            assert len(vocab) <= 500
            got = induce_compound_suffixes(vocab, margin=5)
            assert got.counts == induce_oracle(vocab, margin=5)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_5_metric_oracles():
    with criterion(5, "BLEU to 1e-9 on 100 corpora; TER exhaustive <= 6 tokens; TER <= WER"):
        rng = random.Random(59)
        # corpus BLEU against the independent counter
        for _ in range(100):
            n = rng.randint(1, 6)
            hyps = random_corpus(rng, n, max_len=10)
            refs = random_corpus(rng, n, max_len=10)
            assert abs(bleu(hyps, refs).score - bleu_oracle(hyps, refs)) < 1e-9
        # TER equals the exhaustive shift search on short pairs: a full
        # sweep over {a,b} sentences up to length 4, then random pairs
        # up to 6 tokens
        short = [[]]
        for length in range(1, 5):
            short = short + [
                s + [c] for s in short if len(s) == length - 1 for c in "ab"
            ]
        cases = 0
        for hyp in short:
            for ref in short:
                if not ref:
                    continue
                assert (
                    sentence_ter(hyp, ref).total_edits
                    == exhaustive_ter_edits(hyp, ref)
                ), (hyp, ref)
                cases += 1
        for _ in range(300):
            hyp = [rng.choice("abcd") for _ in range(rng.randint(0, 6))]
            ref = [rng.choice("abcd") for _ in range(rng.randint(1, 6))]
            assert (
                sentence_ter(hyp, ref).total_edits
                == exhaustive_ter_edits(hyp, ref)
            ), (hyp, ref)
            cases += 1
        assert cases >= 200
        # TER never exceeds WER, and both identities hold
        for _ in range(100):
            n = rng.randint(1, 5)
            hyps = random_corpus(rng, n, max_len=7)
            refs = random_corpus(rng, n, max_len=7)
            assert ter(hyps, refs).score <= wer_oracle(hyps, refs) + 1e-12
            assert bleu(hyps, hyps).score == 1.0
            assert ter(hyps, hyps).score == 0.0


def test_criterion_6_em_monotone_and_normalized():
    with criterion(6, "EM log-likelihood non-decreasing; rows sum to 1 each iteration"):
        rng = random.Random(67)
        for _ in range(50):
            n = rng.randint(2, 6)
            src = random_corpus(rng, n, alphabet="uvwz", max_len=5)
            tgt = random_corpus(rng, n, alphabet="UVWZ", max_len=5)
            lls = train_em(src, tgt, iterations=10).log_likelihoods
            assert len(lls) == 10
            assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))
            for k in range(1, 11):
                table = train_em(src, tgt, iterations=k)
                for row in table.probs.values():
                    assert abs(sum(row.values()) - 1.0) <= 1e-9


def test_criterion_7_alignment_improvement():
    with criterion(7, "CS+SS preprocessing gains >= 5 F1 points on the synthetic corpus"):
        start = time.perf_counter()
        bench = build_benchmark()
        assert len(bench.src_fused) >= 200
        fused_f1, split_f1 = alignment_improvement(bench)
        elapsed = time.perf_counter() - start
        assert split_f1 - fused_f1 >= 0.05, (fused_f1, split_f1)
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_8_marker_round_trip():
    with criterion(8, "marker round-trip restores every corpus byte-exact"):
        suffixes, compounds, demo_src, demo_tgt = load_demo_fixtures()
        fixture_config = PipelineConfig(
            mode=Mode.CS_SS,
            suffix_list=suffixes,
            compound_set=compounds,
            marker="@@",
        )
        for fixture in (demo_src, demo_tgt):
            assert reconstruct(preprocess(fixture, fixture_config), "@@") == fixture
        # byte-exact through the file format as well
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            original = Path(tmp) / "orig.txt"
            restored = Path(tmp) / "back.txt"
            write_token_corpus(demo_src, original)
            write_token_corpus(
                reconstruct(preprocess(demo_src, fixture_config), "@@"),
                restored,
            )
            assert original.read_bytes() == restored.read_bytes()
        # random corpora, random resources, all marked modes
        rng = random.Random(83)
        for _ in range(150):
            corpus = [
                [
                    "".join(rng.choice("abcd") for _ in range(rng.randint(1, 12)))
                    for _ in range(rng.randint(1, 6))
                ]
                for _ in range(rng.randint(1, 5))
            ]
            suffix_list = SuffixList(
                {
                    "".join(rng.choice("abcd") for _ in range(rng.randint(1, 4)))
                    for _ in range(rng.randint(1, 6))
                }
            )
            compound_set = induce_compound_suffixes(
                {w for s in corpus for w in s}
            )
            for mode in (Mode.SS, Mode.CS, Mode.CS_SS):
                config = PipelineConfig(
                    mode=mode,
                    suffix_list=suffix_list,
                    compound_set=compound_set,
                    marker="@@",
                )
                assert reconstruct(preprocess(corpus, config), "@@") == corpus
