"""Combined evaluation report: TSV and JSON rendering."""

import json
import math
import random

import pytest

from mtprep.metrics import TSV_HEADER, EvalReport, evaluate

HYPS = [["the", "cat", "sat", "on", "the", "mat"], ["a", "dog", "barked", "loudly"]]
REFS = [["the", "cat", "sat", "on", "a", "mat"], ["the", "dog", "barked", "very", "loudly"]]


def test_header_names_three_metrics():
    assert TSV_HEADER == "BLEU\tNIST\tTER"


def test_report_carries_all_three_scores():
    report = evaluate(HYPS, REFS)
    assert 0.0 < report.bleu < 1.0
    assert report.nist > 0.0
    assert 0.0 < report.ter < 1.0


def test_identity_report():
    report = evaluate(HYPS, HYPS)
    assert report.bleu == pytest.approx(1.0)
    assert report.ter == 0.0


def test_tsv_row_formatting():
    report = evaluate(HYPS, HYPS)
    row = report.tsv_row()
    bleu_cell, nist_cell, ter_cell = row.split("\t")
    assert bleu_cell == "100.00"
    assert ter_cell == "0.00"
    # NIST is reported on its native scale with three decimals
    assert nist_cell == f"{report.nist:.3f}"


def test_tsv_percentages_use_two_decimals():
    row = evaluate(HYPS, REFS).tsv_row()
    bleu_cell, _, ter_cell = row.split("\t")
    assert bleu_cell == "38.66"
    assert len(ter_cell.split(".")[1]) == 2


def test_json_report_schema():
    payload = json.loads(evaluate(HYPS, REFS).to_json())
    assert set(payload) == {
        "bleu",
        "bleu_percent",
        "nist",
        "ter",
        "ter_percent",
        "components",
    }
    assert set(payload["components"]) == {"bleu", "nist", "ter"}
    assert payload["bleu_percent"] == pytest.approx(100.0 * payload["bleu"])
    assert payload["ter_percent"] == pytest.approx(100.0 * payload["ter"])
    # hypothesis is one word short of the reference here
    assert payload["components"]["bleu"]["brevity_penalty"] == pytest.approx(
        math.exp(1.0 - 11.0 / 10.0)
    )
    assert payload["components"]["ter"]["shifts"] >= 0
    assert payload["components"]["nist"]["brevity"] <= 1.0


def test_json_is_deterministic():
    assert evaluate(HYPS, REFS).to_json() == evaluate(HYPS, REFS).to_json()


def test_detail_objects_are_exposed():
    report = evaluate(HYPS, REFS)
    assert report.bleu_detail.score == report.bleu
    assert report.nist_detail.score == report.nist
    assert report.ter_detail.score == report.ter


def test_report_is_immutable():
    report = evaluate(HYPS, REFS)
    with pytest.raises(AttributeError):
        report.bleu = 0.0


def _pinned_corpus():
    """40 seeded segments of 8-30 reference tokens over 16 Zipf-weighted
    types; each hypothesis is its reference after one or two 2-token block
    moves, substitutions of up to a fifth of its tokens, and up to two
    drops.  The small vocabulary repeats n-grams up to order 5, so every
    NIST order carries weight."""
    rng = random.Random(19)
    vocab = [f"w{k}" for k in range(16)]
    weights = [1 / (k + 1) for k in range(16)]
    hyps, refs = [], []
    for _ in range(40):
        ref = rng.choices(vocab, weights, k=rng.randint(8, 30))
        hyp = list(ref)
        for _ in range(rng.randint(1, 2)):
            i = rng.randrange(len(hyp) - 1)
            block = hyp[i : i + 2]
            del hyp[i : i + 2]
            j = rng.randrange(len(hyp) + 1)
            hyp[j:j] = block
        for _ in range(rng.randint(0, len(hyp) // 5)):
            hyp[rng.randrange(len(hyp))] = rng.choices(vocab, weights)[0]
        for _ in range(rng.randint(0, 2)):
            del hyp[rng.randrange(len(hyp))]
        hyps.append(hyp)
        refs.append(ref)
    return hyps, refs


def test_metric_bits_are_pinned():
    # exact values, so a faster n-gram pass or TER search that moves any
    # bit of a score, or any segment's shifts or edits, fails here
    report = evaluate(*_pinned_corpus())
    assert report.bleu.hex() == "0x1.1a48d2b2f6abfp-1"
    assert [p.hex() for p in report.bleu_detail.precisions] == [
        "0x1.e442936aff352p-1",
        "0x1.7720f353a4c0ap-1",
        "0x1.fe30d91a3bb40p-2",
        "0x1.6a194ed8175c8p-2",
    ]
    assert report.nist.hex() == "0x1.aa5493d8b661ap+2"
    assert [p.hex() for p in report.nist_detail.per_order] == [
        "0x1.9198b40bac214p+1",
        "0x1.2874c88e58c35p+1",
        "0x1.05d407de17537p+0",
        "0x1.18d52b1f134cep-2",
        "0x1.4320ac036bf64p-5",
    ]
    assert report.ter.hex() == "0x1.c2802f6bcf18dp-3"
    sentences = report.ter_detail.sentences
    assert [(s.shifts, s.edits_after_shifts, s.ref_length) for s in sentences] == [
        (1, 2, 29), (1, 0, 12), (1, 3, 22), (3, 5, 21), (1, 0, 16),
        (2, 3, 20), (2, 2, 12), (1, 2, 15), (1, 1, 11), (0, 3, 10),
        (0, 2, 9), (3, 10, 30), (2, 2, 12), (1, 1, 16), (1, 1, 23),
        (1, 6, 19), (1, 2, 9), (1, 0, 18), (0, 2, 18), (1, 1, 10),
        (0, 1, 10), (2, 1, 23), (2, 2, 15), (2, 5, 23), (1, 1, 14),
        (1, 2, 16), (1, 3, 11), (1, 2, 8), (1, 3, 24), (3, 2, 25),
        (1, 1, 16), (0, 4, 12), (2, 3, 21), (1, 6, 22), (1, 2, 18),
        (0, 2, 8), (2, 3, 28), (1, 5, 25), (2, 1, 17), (3, 4, 23),
    ]
