"""Combined evaluation report: TSV and JSON rendering."""

import json
import math

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
