"""EM-trained lexical table, Viterbi linking, and alignment F1."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from mtprep.aligner import (
    NULL_TOKEN,
    F1Score,
    TranslationTable,
    align_corpus,
    alignment_f1,
    corpus_alignment_f1,
    format_alignment,
    parse_alignment,
    train_em,
    viterbi_align,
)

# two-sentence workhorse: "a b | x y" plus the disambiguating pair "a | x"
SRC = [["a", "b"], ["a"]]
TGT = [["x", "y"], ["x"]]

word_st = st.sampled_from(["u", "v", "w", "z"])
sent_st = st.lists(word_st, min_size=1, max_size=4)
parallel_st = st.lists(st.tuples(sent_st, sent_st), min_size=1, max_size=5)


# --- EM ----------------------------------------------------------------------

def test_first_iteration_by_hand():
    # uniform init gives t(x|a) = 1/2; one E/M round moves it to 3/4
    table = train_em(SRC, TGT, iterations=1)
    assert table.prob("a", "x") == pytest.approx(0.75)
    assert table.prob("a", "y") == pytest.approx(0.25)
    assert table.prob("b", "x") == pytest.approx(0.5)


def test_second_iteration_by_hand():
    table = train_em(SRC, TGT, iterations=2)
    assert table.prob("a", "x") == pytest.approx(24.0 / 29.0)


def test_cooccurrence_seeds_the_table():
    table = train_em(SRC, TGT, iterations=1)
    # never co-occurred, never gets mass
    assert table.prob("b", "q") == 0.0


def test_log_likelihood_recorded_per_iteration():
    table = train_em(SRC, TGT, iterations=4)
    assert len(table.log_likelihoods) == 4


def test_log_likelihood_never_decreases():
    table = train_em(SRC, TGT, iterations=8)
    lls = table.log_likelihoods
    assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))


def test_rows_sum_to_one():
    table = train_em(SRC, TGT, iterations=3)
    for source, row in table.probs.items():
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)


def test_null_word_joins_every_sentence():
    table = train_em(SRC, TGT, iterations=2, null_word=True)
    assert table.has_null
    assert table.prob(NULL_TOKEN, "x") > 0.0


def test_without_null_word():
    assert not train_em(SRC, TGT, iterations=1).has_null


def test_literal_null_token_is_an_ordinary_word_without_null_word():
    src = [[NULL_TOKEN, "b"], [NULL_TOKEN, "c"]]
    tgt = [["x", "y"], ["x", "z"]]
    table = train_em(src, tgt, iterations=3)
    assert not table.has_null
    assert align_corpus(src, tgt, table) == [{(0, 0), (1, 1)}] * 2


def test_empty_sentence_pairs_are_skipped():
    table = train_em([["a"], []], [["x"], ["y"]], iterations=2)
    assert table.prob("a", "y") == 0.0


def test_rejects_unparallel_corpora():
    with pytest.raises(ValueError):
        train_em([["a"]], [["x"], ["y"]])


def test_rejects_zero_iterations():
    with pytest.raises(ValueError):
        train_em(SRC, TGT, iterations=0)


def test_rejects_reserved_null_token_in_data():
    with pytest.raises(ValueError):
        train_em([[NULL_TOKEN]], [["x"]], null_word=True)


@settings(max_examples=40, deadline=None)
@given(parallel_st, st.booleans())
def test_em_invariants(pairs, null_word):
    src = [s for s, _ in pairs]
    tgt = [t for _, t in pairs]
    table = train_em(src, tgt, iterations=6, null_word=null_word)
    for row in table.probs.values():
        total = sum(row.values())
        assert total == pytest.approx(1.0, abs=1e-9)
        assert all(p >= 0.0 for p in row.values())
    lls = table.log_likelihoods
    assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))


# --- Viterbi -----------------------------------------------------------------

def test_alignment_picks_argmax_source():
    table = train_em(SRC, TGT, iterations=5)
    assert viterbi_align(["a", "b"], ["x", "y"], table) == {(0, 0), (1, 1)}


def test_ties_go_to_leftmost_source():
    table = TranslationTable({"a": {"x": 0.5}, "b": {"x": 0.5}})
    assert viterbi_align(["a", "b"], ["x"], table) == {(0, 0)}


def test_unknown_target_links_nowhere_with_null():
    table = train_em(SRC, TGT, iterations=3, null_word=True)
    links = viterbi_align(["a"], ["unseen"], table)
    assert links == set()


def test_unknown_target_without_null_takes_leftmost():
    # degenerate but defined: all probabilities are zero, argmax is position 0
    table = train_em(SRC, TGT, iterations=3)
    assert viterbi_align(["a", "b"], ["unseen"], table) == {(0, 0)}


def test_align_corpus_shape():
    table = train_em(SRC, TGT, iterations=3)
    assert align_corpus(SRC, TGT, table) == [{(0, 0), (1, 1)}, {(0, 0)}]


def test_scaling_a_table_row_keeps_the_argmax():
    base = {"a": {"x": 0.9, "y": 0.1}, "b": {"x": 0.2, "y": 0.8}}
    scaled = {s: {t: 0.5 * p for t, p in row.items()} for s, row in base.items()}
    sent = (["a", "b"], ["x", "y", "x"])
    assert viterbi_align(*sent, TranslationTable(base)) == viterbi_align(
        *sent, TranslationTable(scaled)
    )


# --- F1 ----------------------------------------------------------------------

def test_f1_exact_match():
    links = {(0, 0), (1, 1)}
    assert alignment_f1(links, links) == F1Score(1.0, 1.0, 1.0)


def test_f1_partial():
    score = alignment_f1({(0, 0), (1, 1)}, {(0, 0), (2, 2)})
    assert score.precision == pytest.approx(0.5)
    assert score.recall == pytest.approx(0.5)
    assert score.f1 == pytest.approx(0.5)


def test_f1_empty_sides():
    assert alignment_f1(set(), set()) == F1Score(1.0, 1.0, 1.0)
    assert alignment_f1({(0, 0)}, set()).precision == 0.0
    assert alignment_f1(set(), {(0, 0)}).f1 == 0.0


def test_corpus_f1_micro_averages():
    pred = [{(0, 0)}, {(0, 0), (1, 1)}]
    gold = [{(0, 0)}, {(1, 1), (2, 2)}]
    score = corpus_alignment_f1(pred, gold)
    assert score.precision == pytest.approx(2.0 / 3.0)
    assert score.recall == pytest.approx(2.0 / 3.0)


def test_corpus_f1_rejects_length_mismatch():
    with pytest.raises(ValueError):
        corpus_alignment_f1([set()], [])


def test_f1_harmonic_mean():
    score = alignment_f1({(0, 0), (0, 1)}, {(0, 0), (1, 1), (2, 2), (3, 3)})
    p, r = 0.5, 0.25
    assert score.f1 == pytest.approx(2 * p * r / (p + r))


# --- text form ---------------------------------------------------------------

def test_format_sorts_links():
    assert format_alignment({(2, 1), (0, 0), (1, 3)}) == "0-0 1-3 2-1"


def test_parse_round_trip():
    links = {(0, 0), (1, 3), (2, 1)}
    assert parse_alignment(format_alignment(links)) == links


def test_parse_blank_line_is_empty():
    assert parse_alignment("") == set()
    assert parse_alignment("   ") == set()


def test_parse_rejects_malformed_pairs():
    for bad in ["0", "0-", "-1", "a-1", "0-1-2", "0:1", "\u0661-\u0660", "\u00b2-1"]:
        with pytest.raises(ValueError):
            parse_alignment(bad)


@settings(max_examples=60)
@given(st.sets(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=12))
def test_format_parse_round_trip_property(links):
    assert parse_alignment(format_alignment(links)) == links
