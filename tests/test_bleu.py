"""Corpus-level BLEU against an independent oracle and hand-frozen values."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from mtprep.metrics.bleu import bleu

from oracles import bleu_oracle

# fixed two-sentence corpus; the score below was frozen from the oracle
# before the implementation existed
HYPS = [["the", "cat", "sat", "on", "the", "mat"], ["a", "dog", "barked", "loudly"]]
REFS = [["the", "cat", "sat", "on", "a", "mat"], ["the", "dog", "barked", "very", "loudly"]]
FROZEN_BLEU = 0.386625271627883

token_st = st.sampled_from("abcde")
sent_st = st.lists(token_st, min_size=1, max_size=10)
pair_st = st.lists(st.tuples(sent_st, sent_st), min_size=1, max_size=6)


def test_frozen_corpus_score():
    assert bleu(HYPS, REFS).score == pytest.approx(FROZEN_BLEU, abs=1e-12)


def test_identity_scores_one():
    assert bleu(HYPS, HYPS).score == pytest.approx(1.0)


def test_no_overlap_scores_zero():
    assert bleu([["x", "y"]], [["a", "b"]]).score == 0.0


def test_zero_higher_order_match_zeroes_corpus_score():
    # unigram overlap alone is not enough without smoothing
    assert bleu([["a", "c", "b"]], [["a", "x", "b"]]).score == 0.0


def test_papineni_2002_modified_unigram_precision():
    # Papineni et al. (2002), section 2.1: seven "the" against reference 1
    # clip to the two "the" that it holds
    result = bleu([["the"] * 7], ["the cat is on the mat".split()])
    assert (result.matches[0], result.totals[0]) == (2, 7)
    assert result.precisions[0] == 2 / 7


def test_brevity_penalty_on_short_hypothesis():
    result = bleu([["a", "b"]], [["a", "b", "c", "d"]])
    assert result.brevity_penalty == pytest.approx(math.exp(1.0 - 4.0 / 2.0))


def test_no_penalty_on_long_hypothesis():
    result = bleu([["a", "b", "c", "d", "e"]], [["a", "b", "c"]])
    assert result.brevity_penalty == 1.0


def test_equal_length_gets_penalty_factor_one():
    # c == r falls on the exp(1 - r/c) = 1 branch
    result = bleu([["a", "b"]], [["b", "a"]])
    assert result.brevity_penalty == 1.0


def test_detail_fields():
    result = bleu(HYPS, REFS)
    assert result.hyp_length == 10
    assert result.ref_length == 11
    assert result.matches[0] == 8
    assert result.totals[0] == 10
    assert len(result.precisions) == 4
    assert result.percent == pytest.approx(100.0 * result.score)


def test_short_sentences_leave_high_orders_neutral():
    # a one-token corpus has no bigrams; only the unigram order counts
    result = bleu([["a"]], [["a"]])
    assert result.score == pytest.approx(1.0)
    assert result.totals == (1, 0, 0, 0)


def test_rejects_empty_hypothesis_corpus():
    with pytest.raises(ValueError):
        bleu([[]], [["a"]])


def test_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        bleu([["a"]], [["a"], ["b"]])


def test_rejects_empty_reference_sentence():
    with pytest.raises(ValueError, match="sentence 2"):
        bleu([["a"], ["b"]], [["a"], []])


@settings(max_examples=150)
@given(pair_st)
def test_matches_oracle(pairs):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    # exact: the implementation sums in the oracle's order, and dividing
    # by BLEU_ORDER = 4 scales without rounding
    assert bleu(hyps, refs).score == bleu_oracle(hyps, refs)


@settings(max_examples=80)
@given(pair_st)
def test_score_bounded(pairs):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    assert 0.0 <= bleu(hyps, refs).score <= 1.0


@settings(max_examples=80)
@given(sent_st)
def test_corpus_order_invariance(sent):
    # swapping sentence order leaves corpus counts, hence the score, unchanged
    rng = random.Random(7)
    other = rng.sample(sent, len(sent))
    pairs = [(sent, sent), (other, sent)]
    fwd = bleu([p[0] for p in pairs], [p[1] for p in pairs]).score
    rev = bleu([p[0] for p in reversed(pairs)], [p[1] for p in reversed(pairs)]).score
    assert fwd == pytest.approx(rev, abs=1e-12)
