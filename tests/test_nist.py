"""Information-weighted n-gram scoring."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from mtprep.metrics.common import ngram_statistics
from mtprep.metrics.nist import BETA, NistScore, nist, nist_from_statistics

from oracles import ngrams, nist_information, nist_oracle

HYPS = [["the", "cat", "sat", "on", "the", "mat"], ["a", "dog", "barked", "loudly"]]
REFS = [["the", "cat", "sat", "on", "a", "mat"], ["the", "dog", "barked", "very", "loudly"]]
FROZEN_NIST = 2.6876134938487
FROZEN_IDENTITY_HYPS = 3.371928094887362
FROZEN_IDENTITY_REFS = 3.4998356590413375

token_st = st.sampled_from("abcde")
sent_st = st.lists(token_st, min_size=1, max_size=10)
pair_st = st.lists(st.tuples(sent_st, sent_st), min_size=1, max_size=6)


def test_beta_calibration():
    # brevity factor is 0.5 at a 2/3 length ratio by construction
    assert math.exp(BETA * math.log(2.0 / 3.0) ** 2) == pytest.approx(0.5)


def test_frozen_corpus_score():
    assert nist(HYPS, REFS).score == pytest.approx(FROZEN_NIST, abs=1e-9)


def test_frozen_identity_scores():
    # identity is not a fixed maximum: the value depends on reference entropy
    assert nist(HYPS, HYPS).score == pytest.approx(FROZEN_IDENTITY_HYPS, abs=1e-12)
    assert nist(REFS, REFS).score == pytest.approx(FROZEN_IDENTITY_REFS, abs=1e-12)


def test_single_word_corpus_is_uninformative():
    # the only unigram covers the whole corpus: info = log2(1/1) = 0,
    # and there are no higher-order n-grams to add anything
    assert nist([["a"]], [["a"]]).score == 0.0


def test_rare_match_outweighs_common_match():
    refs = [["x", "q"], ["x", "r"], ["x", "s"], ["x", "t"]]
    common = nist([["x", "n"], ["n", "n"], ["n", "n"], ["n", "n"]], refs).score
    rare = nist([["q", "n"], ["n", "n"], ["n", "n"], ["n", "n"]], refs).score
    assert rare > common


def test_brevity_factor_halves_at_two_thirds():
    refs = [["a", "b", "c"]]
    full = nist([["a", "b", "c"]], refs)
    short = nist([["a", "b"]], refs)
    assert short.brevity == pytest.approx(0.5)
    assert full.brevity == 1.0


def test_no_penalty_for_long_hypotheses():
    result = nist([["a", "b", "c", "d"]], [["a", "b"]])
    assert result.brevity == 1.0


def weight(refs, gram):
    """The info weight of gram over the reference corpus refs, read off
    nist_from_statistics: gram is the only hypothesis n-gram of its order,
    set against the first reference that holds it, and every other
    hypothesis is empty, so that order's per_order term is the weight."""
    n = len(gram)
    at = next(k for k, ref in enumerate(refs) if gram in ngrams(ref, n))
    hyps = [list(gram) if k == at else [] for k in range(len(refs))]
    return nist_from_statistics(ngram_statistics(hyps, refs)).per_order[n - 1]


def test_unigram_information_uses_corpus_word_count():
    refs = [["a", "a", "b", "c"]]
    # four reference words, "a" appears twice: info = log2(4/2)
    assert weight(refs, ("a",)) == pytest.approx(1.0)
    assert weight(refs, ("b",)) == pytest.approx(2.0)


def test_bigram_information_conditions_on_prefix():
    # prefix "a" occurs twice, continuation "a b" once: log2(2/1)
    assert weight([["a", "b", "a", "c"]], ("a", "b")) == pytest.approx(1.0)


def test_repeating_the_reference_corpus_keeps_every_weight():
    refs = [["a", "b"], ["a", "c"], ["d"]]
    for gram in [("a",), ("d",), ("a", "b"), ("a", "c")]:
        assert weight(refs + refs, gram) == weight(refs, gram)
    # repeating one sentence shifts the proportions: "a b" is now 2 of 3 "a"
    assert weight(refs + refs[:1], ("a", "b")) == pytest.approx(math.log2(3 / 2))


def test_per_order_detail_shape():
    result = nist(HYPS, REFS)
    assert isinstance(result, NistScore)
    assert len(result.per_order) == 5
    assert result.per_order[0] > 0.0


def test_rejects_mismatched_corpora():
    with pytest.raises(ValueError):
        nist([["a"]], [])


@settings(max_examples=150)
@given(pair_st)
def test_matches_oracle(pairs):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    # exact: the implementation sums in the oracle's order
    assert nist(hyps, refs).score == nist_oracle(hyps, refs)


@settings(max_examples=150)
@given(pair_st)
def test_per_order_has_the_bits_of_information(pairs):
    # each order must keep the bits of adding matched * the oracle's weight
    # one by one, in the order the statistics hold the matches
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    stats = ngram_statistics(hyps, refs)
    expected = []
    for order, total in zip(stats.clipped, stats.totals):
        info_sum = 0.0
        for clipped in order:
            for gram, matched in clipped.items():
                info = nist_information(gram, stats.ref_counts, stats.ref_length)
                info_sum += matched * info
        expected.append(info_sum / total if total else 0.0)
    got = nist_from_statistics(stats).per_order
    assert [x.hex() for x in got] == [x.hex() for x in expected]


@settings(max_examples=80)
@given(pair_st)
def test_score_is_nonnegative(pairs):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    assert nist(hyps, refs).score >= 0.0
