"""The one n-gram counting pass that BLEU and NIST read from."""

import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from mtprep.metrics import bleu, evaluate, nist
from mtprep.metrics.common import NIST_ORDER, ngram_statistics

token_st = st.sampled_from("ab")
pair_st = st.lists(
    st.tuples(st.lists(token_st, max_size=8), st.lists(token_st, min_size=1, max_size=8)),
    min_size=1,
    max_size=5,
)


def grams(tokens, n):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def expected_clipped(hyp, ref, n):
    """Matched n-grams only, in the order they first occur in hyp, each at
    the lesser of its hyp and ref counts."""
    hyp_grams = grams(hyp, n)
    ref_counts = Counter(grams(ref, n))
    return [
        (g, min(hyp_grams.count(g), ref_counts[g]))
        for g in dict.fromkeys(hyp_grams)
        if ref_counts[g]
    ]


def assert_clipped_match_brute_force(hyps, refs, stats):
    for n, order in enumerate(stats.clipped, 1):
        assert len(order) == len(hyps)
        for clipped, hyp, ref in zip(order, hyps, refs):
            assert list(clipped.items()) == expected_clipped(hyp, ref, n)


@settings(max_examples=100)
@given(pair_st.filter(lambda pairs: any(h for h, _ in pairs)))
def test_statistics_match_brute_force(pairs):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    stats = ngram_statistics(hyps, refs)
    assert NIST_ORDER == 5
    assert len(stats.clipped) == len(stats.totals) == NIST_ORDER
    assert_clipped_match_brute_force(hyps, refs, stats)
    for n in range(1, NIST_ORDER + 1):
        assert stats.totals[n - 1] == sum(len(grams(h, n)) for h in hyps)
    assert stats.ref_counts == Counter(
        g for ref in refs for n in range(1, NIST_ORDER + 1) for g in grams(ref, n)
    )
    assert stats.hyp_length == sum(map(len, hyps))
    assert stats.ref_length == sum(map(len, refs))


@st.composite
def _wide_pairs(draw):
    # 2-12 token types and up to 30 tokens a side, so that most hypothesis
    # n-grams of the higher orders have no match in their reference
    tokens = st.sampled_from("abcdefghijkl"[: draw(st.integers(2, 12))])
    return draw(
        st.lists(
            st.tuples(
                st.lists(tokens, min_size=1, max_size=30),
                st.lists(tokens, min_size=1, max_size=30),
            ),
            min_size=1,
            max_size=4,
        )
    )


@settings(max_examples=200)
@given(_wide_pairs())
def test_clipped_match_brute_force_on_wide_alphabets(pairs):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    assert_clipped_match_brute_force(hyps, refs, ngram_statistics(hyps, refs))


def test_clipping_caps_an_ngram_the_hypothesis_repeats():
    # "a" occurs 4 times in the hypothesis and twice in the reference, "b"
    # once against three times: each is clipped to the lesser count, and
    # the keys keep the hypothesis order
    hyp, ref = "a a a b c a".split(), "a a b b b c".split()
    stats = ngram_statistics([hyp], [ref])
    assert [list(order[0].items()) for order in stats.clipped] == [
        [(("a",), 2), (("b",), 1), (("c",), 1)],
        [(("a", "a"), 1), (("a", "b"), 1), (("b", "c"), 1)],
        [(("a", "a", "b"), 1)],
        [],
        [],
    ]


@pytest.mark.parametrize(
    "hyps, refs, message",
    [
        # corpus checks come first, then the token count
        ([[]], [["a"], ["b"]], "1 sentences, reference has 2"),
        ([], [], "empty corpus"),
        ([[]], [[]], "reference sentence 1 is empty"),
        ([[]], [["a"]], "no tokens"),
    ],
)
def test_checks_run_in_order(hyps, refs, message):
    with pytest.raises(ValueError, match=message):
        ngram_statistics(hyps, refs)


@settings(max_examples=100)
@given(pair_st.filter(lambda pairs: any(h for h, _ in pairs)))
def test_evaluate_shares_one_pass_with_unchanged_scores(pairs):
    # evaluate counts once up to order 5; BLEU reads orders 1-4 of it
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    report = evaluate(hyps, refs)
    assert repr(report.bleu_detail) == repr(bleu(hyps, refs))
    assert repr(report.nist_detail) == repr(nist(hyps, refs))


@pytest.mark.parametrize(
    "hyps, refs", [([[]], [["a"], ["b"]]), ([], []), ([["a"]], [[]]), ([[]], [["a"]])]
)
def test_evaluate_fails_like_bleu(hyps, refs):
    with pytest.raises(ValueError) as from_bleu:
        bleu(hyps, refs)
    with pytest.raises(ValueError, match=f"^{re.escape(str(from_bleu.value))}$"):
        evaluate(hyps, refs)
