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


@settings(max_examples=100)
@given(pair_st.filter(lambda pairs: any(h for h, _ in pairs)))
def test_statistics_match_brute_force(pairs):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    stats = ngram_statistics(hyps, refs)
    assert NIST_ORDER == 5
    assert len(stats.clipped) == len(stats.totals) == NIST_ORDER
    for n, order in enumerate(stats.clipped, 1):
        assert len(order) == len(pairs)
        for clipped, hyp, ref in zip(order, hyps, refs):
            hyp_grams = grams(hyp, n)
            ref_counts = Counter(grams(ref, n))
            # matched n-grams only, in the order they first occur in hyp
            expected = {
                g: min(hyp_grams.count(g), ref_counts[g])
                for g in dict.fromkeys(hyp_grams)
                if ref_counts[g]
            }
            assert list(clipped.items()) == list(expected.items())
        assert stats.totals[n - 1] == sum(len(grams(h, n)) for h in hyps)
    assert stats.ref_counts == Counter(
        g for ref in refs for n in range(1, NIST_ORDER + 1) for g in grams(ref, n)
    )
    assert stats.hyp_length == sum(map(len, hyps))
    assert stats.ref_length == sum(map(len, refs))


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
