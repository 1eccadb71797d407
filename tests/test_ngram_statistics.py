"""The one n-gram counting pass that BLEU and NIST read from."""

import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from mtprep.metrics import bleu, evaluate, nist
from mtprep.metrics.bleu import bleu_from_statistics
from mtprep.metrics.common import ngram_statistics

token_st = st.sampled_from("ab")
pair_st = st.lists(
    st.tuples(st.lists(token_st, max_size=8), st.lists(token_st, min_size=1, max_size=8)),
    min_size=1,
    max_size=5,
)


def grams(tokens, n):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


@settings(max_examples=100)
@given(pair_st.filter(lambda pairs: any(h for h, _ in pairs)), st.integers(1, 6))
def test_statistics_match_brute_force(pairs, max_n):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    stats = ngram_statistics(hyps, refs, max_n)
    assert len(stats.clipped) == len(stats.totals) == max_n
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
        g for ref in refs for n in range(1, max_n + 1) for g in grams(ref, n)
    )
    assert stats.hyp_length == sum(map(len, hyps))
    assert stats.ref_length == sum(map(len, refs))


@pytest.mark.parametrize(
    "hyps, refs, max_n, message",
    [
        # corpus checks come first, then max_n, then the token count
        ([[]], [["a"], ["b"]], 0, "1 sentences, reference has 2"),
        ([], [], 0, "empty corpus"),
        ([[]], [[]], 0, "reference sentence 1 is empty"),
        ([[]], [["a"]], 0, "max_n must be >= 1"),
        ([[]], [["a"]], 1, "no tokens"),
    ],
)
def test_checks_run_in_order(hyps, refs, max_n, message):
    with pytest.raises(ValueError, match=message):
        ngram_statistics(hyps, refs, max_n)


@settings(max_examples=100)
@given(pair_st.filter(lambda pairs: any(h for h, _ in pairs)))
def test_evaluate_shares_one_pass_with_unchanged_scores(pairs):
    # evaluate counts once up to order 5; BLEU reads orders 1-4 of it
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    report = evaluate(hyps, refs)
    assert repr(report.bleu_detail) == repr(bleu(hyps, refs))
    assert repr(report.nist_detail) == repr(nist(hyps, refs))


@pytest.mark.parametrize("max_n", [0, 4])
def test_bleu_reads_only_counted_orders(max_n):
    stats = ngram_statistics([["a", "b"]], [["a", "b"]], 3)
    with pytest.raises(ValueError, match=r"max_n must be in 1\.\.3"):
        bleu_from_statistics(stats, max_n)


@pytest.mark.parametrize(
    "hyps, refs", [([[]], [["a"], ["b"]]), ([], []), ([["a"]], [[]]), ([[]], [["a"]])]
)
def test_evaluate_fails_like_bleu(hyps, refs):
    with pytest.raises(ValueError) as from_bleu:
        bleu(hyps, refs)
    with pytest.raises(ValueError, match=f"^{re.escape(str(from_bleu.value))}$"):
        evaluate(hyps, refs)
