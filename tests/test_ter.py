"""Translation edit rate with block shifts."""

import random
import time
from functools import partial

import pytest
from hypothesis import assume, given, settings, strategies as st

from mtprep.metrics.ter import (
    EXACT_SEARCH_LIMIT,
    SentenceTer,
    _columns,
    _greedy_ter,
    _match_masks,
    _moves,
    _positions,
    edit_distance,
    sentence_ter,
    ter,
)

from oracles import (
    exhaustive_ter_edits,
    greedy_ter_oracle,
    levenshtein,
    shift_candidates,
    wer_oracle,
)

token_st = st.sampled_from("abcd")
sent_st = st.lists(token_st, min_size=1, max_size=6)
pair_st = st.lists(st.tuples(sent_st, sent_st), min_size=1, max_size=5)


# --- edit distance -----------------------------------------------------------

def test_edit_distance_basics():
    assert edit_distance(["a", "b"], ["a", "b"]) == 0
    assert edit_distance(["a"], ["a", "b"]) == 1
    assert edit_distance(["a", "b"], ["b"]) == 1
    assert edit_distance(["a"], ["b"]) == 1
    assert edit_distance([], ["a", "b"]) == 2
    assert edit_distance(["a", "b"], []) == 2
    assert edit_distance([], []) == 0
    # wider than one 64-bit word
    assert edit_distance(["a"] * 70, ["a"] * 69 + ["b"]) == 1
    assert edit_distance(["b"] + ["a"] * 69, ["a"] * 70) == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(token_st, max_size=80), st.lists(token_st, max_size=80))
def test_edit_distance_matches_oracle(a, b):
    # up to 80 tokens a side: masks wider than one 64-bit word, empty sides
    assert edit_distance(a, b) == levenshtein(a, b)


def _long_pair(alphabet):
    sent = st.lists(st.sampled_from(alphabet), min_size=60, max_size=140)
    return st.tuples(sent, sent)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["ab", "abcd"]).flatmap(_long_pair))
def test_edit_distance_matches_oracle_on_long_sentences(pair):
    # 60-140 tokens a side: columns on both sides of the 64-bit word
    # boundary, over alphabets small enough that most tokens match
    a, b = pair
    assert edit_distance(a, b) == levenshtein(a, b)


# --- shift moves -------------------------------------------------------------

@settings(max_examples=200)
@given(
    st.sampled_from(["ab", "abc"]).flatmap(
        lambda alphabet: st.tuples(
            st.lists(st.sampled_from(alphabet), max_size=12),
            st.lists(st.sampled_from(alphabet), max_size=12),
        )
    )
)
def test_moves_match_every_pair_enumeration(pair):
    # sides of different lengths include blocks whose landing position j is
    # past the end of what remains of the hypothesis
    hyp, ref = pair
    assert list(_moves(hyp, ref, _positions(ref))) == shift_candidates(hyp, ref)


# --- single sentences --------------------------------------------------------

def test_identity_needs_no_edits():
    result = sentence_ter(["a", "b", "c"], ["a", "b", "c"])
    assert result == SentenceTer(shifts=0, edits_after_shifts=0, ref_length=3)
    assert result.rate == 0.0


def test_one_shift_repairs_swapped_halves():
    # moving "c d" to the front costs one shift; plain edit distance is 4
    result = sentence_ter(["a", "b", "c", "d"], ["c", "d", "a", "b"])
    assert result.total_edits == 1
    assert (result.shifts, result.edits_after_shifts) == (1, 0)
    assert edit_distance(["a", "b", "c", "d"], ["c", "d", "a", "b"]) == 4


def test_shift_plus_substitutions():
    # frozen by hand: best plan is one shift and one substitution
    result = sentence_ter(["x", "a", "b", "y"], ["a", "y", "b", "x"])
    assert result.total_edits == 2


def test_greedy_trap_is_solved_exactly():
    # a greedy best-gain search that commits to its first equal-gain shift
    # lands on 3 edits here; the minimum is 2 (both sides are short enough
    # for the exact search)
    result = sentence_ter(["a", "c", "b", "d"], ["d", "c", "a", "b"])
    assert result.total_edits == 2


def test_shift_never_pays_when_edits_are_cheaper():
    result = sentence_ter(["a", "x"], ["a", "y"])
    assert (result.shifts, result.edits_after_shifts) == (0, 1)


def test_empty_hypothesis_costs_full_insertion():
    result = sentence_ter([], ["a", "b", "c"])
    assert result.total_edits == 3
    assert result.rate == 1.0


def test_empty_reference_is_refused():
    with pytest.raises(ValueError, match="^reference sentence is empty$"):
        sentence_ter(["a"], [])


def test_rate_can_exceed_one():
    result = sentence_ter(["x", "y", "z", "w"], ["a"])
    assert result.rate > 1.0


def test_long_sentences_fall_back_to_greedy():
    hyp = [f"t{i}" for i in range(EXACT_SEARCH_LIMIT + 1)]
    result = sentence_ter(hyp, list(reversed(hyp)))
    # still a valid edit plan, just not guaranteed minimal
    assert result.total_edits >= 1
    assert result.total_edits <= edit_distance(hyp, list(reversed(hyp)))


def test_snover_2006_example():
    # Snover et al. (2006), section 2: one shift ("this week") and three
    # edits (substitute "saudi" for "the", "arabia" for "saudis", and
    # insert "american") against 13 reference words
    hyp = "this week the saudis denied information published in the new york times"
    ref = ("saudi arabia denied this week information published in the american "
           "new york times")
    result = sentence_ter(hyp.split(), ref.split())
    assert result == SentenceTer(shifts=1, edits_after_shifts=3, ref_length=13)
    assert ter([hyp.split()], [ref.split()]).score == 4 / 13


@settings(max_examples=200, deadline=None)
@given(sent_st, sent_st)
def test_matches_exhaustive_search(hyp, ref):
    assert sentence_ter(hyp, ref).total_edits == exhaustive_ter_edits(hyp, ref)


@settings(max_examples=150)
@given(sent_st, sent_st)
def test_never_worse_than_plain_edit_distance(hyp, ref):
    # shifts are optional, so TER edits never exceed the shift-free cost
    assert sentence_ter(hyp, ref).total_edits <= edit_distance(hyp, ref)


@settings(max_examples=100)
@given(sent_st)
def test_permutations_cost_less_than_length(sent):
    # every permutation is repairable, and token identity is never edited
    rng = random.Random(11)
    hyp = rng.sample(sent, len(sent))
    assert sentence_ter(hyp, sent).total_edits <= len(sent)


def _greedy_pair(alphabet, max_size=30):
    sent = st.lists(st.sampled_from(alphabet), min_size=8, max_size=max_size)
    return st.tuples(sent, sent)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["ab", "abc"]).flatmap(_greedy_pair))
def test_greedy_matches_dp_oracle(pair):
    # small alphabets make many shifts tie and many moves land on the same
    # permutation, so tie order and candidate deduplication are exercised
    hyp, ref = pair
    result = sentence_ter(hyp, ref)
    assert (result.shifts, result.edits_after_shifts) == greedy_ter_oracle(hyp, ref)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["abcd", "abcdefgh"]).flatmap(partial(_greedy_pair, max_size=20))
)
def test_greedy_matches_dp_oracle_on_sparse_alphabets(pair):
    # 4-8 token types: about a tenth of the candidate moves leave the
    # edit-distance column as it was by the end of the moved span, so they
    # end at the current distance and the bound drops them by the last token
    hyp, ref = pair
    result = sentence_ter(hyp, ref)
    assert (result.shifts, result.edits_after_shifts) == greedy_ter_oracle(hyp, ref)


def _bound_case(size):
    tokens = st.sampled_from([f"t{k}" for k in range(size)])
    sent = st.lists(tokens, min_size=1, max_size=16)
    return st.tuples(sent, sent, st.lists(tokens, max_size=16))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 4, 50]).flatmap(_bound_case))
def test_greedy_bound_never_exceeds_distance(case):
    # greedy TER drops the candidate prefix + current[k:] once the last row
    # of its column, less the prefix tokens still to scan, less slack[k]
    # reaches the best; slack[k] = m - D(current[k:]) comes from a pass over
    # the reversed sentences
    current, ref, prefix = case
    m = len(ref)
    for k in range(len(current) + 1):
        slack = m - edit_distance(current[k:][::-1], ref[::-1])
        assert slack == m - levenshtein(current[k:], ref)
        whole = levenshtein(prefix + current[k:], ref)
        for scanned in range(len(prefix) + 1):
            left = len(prefix) - scanned
            assert edit_distance(prefix[:scanned], ref) - left - slack <= whole


@st.composite
def _edited_pair(draw):
    # eval-mixed-shaped: a reference of 8-24 tokens over 50 Zipf-weighted
    # types, and the hypothesis it becomes after block moves, substitutions,
    # and drops or insertions down to half or up to twice its length, so
    # that the length-difference floor and slack both come into play
    rng = draw(st.randoms(use_true_random=False))
    vocab = [f"w{k}" for k in range(50)]
    weights = [1 / (k + 1) for k in range(50)]
    ref = rng.choices(vocab, weights, k=rng.randint(8, 24))
    hyp = list(ref)
    for _ in range(rng.randint(1, 3)):
        length = rng.randint(1, 3)
        i = rng.randrange(len(hyp) - length + 1)
        block = hyp[i : i + length]
        del hyp[i : i + length]
        j = rng.randrange(len(hyp) + 1)
        hyp[j:j] = block
    for _ in range(rng.randint(0, len(hyp) // 4)):
        hyp[rng.randrange(len(hyp))] = rng.choices(vocab, weights)[0]
    target = max(1, round(len(ref) * rng.uniform(0.5, 2.0)))
    while len(hyp) > target:
        del hyp[rng.randrange(len(hyp))]
    while len(hyp) < target:
        hyp.insert(rng.randrange(len(hyp) + 1), rng.choices(vocab, weights)[0])
    return hyp, ref


@settings(max_examples=150, deadline=None)
@given(_edited_pair())
def test_greedy_matches_dp_oracle_on_edited_references(pair):
    hyp, ref = pair
    result = sentence_ter(hyp, ref)
    assert (result.shifts, result.edits_after_shifts) == greedy_ter_oracle(hyp, ref)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(token_st, max_size=80), st.lists(token_st, min_size=1, max_size=80), st.data()
)
def test_columns_resumed_from_any_column_match_a_fresh_pass(hyp, ref, data):
    # greedy TER keeps the columns before a shift's first changed position
    # and resumes the pass from the last one kept
    masks, m = _match_masks(ref), len(ref)
    eqs = [masks.get(tok, 0) for tok in hyp]
    full, top = (1 << m) - 1, 1 << (m - 1)
    fresh = _columns(eqs, full, top)
    k = data.draw(st.integers(0, len(hyp)))
    assert fresh[:k] + _columns(eqs[k:], full, top, fresh[k]) == fresh


@st.composite
def _multi_shift_pair(draw):
    # 16-40 reference tokens over 2, 4 or 50 types; the hypothesis is the
    # reference after two to four block moves and a substitution
    rng = draw(st.randoms(use_true_random=False))
    types = draw(st.sampled_from([2, 4, 50]))
    vocab = [f"t{k}" for k in range(types)]
    ref = rng.choices(vocab, k=rng.randint(16, 40))
    hyp = list(ref)
    for _ in range(rng.randint(2, 4)):
        length = rng.randint(1, 4)
        i = rng.randrange(len(hyp) - length + 1)
        block = hyp[i : i + length]
        del hyp[i : i + length]
        j = rng.randrange(len(hyp) + 1)
        hyp[j:j] = block
    hyp[rng.randrange(len(hyp))] = rng.choice(vocab)
    return hyp, ref


@settings(max_examples=15, deadline=None)
@given(_multi_shift_pair())
def test_greedy_with_resumed_columns_matches_dp_oracle(pair):
    # every step after the first scores candidates from the columns that the
    # shift before it resumed; the oracle recomputes every distance
    hyp, ref = pair
    result = _greedy_ter(hyp, ref)
    assume(result.shifts >= 2)
    assert (result.shifts, result.edits_after_shifts) == greedy_ter_oracle(hyp, ref)


_W = [f"w{k}" for k in range(20)]


@pytest.mark.parametrize(
    "hyp",
    [
        # first shift (0, 8, 2) starts at position 0 (lo == 0), then (14, 16, 2)
        _W[8:10] + _W[:8] + _W[10:14] + _W[16:18] + _W[14:16] + _W[18:],
        # first shift (10, 17, 3) ends at the last token (hi == n), then (0, 2, 2)
        _W[2:4] + _W[:2] + _W[4:10] + _W[17:] + _W[10:17],
    ],
)
def test_greedy_resumes_after_a_shift_at_either_end(hyp):
    assert greedy_ter_oracle(hyp, _W) == (2, 0)
    result = _greedy_ter(hyp, _W)
    assert (result.shifts, result.edits_after_shifts) == (2, 0)


def test_greedy_block_move_wider_than_one_word():
    # 70 distinct reference tokens: the match masks and columns span more
    # than 64 bits; the block ref[60:63] sits at the front of the hypothesis
    ref = [f"w{k}" for k in range(70)]
    hyp = ref[60:63] + ref[:60] + ref[63:]
    result = sentence_ter(hyp, ref)
    assert (result.shifts, result.edits_after_shifts) == (1, 0)


def _long_low_entropy_pairs():
    """Three seeded pairs longer than the other greedy tests': a 40-token
    reference over 2 and over 4 token types with a shuffled copy as the
    hypothesis, and a 100-token reference over 50 Zipf-weighted types with
    four block moves and ten substitutions."""
    rng = random.Random(17)
    pairs = []
    for alphabet in ("ab", "abcd"):
        ref = rng.choices(alphabet, k=40)
        pairs.append((rng.sample(ref, len(ref)), ref))
    vocab = [f"w{k}" for k in range(50)]
    weights = [1 / (k + 1) for k in range(50)]
    ref = rng.choices(vocab, weights, k=100)
    hyp = list(ref)
    for _ in range(4):
        length = rng.randint(2, 6)
        i = rng.randrange(len(hyp) - length)
        block = hyp[i : i + length]
        del hyp[i : i + length]
        j = rng.randrange(len(hyp) + 1)
        hyp[j:j] = block
    for _ in range(10):
        hyp[rng.randrange(len(hyp))] = rng.choices(vocab, weights)[0]
    pairs.append((hyp, ref))
    return pairs


def test_greedy_on_long_low_entropy_segments():
    # the values greedy_ter_oracle gives; it takes 3-45 s a pair, so it is
    # not run here
    results = [sentence_ter(hyp, ref) for hyp, ref in _long_low_entropy_pairs()]
    pinned = [(r.shifts, r.edits_after_shifts) for r in results]
    assert pinned == [(4, 2), (6, 9), (8, 9)]


def test_greedy_speed_floor():
    # 20 seeded 30-token pairs: the reference with three block moves and four
    # substitutions.  About 0.12 s on a 2-vCPU x86-64 box with the bounded
    # greedy search, 0.4 s with the bit-parallel distance alone and 7 s with
    # a Python DP; the budget is 10x the bit-parallel time.
    rng = random.Random(2016)
    vocab = [f"w{k}" for k in range(6)]
    pairs = []
    for _ in range(20):
        ref = [rng.choice(vocab) for _ in range(30)]
        hyp = list(ref)
        for _ in range(3):
            length = rng.randint(2, 4)
            i = rng.randrange(len(hyp) - length)
            block = hyp[i : i + length]
            del hyp[i : i + length]
            j = rng.randrange(len(hyp) + 1)
            hyp[j:j] = block
        for _ in range(4):
            hyp[rng.randrange(len(hyp))] = rng.choice(vocab)
        pairs.append((hyp, ref))
    start = time.perf_counter()
    results = [sentence_ter(hyp, ref) for hyp, ref in pairs]
    elapsed = time.perf_counter() - start
    assert sum(r.shifts for r in results) == 79
    assert sum(r.edits_after_shifts for r in results) == 74
    assert elapsed < 4.0, f"20 greedy TER pairs took {elapsed:.2f} s"


# --- corpus level ------------------------------------------------------------

def test_corpus_pools_edits_over_reference_length():
    hyps = [["a", "b", "c", "d"], ["a", "x"]]
    refs = [["c", "d", "a", "b"], ["a", "y"]]
    result = ter(hyps, refs)
    assert result.total_edits == 2
    assert result.total_shifts == 1
    assert result.ref_length == 6
    assert result.score == pytest.approx(2.0 / 6.0)
    assert len(result.sentences) == 2


def test_corpus_rejects_empty_reference_sentence():
    with pytest.raises(ValueError):
        ter([["a"], ["b"]], [["a"], []])


def test_corpus_rejects_length_mismatch():
    with pytest.raises(ValueError):
        ter([["a"]], [])


@settings(max_examples=60)
@given(pair_st)
def test_ter_never_exceeds_wer(pairs):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    assert ter(hyps, refs).score <= wer_oracle(hyps, refs) + 1e-12
