"""Translation edit rate with block shifts."""

import importlib
import random
import time
import tracemalloc
from functools import partial
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

from mtprep.corpus import read_token_corpus
from mtprep.metrics.ter import (
    EXACT_SEARCH_LIMIT,
    PACK_LANES,
    SentenceTer,
    _columns,
    _greedy_ter,
    _lane_counts,
    _lanes,
    _match_masks,
    _packs,
    _positions,
    edit_distance,
    sentence_ter,
    ter,
)

from oracles import (
    apply_shift,
    exhaustive_ter_edits,
    greedy_ter_oracle,
    greedy_ter_scalar,
    levenshtein,
    shift_candidates,
    wer_oracle,
)

# the module, which the package's ter() shadows as mtprep.metrics.ter
ter_module = importlib.import_module("mtprep.metrics.ter")

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
    # past the end of what remains of the hypothesis; under a limit no bound
    # reaches, the packs read by plain iteration are every move, in order
    hyp, ref = pair
    # an empty reference has no moves, and no columns to bound them by
    columns, backward = _scan_inputs(hyp, ref) if ref else ([], [])
    limit = len(hyp) + 2 * len(ref) + 1
    packs = _packs(hyp, ref, _positions(ref), columns, backward, limit)
    moves = [move for pack in packs for move in pack]
    _assert_moves(hyp, moves, shift_candidates(hyp, ref))


def _scan_inputs(hyp, ref):
    """The columns _greedy_ter keeps for hyp before its first shift: forward,
    and over the reversed sentences."""
    masks, back = _match_masks(ref), _match_masks(ref[::-1])
    full, top = (1 << len(ref)) - 1, 1 << (len(ref) - 1)
    columns = _columns([masks.get(tok, 0) for tok in hyp], full, top)
    backward = _columns([back.get(tok, 0) for tok in reversed(hyp)], full, top)
    return columns, backward


def _span(n, i, j, length):
    """The positions [lo, hi) of an n-token hypothesis that the move
    (i, j, length) changes."""
    return (j, i + length) if j < i else (i, min(j + length, n))


def _assert_moves(hyp, moves, candidates):
    # one rotation (lo, mid, hi) per oracle move (i, j, length), in order:
    # it spans the move's changed positions and rotates hyp into its shift
    assert len(moves) == len(candidates)
    for (lo, mid, hi), (i, j, length) in zip(moves, candidates):
        assert (lo, hi) == _span(len(hyp), i, j, length)
        rotated = hyp[:lo] + hyp[mid:hi] + hyp[lo:mid] + hyp[hi:]
        assert rotated == apply_shift(hyp, i, j, length)


_scan_pair = st.sampled_from(["ab", "abc"]).flatmap(
    lambda alphabet: st.tuples(
        st.lists(st.sampled_from(alphabet), max_size=12),
        st.lists(st.sampled_from(alphabet), min_size=1, max_size=12),
    )
)


@settings(max_examples=100)
@given(_scan_pair)
def test_packs_with_no_bound_are_the_moves_in_order(pair):
    # no bound reaches len(hyp) + 2 * len(ref): the scan keeps every move
    hyp, ref = pair
    limit = len(hyp) + 2 * len(ref) + 1
    packs = _packs(hyp, ref, _positions(ref), *_scan_inputs(hyp, ref), limit)
    scanned = [next(packs)]
    while len(scanned[-1]) == PACK_LANES:
        scanned.append(packs.send(limit))
    moves = [move for pack in scanned for move in pack]
    _assert_moves(hyp, moves, shift_candidates(hyp, ref))


@settings(max_examples=200, deadline=None)
@given(_scan_pair, st.integers(1, 4), st.data())
def test_packs_are_the_moves_the_bound_keeps(pair, lanes, data):
    # in packs of 1-4 lanes, with a lower limit sent after each full pack:
    # a pack is the next moves in (i, j, length) lexicographic order whose
    # bound, as _packs states it, is below the limit in force
    hyp, ref = pair
    n, m = len(hyp), len(ref)
    columns, backward = _scan_inputs(hyp, ref)

    def bound(i, j, length):
        lo, hi = _span(n, i, j, length)
        return columns[lo][2] + backward[n - hi][2] - (hi - lo)

    limit = data.draw(st.integers(0, n + 2 * m + 1))
    with patch.object(ter_module, "PACK_LANES", lanes):
        packs = _packs(hyp, ref, _positions(ref), columns, backward, limit)
        pack, kept = next(packs), []
        for move in shift_candidates(hyp, ref):
            if bound(*move) < limit:
                kept.append(move)
                if len(kept) == lanes:
                    _assert_moves(hyp, pack, kept)
                    limit = data.draw(st.integers(0, limit))
                    pack, kept = packs.send(limit), []
        _assert_moves(hyp, pack, kept)


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


@settings(max_examples=800, deadline=None)
@given(sent_st, sent_st, st.sampled_from([PACK_LANES, 1, 2, 3]))
def test_matches_exhaustive_search(hyp, ref, lanes):
    # exact search reads _packs by plain iteration, so a full pack must keep
    # the limit in force: also in packs of 1-3 lanes
    with patch.object(ter_module, "PACK_LANES", lanes):
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


_any_greedy_pair = st.one_of(
    st.sampled_from(["ab", "abc"]).flatmap(_greedy_pair),
    st.sampled_from(["abcd", "abcdefgh"]).flatmap(partial(_greedy_pair, max_size=20)),
    _edited_pair(),
)


@settings(max_examples=100, deadline=None)
@given(_any_greedy_pair)
def test_scalar_greedy_matches_dp_oracle(pair):
    # greedy_ter_scalar stands in for the DP oracle on long segments, where
    # that takes seconds a pair; it must agree with it where both run
    hyp, ref = pair
    assert greedy_ter_scalar(hyp, ref) == greedy_ter_oracle(hyp, ref)


@pytest.mark.parametrize("lanes", [1, 2, 3])
@settings(max_examples=40, deadline=None)
@given(_any_greedy_pair)
def test_greedy_in_small_packs_matches_dp_oracle(lanes, pair):
    # packs of 1-3 lanes fill on every step, so each step scores full packs,
    # sends the scan a new limit after each and may stop at the floor
    # between them; the winner must still be the first minimum, ties included
    hyp, ref = pair
    with patch.object(ter_module, "PACK_LANES", lanes):
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


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 70, 119, 120, 130]),
    st.data(),
)
def test_lanes_match_columns(m, data):
    # greedy TER scores a step's candidates as the fields of one int, all
    # resumed from one stored column; each field must be the column that
    # _columns reaches over that lane alone, and its last row must read back
    # from the counts (in C up to 15 bytes a field, per lane from 16)
    full, top, size = (1 << m) - 1, 1 << (m - 1), m // 8 + 1
    masks = st.integers(0, full)
    prefix = data.draw(st.lists(masks, max_size=6))
    start = _columns(prefix, full, top)[-1]
    length = data.draw(st.integers(0, 12))
    seqs = data.draw(
        st.lists(st.lists(masks, min_size=length, max_size=length), min_size=1, max_size=9)
    )
    lanes = [[eq.to_bytes(size, "little") for eq in seq] for seq in seqs]
    vp, vn = _lanes(start, lanes, size, full)
    counts = _lane_counts(vp, vn, len(seqs), size)
    field = (1 << (8 * size)) - 1
    for k, seq in enumerate(seqs):
        last = _columns(seq, full, top, start)[-1]
        shift = 8 * size * k
        assert (vp >> shift & field, vn >> shift & field) == last[:2]
        assert len(prefix) + length + counts[k] - 8 * size == last[2]
    # a one-lane pack is _columns' last column
    one = _lanes(start, lanes[:1], size, full)
    last = _columns(seqs[0], full, top, start)[-1]
    assert (*one, len(prefix) + length + _lane_counts(*one, 1, size)[0] - 8 * size) == last


@pytest.mark.parametrize("m", [7, 15, 63, 119, 127])
def test_lanes_carry_through_the_one_spare_bit(m):
    # a field of size * 8 == m + 1 bits has one spare bit.  An all-match
    # position (eq == full) carries (eq & vp) + vp into it, and ph's spare
    # bit then shifts onto the next field's row 0; all-miss positions
    # (eq == 0) turn the column the other way.  119 bits a field take
    # _lane_counts' path in C, 127 its per-lane path.
    full, top, size = (1 << m) - 1, 1 << (m - 1), m // 8 + 1
    assert size * 8 == m + 1
    length = m + 5
    half = length // 2
    seqs = [
        [full] * length,
        [0] * length,
        [full] * half + [0] * (length - half),
        [0] * half + [full] * (length - half),
        [full] * length,
    ]
    lanes = [[eq.to_bytes(size, "little") for eq in seq] for seq in seqs]
    field = (1 << (8 * size)) - 1
    for prefix in ([], [full] * 3, [0] * 3):
        start = _columns(prefix, full, top)[-1]
        vp, vn = _lanes(start, lanes, size, full)
        counts = _lane_counts(vp, vn, len(seqs), size)
        for k, seq in enumerate(seqs):
            last = _columns(seq, full, top, start)[-1]
            shift = 8 * size * k
            assert (vp >> shift & field, vn >> shift & field) == last[:2]
            assert len(prefix) + length + counts[k] - 8 * size == last[2]


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


@st.composite
def _long_shift_pair(draw):
    # 40-120 reference tokens over 2, 4 or 50 types; the hypothesis is the
    # reference after two to six block moves of up to six tokens and up to
    # a tenth of its tokens substituted
    rng = draw(st.randoms(use_true_random=False))
    vocab = [f"t{k}" for k in range(draw(st.sampled_from([2, 4, 50])))]
    ref = rng.choices(vocab, k=draw(st.integers(40, 120)))
    hyp = list(ref)
    for _ in range(rng.randint(2, 6)):
        length = rng.randint(1, 6)
        i = rng.randrange(len(hyp) - length + 1)
        block = hyp[i : i + length]
        del hyp[i : i + length]
        j = rng.randrange(len(hyp) + 1)
        hyp[j:j] = block
    for _ in range(rng.randint(0, len(hyp) // 10)):
        hyp[rng.randrange(len(hyp))] = rng.choice(vocab)
    return hyp, ref


@settings(max_examples=5, deadline=None)
@given(_long_shift_pair())
def test_greedy_matches_scalar_search_on_long_segments(pair):
    # steps with hundreds of candidates, several packs of lanes each, and
    # lane fields of 6 to 16 bytes; greedy_ter_scalar scores one candidate
    # at a time and is checked against the DP oracle above
    hyp, ref = pair
    result = _greedy_ter(hyp, ref)
    assert (result.shifts, result.edits_after_shifts) == greedy_ter_scalar(hyp, ref)


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


def cliff_pairs():
    """Three seeded pairs on which greedy TER took seconds when it scored
    one candidate at a time: a shuffled copy of a 100-token reference over
    2 and over 4 token types, and a 200-token reference over 2,000
    Zipf-weighted types after 20 block moves of 1-3 tokens and 20
    substitutions."""
    pairs = []
    for alphabet in ("ab", "abcd"):
        rng = random.Random(1)
        ref = rng.choices(alphabet, k=100)
        pairs.append((rng.sample(ref, len(ref)), ref))
    rng = random.Random(1)
    vocab = [f"w{k}" for k in range(2000)]
    weights = [1 / (k + 1) for k in range(2000)]
    ref = rng.choices(vocab, weights, k=200)
    hyp = list(ref)
    for _ in range(20):
        length = rng.randint(1, 3)
        i = rng.randrange(len(hyp) - length + 1)
        block = hyp[i : i + length]
        del hyp[i : i + length]
        j = rng.randrange(len(hyp) + 1)
        hyp[j:j] = block
    for _ in range(20):
        hyp[rng.randrange(len(hyp))] = rng.choices(vocab, weights)[0]
    pairs.append((hyp, ref))
    return pairs


@pytest.fixture
def lane_work(monkeypatch):
    """[lanes scored, lane-positions] over the _lanes calls the test makes:
    a count of greedy TER's work that host load cannot move."""
    work = [0, 0]

    def counting(start, lanes, size, full):
        work[0] += len(lanes)
        work[1] += len(lanes) * len(lanes[0])
        return _lanes(start, lanes, size, full)

    monkeypatch.setattr(ter_module, "_lanes", counting)
    return work


# [lanes scored, lane-positions] of each cliff pair; a change that scores
# fewer lowers them
CLIFF_LANE_WORK = [[77_111, 7_694_911], [77_512, 7_741_804], [40_041, 7_994_076]]


def test_greedy_on_cliff_segments(lane_work):
    # the values greedy_ter_scalar gives (7, 2 and 4 s a pair on a 2-vCPU
    # x86-64 box, so it is not run here)
    results, work = [], []
    for hyp, ref in cliff_pairs():
        lane_work[:] = [0, 0]
        results.append(sentence_ter(hyp, ref))
        work.append(list(lane_work))
    pinned = [(r.shifts, r.edits_after_shifts) for r in results]
    assert pinned == [(7, 14), (23, 11), (31, 13)]
    for got, most in zip(work, CLIFF_LANE_WORK):
        assert got[0] <= most[0] and got[1] <= most[1], (got, most)


def test_greedy_lane_work_on_the_seed_1_eval_mixed_segments(
    lane_work, monkeypatch, tmp_path
):
    # the benchmark's own generator, which only writes files under tmp_path
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    from workloads import prepare_eval

    prepare_eval(1, "full", tmp_path)
    hyps, refs = (read_token_corpus(tmp_path / f"{n}.txt") for n in ("hyp", "ref"))
    greedy = [(h, r) for h, r in zip(hyps, refs) if max(len(h), len(r)) > EXACT_SEARCH_LIMIT]
    for hyp, ref in greedy:
        sentence_ter(hyp, ref)
    assert len(greedy) == 288
    assert lane_work[0] <= 17_929 and lane_work[1] <= 354_487, lane_work


def test_exact_search_work_on_the_seed_1_eval_mixed_segments(monkeypatch, tmp_path):
    # [passes, tokens] over the _columns calls exact search makes: one pass
    # per distance of a state it reaches, and none for the moves of a state,
    # which _packs reads over columns of zeros
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    from workloads import prepare_eval

    prepare_eval(1, "full", tmp_path)
    hyps, refs = (read_token_corpus(tmp_path / f"{n}.txt") for n in ("hyp", "ref"))
    work = [0, 0]

    def counting(*args):
        columns = _columns(*args)
        work[0] += 1
        work[1] += len(columns) - 1
        return columns

    monkeypatch.setattr(ter_module, "_columns", counting)
    exact = [(h, r) for h, r in zip(hyps, refs) if max(len(h), len(r)) <= EXACT_SEARCH_LIMIT]
    results = [sentence_ter(hyp, ref) for hyp, ref in exact]
    assert len(exact) == 72
    assert sum(r.shifts for r in results) == 65
    assert sum(r.edits_after_shifts for r in results) == 34
    assert work[0] <= 388 and work[1] <= 2_049, work


def test_greedy_memory_is_bounded_on_a_hostile_segment():
    # a 2-token 100-token pair has steps of about 10,000 candidates; packed
    # all at once their lanes peak at about 18 MB, in packs of PACK_LANES
    # at about 0.5 MB
    hyp, ref = cliff_pairs()[0]
    tracemalloc.start()
    try:
        result = sentence_ter(hyp, ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.shifts, result.edits_after_shifts) == (7, 14)
    assert peak < 4_000_000, f"greedy TER peaked at {peak / 1e6:.1f} MB"


def test_greedy_speed_floor():
    # 20 seeded 30-token pairs: the reference with three block moves and four
    # substitutions.  About 0.03 s on a 2-vCPU x86-64 box with each step's
    # candidates scored in lanes of one int, 0.1 s scoring them one at a
    # time with the bound, 0.4 s with the bit-parallel distance alone and 7 s
    # with a Python DP; the budget is 10x the bit-parallel time.
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
