"""EM-trained lexical table, Viterbi linking, and alignment F1."""

import hashlib
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from mtprep import aligner
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
from mtprep.synth import build_benchmark
from oracles import (
    em_oracle,
    format_alignment_oracle,
    parse_alignment_oracle,
    table_rows_oracle,
    viterbi_oracle,
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


def test_log_likelihood_is_measured_before_each_m_step():
    # the uniform start gives each of the three target words probability
    # 1/2; the first M-step then moves t(x|a) to 3/4 (see above)
    table = train_em(SRC, TGT, iterations=2)
    first, second = table.log_likelihoods
    assert first == pytest.approx(3 * math.log(0.5))
    assert second == pytest.approx(
        math.log((0.75 + 0.5) / 2) + math.log((0.25 + 0.5) / 2) + math.log(0.75)
    )
    assert train_em(SRC, TGT, iterations=1).log_likelihoods == (first,)


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


class Untouchable:
    """A corpus that fails the test if training reads it."""

    def __iter__(self):
        raise AssertionError("iterated")

    def __len__(self):
        raise AssertionError("measured")


@pytest.mark.parametrize("iterations", [True, 2.5, "5", None])
def test_rejects_iterations_that_are_not_an_int_before_any_work(iterations):
    message = f"iterations must be an int, not {iterations!r}"
    with pytest.raises(TypeError, match=message):
        train_em(Untouchable(), Untouchable(), iterations=iterations)


@pytest.mark.parametrize("null_word", ["no", 1, None])
def test_rejects_a_null_word_that_is_not_a_bool_before_any_work(null_word):
    message = re.escape(f"null_word must be a bool, not {null_word!r}")
    with pytest.raises(TypeError, match=f"^{message}$"):
        train_em(Untouchable(), Untouchable(), null_word=null_word)


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


# small alphabets give repeated words, empty sides and ties from the uniform start
alphabet_st = st.integers(2, 4)


@st.composite
def small_parallel_st(draw):
    size = draw(alphabet_st)
    src_words = st.sampled_from("abcd"[:size])
    tgt_words = st.sampled_from("WXYZ"[:size])
    return draw(st.lists(
        st.tuples(
            st.lists(src_words, max_size=6), st.lists(tgt_words, max_size=6)
        ),
        min_size=1, max_size=8,
    ))


@settings(max_examples=150, deadline=None)
@given(small_parallel_st(), st.booleans(), st.integers(1, 5))
def test_em_and_viterbi_match_the_oracle_exactly(pairs, null_word, iterations):
    src = [s for s, _ in pairs]
    tgt = [t for _, t in pairs]
    if not any(s and t for s, t in pairs):
        with pytest.raises(ValueError):
            train_em(src, tgt, iterations=iterations, null_word=null_word)
        return
    table = train_em(src, tgt, iterations=iterations, null_word=null_word)
    probs, history = em_oracle(src, tgt, iterations, null_word)
    assert table.log_likelihoods == history
    assert table.probs == probs
    assert align_corpus(src, tgt, table) == [
        viterbi_oracle(s, t, probs, null_word) for s, t in zip(src, tgt)
    ]


@pytest.mark.parametrize("null_word", [False, True])
def test_a_cell_that_underflows_leaves_the_row_as_in_the_oracle(null_word):
    # t(y|a) underflows to 0.0 between 1,050 and 1,100 iterations, and the
    # M-step after that drops it from a's row
    src = [["a"], ["a", "b"], ["b", "c"]]
    tgt = [["x"], ["x", "y"], ["y", "z"]]
    table = train_em(src, tgt, iterations=1100, null_word=null_word)
    probs, history = em_oracle(src, tgt, 1100, null_word)
    assert table.log_likelihoods == history
    assert table.probs == probs
    if not null_word:
        before = train_em(src, tgt, iterations=1050)
        assert sum(map(len, before.probs.values())) == 7
        assert sum(map(len, table.probs.values())) == 6
        assert list(table.probs["a"]) == ["x"]


@pytest.mark.parametrize("side", ["fused", "split"])
@pytest.mark.parametrize("null_word", [False, True])
def test_table_values_and_key_order_on_the_synthetic_corpus(side, null_word):
    bench = build_benchmark(300)
    src = getattr(bench, f"src_{side}")
    table = train_em(src, bench.tgt, iterations=5, null_word=null_word)
    probs, history = em_oracle(src, bench.tgt, 5, null_word)
    assert table.log_likelihoods == history
    assert table.probs == probs
    # first seen: sentence pairs in order, then target positions in order
    seen: dict[str, list[str]] = {}
    for s_sent, t_sent in zip(src, bench.tgt):
        if not (s_sent and t_sent):
            continue
        for s in ([NULL_TOKEN] if null_word else []) + s_sent:
            row = seen.setdefault(s, [])
            for t in t_sent:
                if t not in row:
                    row.append(t)
    assert list(table.probs) == list(seen)
    for s, row in table.probs.items():
        assert list(row) == [t for t in seen[s] if t in probs[s]]


# Every log-likelihood (as float.hex) and a sha256 over every
# f"{s}\t{t}\t{p.hex()}\n" in table order, after 5 iterations on
# build_benchmark(sentences=2000, seed=1).  The table is pure + and /, so
# its bits do not depend on libm.
EM_PINS = {
    ("src_fused", False): (
        ("-0x1.03fb6def0c852p+16", "-0x1.d42583a79e217p+15",
         "-0x1.a218e8a99ff84p+15", "-0x1.839e503f258a9p+15",
         "-0x1.75c35dd341236p+15"),
        "933e57da8f55982b794601e07fe0ffa7a8b64578c089a23cabfdcff6eff71ec6",
    ),
    ("src_fused", True): (
        ("-0x1.0a63006ee134bp+16", "-0x1.e4efd5ca92245p+15",
         "-0x1.b51fc9d3094f3p+15", "-0x1.97cc939cec7a1p+15",
         "-0x1.8a685ee6c280fp+15"),
        "92c2c52320108f1fb92e1c23d9128d39b109211a4a0c4702e36db2b4f19d9408",
    ),
    ("src_split", False): (
        ("-0x1.3ef64250e022bp+16", "-0x1.1db11fb5ab472p+16",
         "-0x1.c344672cf4c0bp+15", "-0x1.7a76b137e599bp+15",
         "-0x1.676308325d6d4p+15"),
        "f9ffa2d72d0fa831a80b661869282dd4df43a230740f260b38ff2b52eee08eda",
    ),
    ("src_split", True): (
        ("-0x1.3ef64250e022bp+16", "-0x1.2055218ddb484p+16",
         "-0x1.cdbacedecf41ap+15", "-0x1.8659755f5ab89p+15",
         "-0x1.737db7d3e4cf3p+15"),
        "ba45a265376bd72a96657cbbec0f0df0872978b64b630b88e58ac8a6cd1d3039",
    ),
}


@pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="sum() of floats is compensated from Python 3.12 on, so EM's "
    "bits differ there until ROADMAP item 7 sums left to right",
)
def test_em_bits_are_pinned_on_the_synthetic_corpus():
    bench = build_benchmark(sentences=2000, seed=1)
    for (side, null_word), (history, digest) in EM_PINS.items():
        table = train_em(getattr(bench, side), bench.tgt, 5, null_word=null_word)
        assert tuple(x.hex() for x in table.log_likelihoods) == history, (side, null_word)
        sha = hashlib.sha256()
        for s, row in table.probs.items():
            for t, p in row.items():
                sha.update(f"{s}\t{t}\t{p.hex()}\n".encode())
        assert sha.hexdigest() == digest, (side, null_word)


def test_table_key_order_does_not_depend_on_the_hash_seed():
    script = (
        "from mtprep.aligner import train_em\n"
        "src = [s.split() for s in ['kal wo mi', 'ra kal sen', 'mi ra', "
        "'sen tu wo kal', 'tu']]\n"
        "tgt = [t.split() for t in ['KAL WO MI', 'RA KAL SEN', 'MI RA', "
        "'SEN TU WO KAL', 'TU']]\n"
        "table = train_em(src, tgt, iterations=3, null_word=True)\n"
        "print([(s, list(row.items())) for s, row in table.probs.items()])\n"
    )
    outputs = [
        subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("[('<null>', [('KAL'")


@st.composite
def flat_table_st(draw):
    """train_em's flat cells: distinct source words, each with a run of
    distinct targets, a t(t|s) per cell, and some cells dropped (mapped to
    their source word)."""
    sources = draw(st.lists(st.text("abc", max_size=3), unique=True, max_size=6))
    runs, targets = [], []
    for _ in sources:
        row = draw(st.lists(st.sampled_from("WXYZ"), min_size=1, max_size=4, unique=True))
        runs.append((len(targets), len(targets) + len(row)))
        targets += row
    p = draw(st.lists(st.floats(0.0, 1.0), min_size=len(targets), max_size=len(targets)))
    cells = st.sampled_from(range(len(targets))) if targets else st.nothing()
    owner = {c: s for s, (lo, hi) in zip(sources, runs) for c in range(lo, hi)}
    dropped = {c: owner[c] for c in draw(st.sets(cells))}
    return sources, runs, targets, p, dropped


@settings(max_examples=200)
@given(flat_table_st())
def test_table_rows_match_the_per_cell_oracle(flat):
    rows = aligner._rows(*flat)
    want = table_rows_oracle(*flat)
    assert rows == want
    assert list(rows) == list(want)
    assert [list(row.items()) for row in rows.values()] == [
        list(row.items()) for row in want.values()
    ]


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


def test_null_word_wins_a_tie_with_a_real_source():
    table = TranslationTable({NULL_TOKEN: {"x": 0.5}, "a": {"x": 0.5}}, has_null=True)
    assert viterbi_align(["a"], ["x"], table) == set()
    # trained: t(x|null) = t(x|a) = 1 from the uniform start, and stays so
    trained = train_em([["a"]], [["x"]], iterations=3, null_word=True)
    assert trained.prob(NULL_TOKEN, "x") == trained.prob("a", "x")
    assert viterbi_align(["a"], ["x"], trained) == set()


def test_unknown_target_without_null_takes_leftmost():
    # degenerate but defined: all probabilities are zero, argmax is position 0
    table = train_em(SRC, TGT, iterations=3)
    assert viterbi_align(["a", "b"], ["unseen"], table) == {(0, 0)}


def test_align_corpus_shape():
    table = train_em(SRC, TGT, iterations=3)
    assert align_corpus(SRC, TGT, table) == [{(0, 0), (1, 1)}, {(0, 0)}]


def test_empty_corpus_aligns_to_nothing_but_cannot_train():
    table = train_em(SRC, TGT, iterations=3)
    assert align_corpus([], [], table) == []
    with pytest.raises(ValueError, match="^cannot train on an empty corpus$"):
        train_em([], [])
    with pytest.raises(ValueError, match="^source corpus has 0 sentences, target has 1$"):
        align_corpus([], [["x"]], table)


@pytest.mark.parametrize("side", ["fused", "split"])
def test_align_corpus_shares_one_link_per_distinct_pair(side):
    # the split side's table has fewer cells than the corpus has target
    # tokens, so align_corpus reads each target word's best source word off
    # _best_sources; the fused side's has more, so it reads every column
    bench = build_benchmark(sentences=2000, seed=1)
    src = getattr(bench, f"src_{side}")
    table = train_em(src, bench.tgt, iterations=1)
    alignments = align_corpus(src, bench.tgt, table)
    assert alignments == [viterbi_align(s, t, table) for s, t in zip(src, bench.tgt)]
    links = [link for pair in alignments for link in pair]
    assert len(set(map(id, links))) == len(set(links)) < len(links)


# table values with ties, zeros, values below the 0.0 a missing cell reads,
# infinities and NaNs
value_st = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, -1.0, math.inf, math.nan]),
    st.floats(allow_nan=True),
)


@st.composite
def any_table_st(draw):
    has_null = draw(st.booleans())
    sources = draw(st.lists(st.sampled_from("abcd"), unique=True))
    if has_null:
        sources.append(NULL_TOKEN)
    rows = st.dictionaries(st.sampled_from("WXYZ"), value_st, max_size=4)
    return TranslationTable({s: draw(rows) for s in sources}, has_null=has_null)


@settings(max_examples=300)
@given(
    any_table_st(),
    st.lists(st.tuples(st.lists(st.sampled_from("abcde")), st.lists(st.sampled_from("WXYZV"))), max_size=4),
)
def test_best_sources_give_the_slot_the_column_gives(table, pairs):
    best = aligner._best_sources(table.probs)
    for src, tgt in pairs:
        assert aligner._viterbi(src, tgt, table, best) == viterbi_align(src, tgt, table)


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
    # an index one digit past int()'s limit, where this Python has a limit
    limit = getattr(sys, "get_int_max_str_digits", int)()
    too_long = ["0-" + "1" * (limit + 1)] if limit else []
    for bad in [
        "0", "0-", "-1", "a-1", "0-1-2", "0:1", "\u0661-\u0660", "\u00b2-1", *too_long
    ]:
        with pytest.raises(ValueError):
            parse_alignment(bad)


@settings(max_examples=60)
@given(st.sets(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=12))
def test_format_parse_round_trip_property(links):
    assert parse_alignment(format_alignment(links)) == links


# a few links with ints of any size, or more distinct ones than the text
# cache holds
links_st = st.one_of(
    st.sets(st.tuples(st.integers(), st.integers()), max_size=12),
    st.builds(
        lambda base, n, m: {(base + k, k % m) for k in range(n)},
        st.integers(), st.integers(0, aligner._LINK_CACHE_SIZE + 100), st.integers(1, 50),
    ),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(links_st, min_size=1, max_size=4))
def test_format_matches_the_uncached_oracle(lines):
    # whatever earlier lines left in the cache
    for links in lines:
        assert format_alignment(links) == format_alignment_oracle(links)


def test_format_gives_each_index_type_its_own_text():
    assert format_alignment({(1, 0)}) == "1-0"
    assert format_alignment({(True, 0)}) == "True-0"
    assert format_alignment({(1.0, 0)}) == "1.0-0"


# well-formed pairs, a zero-padded one, and malformed ones
pair_st = st.sampled_from([
    "0-0", "0-1", "1-0", "12-3", "01-2", "0-01", "7-7",
    "0", "0-", "-1", "a-1", "0-1-2", "0:1", "\u0661-\u0660", "\u00b2-1",
])
gold_line_st = st.lists(pair_st, max_size=8).map(" ".join)


def _parsed(parse, line):
    try:
        return parse(line)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200)
@given(st.lists(gold_line_st, min_size=1, max_size=4))
def test_parse_matches_the_per_pair_oracle(lines):
    # the same links, or the same message, as parsing every pair on its own,
    # whatever earlier lines left in the cache
    for line in lines:
        assert _parsed(parse_alignment, line) == _parsed(parse_alignment_oracle, line)


def test_parse_shares_one_link_per_distinct_pair_text():
    (first,), (second,) = parse_alignment("3-4"), parse_alignment("0-0 3-4") - {(0, 0)}
    assert first == (3, 4) and first is second


def test_a_malformed_pair_raises_after_good_pairs_were_cached():
    assert parse_alignment("0-0 1-1") == {(0, 0), (1, 1)}
    for _ in range(2):  # a failure is not cached: it raises again
        with pytest.raises(ValueError, match=r"^bad alignment pair '1-x'$"):
            parse_alignment("0-0 1-1 1-x")
    assert parse_alignment("0-0 1-1") == {(0, 0), (1, 1)}


def test_a_line_with_more_distinct_pairs_than_the_cache_holds():
    n = aligner._LINK_CACHE_SIZE + 100
    links = {(k, k % 7) for k in range(n)}
    line = format_alignment(links)
    assert parse_alignment(line) == links
    assert parse_alignment(line + " 0-0") == links | {(0, 0)}
