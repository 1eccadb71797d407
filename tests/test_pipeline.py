"""Preprocessing pipeline: modes, markers, tag gating, reconstruction."""

import pytest
from hypothesis import given, settings, strategies as st

import mtprep.pipeline as pipeline
from mtprep.compounds import CompoundSuffixSet, induce_compound_suffixes
from mtprep.markers import join_marked, mark_pieces
from mtprep.pipeline import (
    COMPOUND_MODES, SUFFIX_MODES, Mode, PipelineConfig, preprocess, preprocess_lines,
    reconstruct,
)
from mtprep.suffixes import SuffixList, make_splitter

from oracles import preprocess_oracle, token_pieces_oracle

SUFFIXES = SuffixList(["aaMnii", "nii", "ii"])
COMPOUNDS = CompoundSuffixSet({"kaDuuna": 3, "tajGYaaM": 2})

word_st = st.text(alphabet="abkD", min_size=1, max_size=16)
corpus_st = st.lists(st.lists(word_st, max_size=6), min_size=1, max_size=6)


def config(mode, **kw):
    kw.setdefault("suffix_list", SUFFIXES)
    kw.setdefault("compound_set", COMPOUNDS)
    return PipelineConfig(mode=mode, **kw)


def test_baseline_is_identity():
    corpus = [["daMtatajGYaaMkaDuuna", "mahinyaaMnii"]]
    assert preprocess(corpus, PipelineConfig(mode=Mode.BL)) == corpus


def test_suffix_mode():
    out = preprocess([["mahinyaaMnii", "dara"]], config(Mode.SS))
    assert out == [["mahiny", "aaMnii", "dara"]]


def test_compound_mode():
    out = preprocess([["daMtatajGYaaMkaDuuna"]], config(Mode.CS))
    assert out == [["daMta", "tajGYaaM", "kaDuuna"]]


def test_combined_mode_splits_then_separates():
    # compound pieces are each eligible for one suffix separation afterwards
    suffixes = SuffixList(["aaM", "una"])
    compounds = CompoundSuffixSet({"kaDuuna": 1})
    cfg = PipelineConfig(
        mode=Mode.CS_SS, suffix_list=suffixes, compound_set=compounds
    )
    assert cfg.splitter()("daMtatajGYaaMkaDuuna") == [
        "daMtatajGY",
        "aaM",
        "kaDu",
        "una",
    ]


def test_combined_equals_manual_composition():
    cfg = config(Mode.CS_SS)
    corpus = [["daMtatajGYaaMkaDuuna", "mahinyaaMnii", "dara"]]
    split_only = preprocess(corpus, config(Mode.CS))
    by_hand = preprocess(split_only, config(Mode.SS))
    assert preprocess(corpus, cfg) == by_hand


def test_marker_applies_to_all_but_last_piece():
    out = preprocess([["daMtatajGYaaMkaDuuna"]], config(Mode.CS, marker="@@"))
    assert out == [["daMta@@", "tajGYaaM@@", "kaDuuna"]]


def test_reconstruct_round_trip():
    corpus = [["daMtatajGYaaMkaDuuna", "mahinyaaMnii"], ["dara"]]
    marked = preprocess(corpus, config(Mode.CS_SS, marker="@@"))
    assert reconstruct(marked, marker="@@") == corpus


@pytest.mark.parametrize("marker", [None, "", "@ @", "@@\n", b"@@", 1])
@pytest.mark.parametrize("corpus", [[], [["a"]]])
def test_reconstruct_rejects_a_marker_that_is_not_one_token(corpus, marker):
    with pytest.raises(ValueError):
        reconstruct(corpus, marker)


def test_join_marked_needs_a_marker():
    with pytest.raises(ValueError, match="needs a marker"):
        join_marked(["mahiny@@", "aaMnii"], None)


def test_proper_noun_tokens_pass_through():
    corpus = [["mahinyaaMnii", "mahinyaaMnii"]]
    out = preprocess(corpus, config(Mode.SS, nnp_tags=[["NNP", "NN"]]))
    assert out == [["mahinyaaMnii", "mahiny", "aaMnii"]]


def test_tag_shape_mismatch_is_an_error():
    with pytest.raises(ValueError, match="sentence 1: 1 tags for 2 tokens"):
        preprocess([["a", "b"]], config(Mode.SS, nnp_tags=[["NN"]]))


def test_tag_corpus_length_mismatch_is_an_error():
    with pytest.raises(ValueError, match="tag file has 2 sentences, corpus has 1"):
        preprocess([["a"]], config(Mode.SS, nnp_tags=[["NN"], ["NN"]]))


@pytest.mark.parametrize(
    "corpus, tags, error",
    [
        # a marker in sentence 1 and a wrong tag count in sentence 2
        ([["x@@"], ["a"]], [["NN"], []], "sentence 1: input token 'x@@' contains"),
        # a wrong tag count in sentence 1 and a marker in sentence 2
        ([["a"], ["x@@"]], [[], ["NN"]], "sentence 1: 0 tags for 1 tokens"),
        # both in sentence 1: its tag count is checked before its tokens
        ([["x@@"]], [[]], "sentence 1: 0 tags for 1 tokens"),
        # an empty word before the marker: in reading order its split fails
        # first, unless its NNP tag leaves it whole
        ([["", "x@@"]], None, "cannot split an empty word"),
        ([["", "x@@"]], [["NN", "NN"]], "cannot split an empty word"),
        ([["", "x@@"]], [["NNP", "NN"]], "sentence 1: input token 'x@@' contains"),
    ],
)
def test_first_faulty_sentence_raises(corpus, tags, error):
    with pytest.raises(ValueError, match=f"^{error}"):
        preprocess(corpus, config(Mode.SS, marker="@@", nnp_tags=tags))


def count_splits(monkeypatch):
    """Make every splitter the pipeline builds append each word it splits to
    the returned list."""
    calls = []
    real = pipeline.make_splitter

    def factory(*args):
        split = real(*args)

        def counting(word):
            calls.append(word)
            return split(word)

        return counting

    monkeypatch.setattr(pipeline, "make_splitter", factory)
    return calls


def test_tag_sentence_count_is_checked_before_any_split(monkeypatch):
    calls = count_splits(monkeypatch)
    cfg = config(Mode.SS, marker="@@", nnp_tags=[["NN"]])
    with pytest.raises(ValueError, match="^tag file has 1 sentences, corpus has 2$"):
        preprocess([["x@@"], ["a"]], cfg)
    assert calls == []


def test_marker_collision_is_an_error():
    with pytest.raises(ValueError, match="contains the marker"):
        preprocess([["ma@@hinyaaMnii"]], config(Mode.SS, marker="@@"))


def test_config_rejects_marker_with_whitespace():
    for marker in ("", "@ @", "@@\n", "\u2028", b"@@", 1):
        with pytest.raises(ValueError, match="without whitespace"):
            config(Mode.SS, marker=marker)


def test_config_requires_resources_for_mode():
    with pytest.raises(ValueError):
        PipelineConfig(mode=Mode.SS)
    with pytest.raises(ValueError):
        PipelineConfig(mode=Mode.CS)
    with pytest.raises(ValueError):
        PipelineConfig(mode=Mode.CS_SS, suffix_list=SUFFIXES)


def test_config_rejects_negative_margin():
    # the margin belongs to the compound inventory, not the pipeline config
    with pytest.raises(ValueError, match="margin must be >= 0"):
        CompoundSuffixSet({"kaDuuna": 3}, margin=-3)


def test_mode_round_trips_through_value():
    for mode in Mode:
        assert Mode(mode.value) is mode


def test_config_takes_a_mode_by_its_value():
    # a string mode is the Mode it names, checked like one, never bl
    with pytest.raises(ValueError, match="^mode ss requires a suffix list$"):
        PipelineConfig(mode="ss")
    corpus = [["daMtatajGYaaMkaDuuna", "mahinyaaMnii"]]
    assert config("cs+ss").mode is Mode.CS_SS
    assert preprocess(corpus, config("cs+ss")) == preprocess(corpus, config(Mode.CS_SS))
    with pytest.raises(ValueError):
        PipelineConfig(mode="xx")


@settings(max_examples=50)
@given(corpus_st)
def test_concatenation_identity_all_modes(corpus):
    # token pieces always concatenate back to the original token
    vocab = [w for s in corpus for w in s]
    compounds = induce_compound_suffixes(vocab)
    for mode in Mode:
        cfg = PipelineConfig(
            mode=mode, suffix_list=SUFFIXES, compound_set=compounds
        )
        out = preprocess(corpus, cfg)
        split = cfg.splitter()
        assert ["".join(split(w)) for s in corpus for w in s] == [
            w for s in corpus for w in s
        ]
        # sentence boundaries are preserved
        assert len(out) == len(corpus)


@settings(max_examples=50)
@given(corpus_st)
def test_token_count_never_decreases(corpus):
    vocab = [w for s in corpus for w in s]
    compounds = induce_compound_suffixes(vocab)
    for mode in Mode:
        cfg = PipelineConfig(
            mode=mode, suffix_list=SUFFIXES, compound_set=compounds
        )
        out = preprocess(corpus, cfg)
        for before, after in zip(corpus, out):
            assert len(after) >= len(before)


@settings(max_examples=50)
@given(corpus_st)
def test_marker_round_trip_property(corpus):
    vocab = [w for s in corpus for w in s]
    compounds = induce_compound_suffixes(vocab)
    cfg = PipelineConfig(
        mode=Mode.CS_SS,
        suffix_list=SUFFIXES,
        compound_set=compounds,
        marker="##",
    )
    marked = preprocess(corpus, cfg)
    assert reconstruct(marked, marker="##") == corpus


# --- the per-call type cache -------------------------------------------------

@st.composite
def repeated_corpus_st(draw):
    """A corpus over at most four types, so most tokens repeat one, with
    per-token NNP/NN tags or none.  "@" in the alphabet makes some types
    hold the marker "@@"."""
    types = draw(st.lists(st.text(alphabet="abkD@", min_size=1, max_size=12),
                          min_size=1, max_size=4))
    token_st = st.sampled_from(types)
    corpus = draw(st.lists(st.lists(token_st, max_size=8), min_size=1, max_size=6))
    tags = None
    if draw(st.booleans()):
        tag_st = st.sampled_from(["NNP", "NN"])
        tags = [draw(st.lists(tag_st, min_size=len(s), max_size=len(s))) for s in corpus]
    return types, corpus, tags


def run_both(corpus, cfg):
    """preprocess and its oracle on the same input: (output, error message)."""
    results = []
    for run in (
        lambda: preprocess(corpus, cfg),
        lambda: preprocess_oracle(
            corpus, lambda w: token_pieces_oracle(w, cfg), cfg.marker, cfg.nnp_tags
        ),
    ):
        try:
            results.append((run(), None))
        except ValueError as exc:
            results.append((None, str(exc)))
    return results


@settings(max_examples=150)
@given(
    repeated_corpus_st(),
    st.sampled_from([None, "@@"]),
    st.integers(min_value=0, max_value=3),
)
def test_preprocess_matches_per_token_oracle(drawn, marker, margin):
    types, corpus, tags = drawn
    compounds = induce_compound_suffixes(types + ["abkDabkDabkD"], margin=margin)
    suffixes = SuffixList(["a", "Da", "kab", "D@"])
    for mode in Mode:
        cfg = PipelineConfig(
            mode=mode, suffix_list=suffixes, compound_set=compounds,
            marker=marker, nnp_tags=tags,
        )
        got, expected = run_both(corpus, cfg)
        assert got == expected


def test_cache_keeps_tags_apart():
    # a word's NNP occurrences never reach the cache, so the same word
    # splits when untagged and stays whole when tagged, in either order
    word = "mahinyaaMnii"
    for tags in ([["NNP", "NN", "NNP"]], [["NN", "NNP", "NN"]]):
        cfg = config(Mode.SS, marker="@@", nnp_tags=tags)
        split = ["mahiny@@", "aaMnii"]
        expected = [[p for tag in tags[0] for p in ([word] if tag == "NNP" else split)]]
        assert preprocess([[word] * 3], cfg) == expected


@pytest.mark.parametrize("tags", [[["NNP"], ["NN"]], [["NN"], ["NNP"]]])
def test_marker_collision_fires_at_first_occurrence_tagged_or_not(tags):
    corpus = [["ma@@hin"], ["ma@@hin"]]
    cfg = config(Mode.SS, marker="@@", nnp_tags=tags)
    (got, got_error), (_, expected_error) = run_both(corpus, cfg)
    assert got is None
    assert got_error == expected_error == (
        "sentence 1: input token 'ma@@hin' contains the marker '@@'"
    )


def test_marker_collision_after_cached_tokens():
    # earlier clean tokens are cached; the offending one is always a miss
    corpus = [["dara", "mahinyaaMnii"], ["dara", "mahinyaaMnii", "x@@"]]
    with pytest.raises(ValueError, match=r"^sentence 2: input token 'x@@'"):
        preprocess(corpus, config(Mode.CS_SS, marker="@@"))


def test_splitter_runs_once_per_non_nnp_type_per_call(monkeypatch):
    calls = count_splits(monkeypatch)
    corpus = [
        ["mahinyaaMnii", "dara", "mahinyaaMnii", "kaDuuna"],
        ["kaDuuna", "mahinyaaMnii", "dara", "Raama"],
    ]
    tags = [["NN", "NN", "NN", "NNP"], ["NN", "NN", "NN", "NNP"]]
    cfg = config(Mode.CS_SS, marker="@@", nnp_tags=tags)
    first = preprocess(corpus, cfg)
    # kaDuuna is split where it is not tagged NNP; Raama is always NNP
    assert calls == ["mahinyaaMnii", "dara", "kaDuuna"]
    calls.clear()
    assert preprocess(corpus, cfg) == first
    assert calls == ["mahinyaaMnii", "dara", "kaDuuna"]


# --- the per-type split ------------------------------------------------------

@pytest.mark.parametrize("mode", list(Mode))
def test_empty_word_is_refused_by_every_splitting_mode(mode):
    # bl leaves every word whole, the empty one too; the other modes refuse it
    cfg = config(mode)
    if mode is Mode.BL:
        assert cfg.splitter()("") == [""]
        assert preprocess([[""]], cfg) == [[""]]
        return
    with pytest.raises(ValueError, match="^cannot split an empty word$"):
        cfg.splitter()("")
    with pytest.raises(ValueError, match="^cannot split an empty word$"):
        preprocess([[""]], cfg)


def splitter(word, cfg):
    """The config's splitter on one word, as a library caller reaches it."""
    return cfg.splitter()(word)


def pieces_or_error(split, word, cfg):
    try:
        return split(word, cfg), None
    except ValueError as exc:
        return None, str(exc)


@st.composite
def ab_inventory_st(draw, word):
    """Members over "ab" with a drawn shortest length: 1, a few letters,
    or longer than the word; the list may be empty."""
    low = draw(st.sampled_from([1, 2, 4, len(word) + 1]))
    return draw(st.lists(st.text(alphabet="ab", min_size=low, max_size=low + 5),
                         max_size=12))


@settings(max_examples=300)
@given(
    st.data(), st.text(alphabet="ab", max_size=16), st.integers(min_value=0, max_value=3),
    st.sampled_from([None, "@@"]),
)
def test_splitter_matches_the_unwindowed_composition(data, word, margin, marker):
    suffixes = SuffixList(data.draw(ab_inventory_st(word)))
    compounds = CompoundSuffixSet(dict.fromkeys(data.draw(ab_inventory_st(word)), 1), margin)
    for mode in Mode:
        cfg = PipelineConfig(mode=mode, suffix_list=suffixes, compound_set=compounds)
        expected, error = pieces_or_error(token_pieces_oracle, word, cfg)
        assert pieces_or_error(splitter, word, cfg) == (expected, error)
        # the factory itself
        split = make_splitter(
            compounds if mode in COMPOUND_MODES else None,
            suffixes if mode in SUFFIX_MODES else None,
        )
        assert pieces_or_error(lambda w, _: split(w), word, cfg) == (expected, error)
        # the text preprocess_lines renders the word as: its pieces, marked
        if expected is not None and word:
            marked = PipelineConfig(mode, suffixes, compounds, marker)
            assert list(preprocess_lines([word], marked)) == [
                " ".join(mark_pieces(expected, marker))
            ]


# "a", "b", a Devanagari letter and an astral (non-BMP) character
TAIL_ALPHABET = "ab\u0915\U00010348"


@st.composite
def shared_tails_st(draw, bases):
    """Tails of the base words at least a drawn shortest length (1 to 4)
    long: members that share their endings widely; the list may be empty."""
    low = draw(st.integers(min_value=1, max_value=4))
    tails = [base[-k:] for base in bases for k in range(low, len(base) + 1)]
    return draw(st.lists(st.sampled_from(tails), max_size=12)) if tails else []


@settings(max_examples=200)
@given(
    st.data(),
    st.lists(st.text(alphabet=TAIL_ALPHABET, min_size=1, max_size=8), min_size=2, max_size=3),
    st.integers(min_value=0, max_value=4),
    st.sampled_from([None, "@@"]),
)
def test_splitters_match_the_oracle_on_members_sharing_endings(data, bases, margin, marker):
    suffixes = SuffixList(data.draw(shared_tails_st(bases)))
    compounds = CompoundSuffixSet(dict.fromkeys(data.draw(shared_tails_st(bases)), 1), margin)
    # words built from the bases end with many members at once
    word_st = st.lists(st.sampled_from(bases + list(TAIL_ALPHABET)), min_size=1, max_size=4)
    words = data.draw(st.lists(word_st.map("".join), min_size=1, max_size=6))
    for mode in Mode:
        cfg = PipelineConfig(mode, suffixes, compounds, marker)
        for word in words:
            expected = pieces_or_error(token_pieces_oracle, word, cfg)
            assert pieces_or_error(splitter, word, cfg) == expected
        got, expected = run_both([words], cfg)
        assert got == expected


@pytest.mark.parametrize("sentence", [["mahiny@@"], ["a", "b@@"], ["@@"], ["a", "@@"]])
def test_a_dangling_marker_is_an_error(sentence):
    message = "dangling marker '@@' at end of sentence"
    with pytest.raises(ValueError, match=message):
        join_marked(sentence, "@@")
    with pytest.raises(ValueError, match=message):
        reconstruct([["a"], sentence], "@@")


def test_a_bare_marker_joins_nothing_onto_its_successor():
    assert join_marked(["@@", "x"], "@@") == ["x"]
    assert join_marked([], "@@") == []
