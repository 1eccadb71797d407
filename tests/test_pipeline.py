"""Preprocessing pipeline: modes, markers, tag gating, reconstruction."""

import pytest
from hypothesis import given, settings, strategies as st

from mtprep.compounds import CompoundSuffixSet, induce_compound_suffixes
from mtprep.pipeline import Mode, PipelineConfig, preprocess, reconstruct, token_pieces
from mtprep.suffixes import SuffixList

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
    assert token_pieces("daMtatajGYaaMkaDuuna", cfg) == [
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


def test_marker_collision_is_an_error():
    with pytest.raises(ValueError, match="contains the marker"):
        preprocess([["ma@@hinyaaMnii"]], config(Mode.SS, marker="@@"))


def test_config_rejects_marker_with_whitespace():
    for marker in ("", "@ @", "@@\n", "\u2028"):
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
        assert ["".join(token_pieces(w, cfg)) for s in corpus for w in s] == [
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
