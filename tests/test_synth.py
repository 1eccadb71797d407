"""Structural checks on the generated alignment benchmark."""

import pytest

from mtprep.compounds import DEFAULT_MARGIN, induce_compound_suffixes
from mtprep.corpus import build_vocabulary
from mtprep.pipeline import Mode, PipelineConfig, preprocess
from mtprep.suffixes import SuffixList
from mtprep.synth import alignment_improvement, build_benchmark

BENCH = build_benchmark(sentences=120, seed=9)


def test_deterministic_for_fixed_seed():
    again = build_benchmark(sentences=120, seed=9)
    assert again.src_fused == BENCH.src_fused
    assert again.tgt == BENCH.tgt
    assert again.gold_split == BENCH.gold_split


def test_different_seeds_differ():
    other = build_benchmark(sentences=120, seed=10)
    assert other.src_fused != BENCH.src_fused


def test_corpora_are_parallel():
    assert len(BENCH.src_fused) == len(BENCH.src_split) == len(BENCH.tgt)
    assert len(BENCH.gold_fused) == len(BENCH.gold_split) == len(BENCH.tgt)


def test_split_side_matches_target_one_to_one():
    # by construction every split source piece translates one target word
    for split_sent, tgt_sent in zip(BENCH.src_split, BENCH.tgt):
        assert len(split_sent) == len(tgt_sent)


def test_fused_sentences_concatenate_to_split():
    for fused, split in zip(BENCH.src_fused, BENCH.src_split):
        assert "".join(fused) == "".join(split)


def test_pipeline_reproduces_split_side():
    # the benchmark is only honest if the real pipeline, given the declared
    # suffix list and the suffixes induced from the fused text, produces
    # exactly the split tokenization
    compounds = induce_compound_suffixes(
        build_vocabulary(BENCH.src_fused), margin=DEFAULT_MARGIN
    )
    config = PipelineConfig(
        mode=Mode.CS_SS,
        suffix_list=SuffixList(BENCH.suffix_list),
        compound_set=compounds,
    )
    assert preprocess(BENCH.src_fused, config) == BENCH.src_split


def test_gold_links_cover_every_target_word():
    for links, tgt_sent in zip(BENCH.gold_split, BENCH.tgt):
        assert {j for _, j in links} == set(range(len(tgt_sent)))


def test_gold_links_index_into_sentences():
    for links, src_sent, tgt_sent in zip(
        BENCH.gold_fused, BENCH.src_fused, BENCH.tgt
    ):
        for i, j in links:
            assert 0 <= i < len(src_sent)
            assert 0 <= j < len(tgt_sent)


def test_splitting_improves_alignment_f1():
    fused_f1, split_f1 = alignment_improvement(BENCH, iterations=5)
    assert split_f1 > fused_f1
    assert 0.0 <= fused_f1 <= 1.0
    assert split_f1 <= 1.0


def test_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        build_benchmark(sentences=0)
