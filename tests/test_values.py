"""The package's value classes behave as frozen values: construction,
defaults, repr, equality, hash, __match_args__, immutability, copies and
pickles.  They are those of the preprocessing path (SuffixList, Split,
CompoundSuffixSet, PipelineConfig), of the metrics (NgramStatistics,
BleuScore, NistScore, SentenceTer, TerScore, EvalReport), of the aligner
(TranslationTable, F1Score) and SyntheticBenchmark."""

import copy
import pickle
import weakref
from collections import Counter

import pytest

from mtprep.aligner import F1Score, TranslationTable
from mtprep.compounds import DEFAULT_MARGIN, CompoundSuffixSet
from mtprep.metrics import BleuScore, EvalReport, NistScore, SentenceTer, TerScore
from mtprep.metrics.common import NgramStatistics
from mtprep.pipeline import Mode, PipelineConfig
from mtprep.suffixes import Split, SuffixList
from mtprep.synth import SyntheticBenchmark

SUFFIXES = SuffixList(("aa",))
COMPOUNDS = CompoundSuffixSet({"na": 2}, 3)
STATS = NgramStatistics(((Counter({("a",): 1}),),), (2,), Counter({("a",): 1}), 2, 1)
BLEU = BleuScore(0.25, (0.5, 0.25), (2, 1), (4, 4), 1.0, 4, 4)
NIST = NistScore(1.5, (1.0, 0.5), 1.0, 4, 4)
SENTENCE = SentenceTer(1, 2, 4)
TER = TerScore(0.75, 3, 1, 4, (SENTENCE,))
REPORT = EvalReport(BLEU, NIST, TER)
TABLE = TranslationTable({"a": {"x": 1.0}}, (-0.5,), True)
F1 = F1Score(0.25, 1.0, 0.4)
GOLD = (frozenset({(0, 0), (0, 1)}),)
BENCH = SyntheticBenchmark(
    [["ab"]], [["a", "b"]], [["A", "B"]], GOLD, (frozenset({(0, 0), (1, 1)}),),
    ("a",), ("b",),
)


def every_value():
    return [
        SuffixList(("b", "aa")),
        Split("a", "b"),
        CompoundSuffixSet({"na": 2}, 3),
        PipelineConfig(Mode.SS, SUFFIXES),
        STATS, BLEU, NIST, SENTENCE, TER, REPORT, TABLE, F1, BENCH,
    ]


def test_construction_positional_keyword_and_defaults():
    assert SuffixList() == SuffixList(()) == SuffixList(suffixes=[])
    assert SuffixList(["b", "aa"]) == SuffixList(suffixes=("aa", "b"))
    assert Split("a") == Split("a", None) == Split(stem="a", suffix=None)
    assert Split("a", "b") == Split(stem="a", suffix="b")
    empty = CompoundSuffixSet()
    assert (empty.counts, empty.margin) == ({}, DEFAULT_MARGIN)
    assert empty.counts is not CompoundSuffixSet().counts  # no shared default
    assert CompoundSuffixSet({"na": 2}, 3) == CompoundSuffixSet(margin=3, counts={"na": 2})
    config = PipelineConfig("ss", SUFFIXES, None, "@@", None)
    assert config == PipelineConfig(mode=Mode.SS, suffix_list=SUFFIXES, marker="@@")
    assert (config.compound_set, config.nnp_tags) == (None, None)
    assert PipelineConfig(Mode.BL).suffix_list is None
    assert SentenceTer(1, 2, 4) == SentenceTer(shifts=1, ref_length=4, edits_after_shifts=2)
    assert F1Score(0.25, 1.0, f1=0.4) == F1
    assert EvalReport(ter_detail=TER, nist_detail=NIST, bleu_detail=BLEU) == REPORT
    for value in (STATS, BLEU, NIST, SENTENCE, TER, REPORT, TABLE, F1, BENCH):
        fields = [getattr(value, name) for name in value.__match_args__]
        assert type(value)(*fields) == value
        assert type(value)(**dict(zip(value.__match_args__, fields))) == value
    table = TranslationTable({})
    assert (table.probs, table.log_likelihoods, table.has_null) == ({}, (), False)
    assert table == TranslationTable(probs={}) == TranslationTable({}, (), False)



@pytest.mark.parametrize("build", [
    lambda: SuffixList(("a",), ()),
    lambda: SuffixList(members=frozenset()),
    lambda: SuffixList(longest=1),
    lambda: Split(),
    lambda: Split("a", "b", "c"),
    lambda: Split("a", stem="b"),
    lambda: CompoundSuffixSet({}, 5, 1),
    lambda: CompoundSuffixSet(shortest=1),
    lambda: CompoundSuffixSet(None),
    lambda: PipelineConfig(),
    lambda: PipelineConfig(Mode.BL, None, None, None, None, None),
    lambda: PipelineConfig(Mode.BL, tags=None),
    lambda: F1Score(1.0, 1.0),
    lambda: F1Score(1.0, 1.0, 1.0, 1.0),
    lambda: F1Score(1.0, 1.0, f=1.0),
    lambda: F1Score(1.0, 1.0, 1.0, precision=1.0),
    lambda: SentenceTer(1, 2, ref_length=4, shifts=1),
    lambda: SentenceTer(),
    lambda: TerScore(0.75, 3, 1, 4),
    lambda: EvalReport(BLEU, NIST),
    lambda: BleuScore(0.25, (0.5,), (2,), (4,), 1.0, 4, ref=4),
    lambda: NistScore(1.5, (1.0,), 1.0, 4, 4, 4),
    lambda: NgramStatistics((), (), Counter(), 0, ref_length=0, hyp_length=0),
    lambda: TranslationTable(),
    lambda: TranslationTable({}, (), False, None),
    lambda: TranslationTable({}, null=True),
    lambda: SyntheticBenchmark([], [], [], (), (), ()),
])
def test_construction_refuses_other_arguments(build):
    with pytest.raises(TypeError):
        build()


def test_constructor_checks_and_messages():
    # the checks that test_suffixes, test_compounds and test_pipeline do not pin
    with pytest.raises(ValueError, match="for 'a' must be >= 1"):
        CompoundSuffixSet({"a": 0})
    with pytest.raises(ValueError, match="'xx' is not a valid Mode"):
        PipelineConfig("xx")
    with pytest.raises(ValueError, match="marker must be None"):
        PipelineConfig(Mode.BL, marker="@ @")
    with pytest.raises(ValueError, match="^mode cs requires a compound suffix set$"):
        PipelineConfig("cs", SUFFIXES)
    # the mode is converted before the marker is checked
    with pytest.raises(ValueError, match="not a valid Mode"):
        PipelineConfig("xx", marker="@ @")
    with pytest.raises(ValueError, match="^benchmark sides have different sentence counts$"):
        SyntheticBenchmark([["ab"]], [], [["A", "B"]], GOLD, GOLD, ("a",), ("b",))


def test_derived_attributes():
    suffixes = SuffixList(("b", "aa", "b", "ccc"))
    assert suffixes.suffixes == ("ccc", "aa", "b")
    assert suffixes.members == frozenset({"b", "aa", "ccc"})
    assert (suffixes.longest, suffixes.shortest) == (3, 1)
    assert (SuffixList().longest, SuffixList().shortest) == (0, 1)
    counts = {"bb": 1, "a": 2, "ccc": 3}
    compounds = CompoundSuffixSet(counts)
    counts["dd"] = 1
    assert compounds.counts == {"bb": 1, "a": 2, "ccc": 3}  # a copy
    assert (compounds.longest, compounds.shortest) == (3, 1)
    assert (CompoundSuffixSet().longest, CompoundSuffixSet().shortest) == (0, 1)
    assert compounds.ordered == ("ccc", "bb", "a")
    assert compounds.ordered is compounds.ordered  # computed once
    assert compounds.ends == {"c": (3,), "b": (2,), "a": (1,)}
    assert compounds.ends is compounds.ends  # computed once
    assert CompoundSuffixSet({"na": 1, "aana": 2, "ana": 3, "ii": 4}).ends == {
        "na": (4, 3, 2), "ii": (2,)
    }
    assert suffixes.ends == {"c": (3,), "a": (2,), "b": (1,)}
    assert suffixes.ends is suffixes.ends
    assert SuffixList().ends == CompoundSuffixSet().ends == {}
    assert PipelineConfig("cs+ss", SUFFIXES, COMPOUNDS).mode is Mode.CS_SS
    assert (SENTENCE.total_edits, SENTENCE.rate) == (3, 0.75)
    assert (REPORT.bleu, REPORT.nist, REPORT.ter) == (0.25, 1.5, 0.75)
    assert BLEU.percent == 25.0
    assert TABLE.prob("a", "x") == 1.0
    assert TABLE.prob("a", "y") == TABLE.prob("b", "x") == 0.0


def test_repr_is_the_init_fields():
    assert repr(Split("a", "b")) == "Split(stem='a', suffix='b')"
    assert repr(Split("a")) == "Split(stem='a', suffix=None)"
    assert repr(SuffixList(("b", "aa"))) == "SuffixList(suffixes=('aa', 'b'))"
    assert repr(SuffixList()) == "SuffixList(suffixes=())"
    assert repr(COMPOUNDS) == "CompoundSuffixSet(counts={'na': 2}, margin=3)"
    assert repr(PipelineConfig("ss", SUFFIXES)) == (
        "PipelineConfig(mode=<Mode.SS: 'ss'>, suffix_list=SuffixList(suffixes=('aa',)),"
        " compound_set=None, marker=None, nnp_tags=None)"
    )
    assert repr(PipelineConfig("cs", None, COMPOUNDS, "@@", [["NNP"]])) == (
        "PipelineConfig(mode=<Mode.CS: 'cs'>, suffix_list=None,"
        " compound_set=CompoundSuffixSet(counts={'na': 2}, margin=3),"
        " marker='@@', nnp_tags=[['NNP']])"
    )
    assert repr(SENTENCE) == "SentenceTer(shifts=1, edits_after_shifts=2, ref_length=4)"
    assert repr(F1) == "F1Score(precision=0.25, recall=1.0, f1=0.4)"
    assert repr(TABLE) == (
        "TranslationTable(probs={'a': {'x': 1.0}}, log_likelihoods=(-0.5,), has_null=True)"
    )
    assert repr(BLEU) == (
        "BleuScore(score=0.25, precisions=(0.5, 0.25), matches=(2, 1), totals=(4, 4),"
        " brevity_penalty=1.0, hyp_length=4, ref_length=4)"
    )
    assert repr(NIST) == (
        "NistScore(score=1.5, per_order=(1.0, 0.5), brevity=1.0, hyp_length=4, ref_length=4)"
    )
    assert repr(TER) == (
        "TerScore(score=0.75, total_edits=3, total_shifts=1, ref_length=4,"
        f" sentences=({SENTENCE!r},))"
    )
    assert repr(REPORT) == (
        f"EvalReport(bleu_detail={BLEU!r}, nist_detail={NIST!r}, ter_detail={TER!r})"
    )
    assert repr(STATS) == (
        "NgramStatistics(clipped=((Counter({('a',): 1}),),), totals=(2,),"
        " ref_counts=Counter({('a',): 1}), hyp_length=2, ref_length=1)"
    )
    assert repr(BENCH) == (
        "SyntheticBenchmark(src_fused=[['ab']], src_split=[['a', 'b']],"
        f" tgt=[['A', 'B']], gold_fused={GOLD!r}, gold_split={BENCH.gold_split!r},"
        " stems=('a',), suffixes=('b',))"
    )


def test_equality_compares_the_init_fields_of_one_class():
    assert SuffixList(("b", "aa")) == SuffixList(("aa", "b", "aa"))
    assert SuffixList(("aa",)) != SuffixList(("ab",))
    assert Split("a", "b") != Split("ab")
    assert CompoundSuffixSet({"na": 2}, 3) != CompoundSuffixSet({"na": 2}, 4)
    assert CompoundSuffixSet({"na": 2}) != CompoundSuffixSet({"na": 3})
    assert PipelineConfig("ss", SUFFIXES) != PipelineConfig("ss", SUFFIXES, marker="@@")
    assert PipelineConfig("bl", nnp_tags=[["NN"]]) == PipelineConfig("bl", nnp_tags=[["NN"]])
    assert SentenceTer(1, 2, 4) != SentenceTer(1, 2, 5)
    assert F1Score(0.25, 1.0, 0.4) == F1 != F1Score(0.5, 1.0, 0.4)
    assert TranslationTable({"a": {"x": 1.0}}, (-0.5,), True) == TABLE
    assert TranslationTable({"a": {"x": 1.0}}, (-0.5,)) != TABLE
    assert EvalReport(BLEU, NIST, TerScore(0.75, 3, 1, 4, ())) != REPORT
    assert SentenceTer(0, 1, 2) != TerScore(0, 1, 2, 0, ())
    # derived attributes take no part
    swapped = SuffixList(("aa",))
    object.__setattr__(swapped, "members", frozenset())
    assert swapped == SuffixList(("aa",))


class SubSplit(Split):
    pass


class SubF1Score(F1Score):
    pass


def test_equality_with_another_class_is_not_implemented():
    for value in every_value():
        assert value.__eq__(object()) is NotImplemented
        assert value != object()
    assert Split("a", "b").__eq__(("a", "b")) is NotImplemented
    assert Split("a", "b") != ("a", "b")
    assert SuffixList(("aa",)) != ("aa",)
    assert Split("a").__eq__(SubSplit("a")) is NotImplemented
    assert Split("a") != SubSplit("a")
    assert SubSplit("a") == SubSplit("a")
    assert F1.__eq__(SubF1Score(0.25, 1.0, 0.4)) is NotImplemented


def test_a_subclass_without_fields_of_its_own_keeps_its_parents():
    assert SubSplit.__match_args__ == Split.__match_args__
    assert SubSplit("a") != SubSplit("b")
    assert SubSplit("a", "b") == SubSplit(stem="a", suffix="b")
    assert repr(SubSplit("a", "b")) == "SubSplit(stem='a', suffix='b')"
    assert hash(SubSplit("a", "b")) == hash(("a", "b"))
    assert SubF1Score.__match_args__ == F1Score.__match_args__
    assert SubF1Score(0.25, 1.0, 0.4) != SubF1Score(0.5, 1.0, 0.4)
    assert SubF1Score(0.25, 1.0, 0.4) == SubF1Score(0.25, recall=1.0, f1=0.4)
    assert repr(SubF1Score(0.25, 1.0, 0.4)) == "SubF1Score(precision=0.25, recall=1.0, f1=0.4)"
    assert hash(SubF1Score(0.25, 1.0, 0.4)) == hash((0.25, 1.0, 0.4))
    with pytest.raises(TypeError):
        SubF1Score(0.25, 1.0)


def test_hash_is_the_hash_of_the_init_fields():
    assert hash(Split("a", "b")) == hash(("a", "b"))
    assert hash(Split("a")) == hash(("a", None))
    assert hash(SuffixList(("b", "aa"))) == hash((("aa", "b"),))
    assert len({Split("a"), Split("a"), SuffixList(), SuffixList(())}) == 2
    config = PipelineConfig("ss", SUFFIXES, None, "@@")
    assert hash(config) == hash((Mode.SS, SUFFIXES, None, "@@", None))
    assert hash(SENTENCE) == hash((1, 2, 4))
    assert hash(F1) == hash((0.25, 1.0, 0.4))
    assert hash(BLEU) == hash((0.25, (0.5, 0.25), (2, 1), (4, 4), 1.0, 4, 4))
    assert hash(NIST) == hash((1.5, (1.0, 0.5), 1.0, 4, 4))
    assert hash(TER) == hash((0.75, 3, 1, 4, (SENTENCE,)))
    assert hash(REPORT) == hash((BLEU, NIST, TER))
    assert len({SENTENCE, SentenceTer(1, 2, 4), SentenceTer(2, 1, 4)}) == 2


@pytest.mark.parametrize("value", [
    CompoundSuffixSet(),
    COMPOUNDS,
    PipelineConfig("cs", compound_set=COMPOUNDS),
    PipelineConfig("bl", nnp_tags=[["NN"]]),
    STATS,
    TABLE,
    BENCH,
])
def test_hash_of_an_unhashable_field_raises(value):
    with pytest.raises(TypeError, match="unhashable"):
        hash(value)


def test_match_args_are_the_init_fields():
    assert SuffixList.__match_args__ == ("suffixes",)
    assert Split.__match_args__ == ("stem", "suffix")
    assert CompoundSuffixSet.__match_args__ == ("counts", "margin")
    assert PipelineConfig.__match_args__ == (
        "mode", "suffix_list", "compound_set", "marker", "nnp_tags"
    )
    assert NgramStatistics.__match_args__ == (
        "clipped", "totals", "ref_counts", "hyp_length", "ref_length"
    )
    assert BleuScore.__match_args__ == (
        "score", "precisions", "matches", "totals", "brevity_penalty", "hyp_length",
        "ref_length",
    )
    assert NistScore.__match_args__ == (
        "score", "per_order", "brevity", "hyp_length", "ref_length"
    )
    assert SentenceTer.__match_args__ == ("shifts", "edits_after_shifts", "ref_length")
    assert TerScore.__match_args__ == (
        "score", "total_edits", "total_shifts", "ref_length", "sentences"
    )
    assert EvalReport.__match_args__ == ("bleu_detail", "nist_detail", "ter_detail")
    assert TranslationTable.__match_args__ == ("probs", "log_likelihoods", "has_null")
    assert F1Score.__match_args__ == ("precision", "recall", "f1")
    assert SyntheticBenchmark.__match_args__ == (
        "src_fused", "src_split", "tgt", "gold_fused", "gold_split", "stems", "suffixes"
    )
    match REPORT:
        case EvalReport(BleuScore(score), _, TerScore(sentences=(SentenceTer(1, edits, _),))):
            assert (score, edits) == (0.25, 2)
        case _:
            pytest.fail("no match")
    match Split("a", "b"):
        case Split(stem, suffix):
            assert (stem, suffix) == ("a", "b")
    match PipelineConfig("ss", SUFFIXES):
        case PipelineConfig(Mode.SS, SuffixList(suffixes)):
            assert suffixes == ("aa",)
        case _:
            pytest.fail("no match")


@pytest.mark.parametrize("value", every_value(), ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("name", ["suffixes", "stem", "counts", "mode", "members",
                                  "longest", "ordered", "ends", "other"])
def test_attributes_cannot_be_assigned_or_deleted(value, name):
    before = repr(value)
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
        setattr(value, name, None)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
        delattr(value, name)
    assert repr(value) == before


@pytest.mark.parametrize("value", every_value(), ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value)),
])
def test_copies_and_pickles_are_equal_values(value, clone):
    cloned = clone(value)
    assert type(cloned) is type(value)
    assert cloned == value
    assert repr(cloned) == repr(value)


@pytest.mark.parametrize("value", every_value(), ids=lambda v: type(v).__name__)
def test_values_can_be_weakly_referenced(value):
    assert weakref.ref(value)() is value
