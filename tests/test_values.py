"""The value classes of the preprocessing path (SuffixList, Split,
CompoundSuffixSet, PipelineConfig) behave as frozen values: construction,
defaults, repr, equality, hash, __match_args__, immutability, copies and
pickles."""

import copy
import pickle
import weakref

import pytest

from mtprep.compounds import DEFAULT_MARGIN, CompoundSuffixSet
from mtprep.pipeline import Mode, PipelineConfig
from mtprep.suffixes import Split, SuffixList

SUFFIXES = SuffixList(("aa",))
COMPOUNDS = CompoundSuffixSet({"na": 2}, 3)


def every_value():
    return [
        SuffixList(("b", "aa")),
        Split("a", "b"),
        CompoundSuffixSet({"na": 2}, 3),
        PipelineConfig(Mode.SS, SUFFIXES),
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
    assert PipelineConfig("cs+ss", SUFFIXES, COMPOUNDS).mode is Mode.CS_SS


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


def test_equality_compares_the_init_fields_of_one_class():
    assert SuffixList(("b", "aa")) == SuffixList(("aa", "b", "aa"))
    assert SuffixList(("aa",)) != SuffixList(("ab",))
    assert Split("a", "b") != Split("ab")
    assert CompoundSuffixSet({"na": 2}, 3) != CompoundSuffixSet({"na": 2}, 4)
    assert CompoundSuffixSet({"na": 2}) != CompoundSuffixSet({"na": 3})
    assert PipelineConfig("ss", SUFFIXES) != PipelineConfig("ss", SUFFIXES, marker="@@")
    assert PipelineConfig("bl", nnp_tags=[["NN"]]) == PipelineConfig("bl", nnp_tags=[["NN"]])
    # derived attributes take no part
    swapped = SuffixList(("aa",))
    object.__setattr__(swapped, "members", frozenset())
    assert swapped == SuffixList(("aa",))


class SubSplit(Split):
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


def test_hash_is_the_hash_of_the_init_fields():
    assert hash(Split("a", "b")) == hash(("a", "b"))
    assert hash(Split("a")) == hash(("a", None))
    assert hash(SuffixList(("b", "aa"))) == hash((("aa", "b"),))
    assert len({Split("a"), Split("a"), SuffixList(), SuffixList(())}) == 2
    config = PipelineConfig("ss", SUFFIXES, None, "@@")
    assert hash(config) == hash((Mode.SS, SUFFIXES, None, "@@", None))


@pytest.mark.parametrize("value", [
    CompoundSuffixSet(),
    COMPOUNDS,
    PipelineConfig("cs", compound_set=COMPOUNDS),
    PipelineConfig("bl", nnp_tags=[["NN"]]),
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
                                  "longest", "ordered", "other"])
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
