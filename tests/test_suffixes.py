"""Suffix lists and longest-match suffix separation."""

import pytest
from hypothesis import given, settings, strategies as st

from mtprep.compounds import CompoundSuffixSet, split_compound
from mtprep.pipeline import Mode, PipelineConfig, preprocess
from mtprep.suffixes import (
    Split,
    SuffixList,
    load_suffix_list,
    save_suffix_list,
    separate_suffix,
)

from oracles import longest_suffix_oracle

word_st = st.text(alphabet="abcdef", min_size=1, max_size=12)
suffixes_st = st.lists(st.text(alphabet="abcdef", min_size=1, max_size=5), max_size=8)
# Two letters make many tails of one word listed at once.
ab_word_st = st.text(alphabet="ab", min_size=1, max_size=14)
ab_members_st = st.lists(st.text(alphabet="ab", min_size=1, max_size=6), max_size=16)


class CountingDict(dict):
    """A dict that counts the membership probes made in it (an inventory's
    member set, as the splitters probe it)."""

    probes = 0

    def __contains__(self, key):
        self.probes += 1
        return super().__contains__(key)


def test_list_sorted_longest_first_then_lexicographic():
    sl = SuffixList(["ii", "aaMnii", "ne", "aa"])
    assert list(sl) == ["aaMnii", "aa", "ii", "ne"]


def test_list_deduplicates():
    sl = SuffixList(["aa", "aa", "ii"])
    assert len(sl) == 2


def test_list_rejects_a_bare_string():
    # iterating "aaMnii" would list its characters as suffixes
    with pytest.raises(TypeError, match="not a str"):
        SuffixList("aaMnii")


@pytest.mark.parametrize(
    "entries",
    [(s for s in ["ii", "aaMnii"]), iter(["ii", "aaMnii"])],
    ids=["generator", "iterator"],
)
def test_list_takes_a_one_shot_iterable(entries):
    assert SuffixList(entries) == SuffixList(["aaMnii", "ii"])


def test_list_rejects_empty_suffix():
    with pytest.raises(ValueError):
        SuffixList(["aa", ""])


def test_membership():
    sl = SuffixList(["aa"])
    assert "aa" in sl and "bb" not in sl


def test_separation_worked_example():
    sl = SuffixList(["aaMnii", "nii", "ii"])
    assert separate_suffix("mahinyaaMnii", sl) == Split("mahiny", "aaMnii")


def test_separation_requires_nonempty_stem():
    # the whole word is never treated as its own suffix
    sl = SuffixList(["aaMnii"])
    assert separate_suffix("aaMnii", sl) == Split("aaMnii", None)


def test_splitters_probe_no_tail_longer_than_their_longest_entry():
    word = "x" * 20_000
    sl = SuffixList(["aaMnii", "ii", "ne"])
    members = CountingDict.fromkeys(sl.members)
    object.__setattr__(sl, "members", members)  # count separate_suffix's lookups
    assert separate_suffix(word, sl) == Split(word)
    assert separate_suffix(word + "ii", sl) == Split(word, "ii")
    assert members.probes <= 2 * len("aaMnii")
    assert SuffixList().longest == 0
    cset = CompoundSuffixSet({"kaDuuna": 3, "na": 1})
    counts = CountingDict(cset.counts)
    object.__setattr__(cset, "counts", counts)  # count split_compound's lookups
    assert split_compound(word + "kaDuuna", cset) == [word, "kaDuuna"]
    assert counts.probes <= 2 * len("kaDuuna")
    assert split_compound(word, CompoundSuffixSet()) == [word]
    assert CompoundSuffixSet().longest == 0
    assert CompoundSuffixSet({"na": 2, "kaDuuna": 1}).longest == len("kaDuuna")


def test_splitters_probe_only_their_inventory_length_window():
    # no member ends with the word's last shortest characters: the ends index
    # lists no length, so no tail is probed at all
    word = "x" * 50
    sl = SuffixList(["aaMnii", "ii", "ne"])
    members = CountingDict.fromkeys(sl.members)
    object.__setattr__(sl, "members", members)
    assert separate_suffix(word, sl) == Split(word)
    assert members.probes == 0
    cset = CompoundSuffixSet({"kaDuuna": 3, "na": 1})
    counts = CountingDict(cset.counts)
    object.__setattr__(cset, "counts", counts)
    assert split_compound(word, cset) == [word]
    assert counts.probes == 0
    assert SuffixList().shortest == CompoundSuffixSet().shortest == 1
    # worst case: a member of every length of the window ends like the word,
    # and only the shortest is its tail, so the strip probes every length once
    sl = SuffixList(["a" * k + "ii" for k in range(5)])
    members = CountingDict.fromkeys(sl.members)
    object.__setattr__(sl, "members", members)
    assert separate_suffix(word + "ii", sl) == Split(word, "ii")
    assert members.probes == sl.longest - sl.shortest + 1 == 5
    cset = CompoundSuffixSet(dict.fromkeys(["a" * k + "na" for k in range(6)], 1))
    counts = CountingDict(cset.counts)
    object.__setattr__(cset, "counts", counts)
    assert split_compound(word + "na", cset) == [word, "na"]
    assert counts.probes == cset.longest - cset.shortest + 1 == 6


def test_preprocess_probes_each_stage_only_in_its_length_window():
    # the splitter preprocess builds probes the inventories' own member sets,
    # and only at the lengths their ends indexes list
    word = "x" * 50
    sl = SuffixList(["aaMnii", "ii", "ne"])
    cset = CompoundSuffixSet({"kaDuuna": 3, "na": 1})
    members, counts = CountingDict.fromkeys(sl.members), CountingDict(cset.counts)
    object.__setattr__(sl, "members", members)
    object.__setattr__(cset, "counts", counts)
    cfg = PipelineConfig(Mode.CS_SS, suffix_list=sl, compound_set=cset, marker="@@")
    assert preprocess([[word, word]], cfg) == [[word, word]]
    assert counts.probes == members.probes == 0
    # worst case in each stage: "na" is stripped after 6 probes, then "ii"
    # is separated from the first constituent after 5
    sl = SuffixList(["a" * k + "ii" for k in range(5)])
    cset = CompoundSuffixSet(dict.fromkeys(["a" * k + "na" for k in range(6)], 1))
    members, counts = CountingDict.fromkeys(sl.members), CountingDict(cset.counts)
    object.__setattr__(sl, "members", members)
    object.__setattr__(cset, "counts", counts)
    cfg = PipelineConfig(Mode.CS_SS, suffix_list=sl, compound_set=cset, marker="@@")
    word += "iina"
    assert preprocess([[word, word]], cfg) == [["x" * 50 + "@@", "ii@@", "na"] * 2]
    assert counts.probes == cset.longest - cset.shortest + 1 == 6
    assert members.probes == sl.longest - sl.shortest + 1 == 5


def test_separation_prefers_longest_listed_suffix():
    sl = SuffixList(["ii", "iila"])
    assert separate_suffix("jarmaniitiila", sl) == Split("jarmaniit", "iila")


def test_separation_single_split_only():
    # one split per word: the stem is not re-examined
    sl = SuffixList(["aa", "nii"])
    assert separate_suffix("maanii", sl).pieces() == ["maa", "nii"]


def test_separation_no_match():
    sl = SuffixList(["xyz"])
    assert separate_suffix("word", sl) == Split("word", None)


def test_separation_rejects_empty_word():
    with pytest.raises(ValueError):
        separate_suffix("", SuffixList(["aa"]))


def test_pieces_shape():
    assert Split("a", "b").pieces() == ["a", "b"]
    assert Split("a", None).pieces() == ["a"]


def test_apply_to_corpus():
    config = PipelineConfig(mode=Mode.SS, suffix_list=SuffixList(["aaMnii"]))
    out = preprocess([["mahinyaaMnii", "dara"], []], config)
    assert out == [["mahiny", "aaMnii", "dara"], []]


def test_apply_with_marker():
    config = PipelineConfig(
        mode=Mode.SS, suffix_list=SuffixList(["aaMnii"]), marker="@@"
    )
    out = preprocess([["mahinyaaMnii"]], config)
    assert out == [["mahiny@@", "aaMnii"]]


def test_load_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "suf.txt"
    path.write_text("# comment\n\naaMnii\nii\n", encoding="utf-8")
    assert list(load_suffix_list(path)) == ["aaMnii", "ii"]


def test_load_empty_file_warns(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing\n", encoding="utf-8")
    with pytest.warns(UserWarning):
        sl = load_suffix_list(path)
    assert len(sl) == 0


def test_save_load_round_trip(tmp_path):
    sl = SuffixList(["ii", "aaMnii", "ne"])
    path = tmp_path / "suf.txt"
    save_suffix_list(sl, path)
    assert list(load_suffix_list(path)) == list(sl)


@pytest.mark.parametrize("entry", ["x\ny", "a b", "#aa", b"aa", 1])
def test_list_rejects_what_a_saved_file_cannot_hold(entry):
    # a line feed or space would load back as two suffixes, and a leading
    # '#' as a comment
    with pytest.raises(ValueError, match="not one token or starts with '#'"):
        SuffixList(["ii", entry])


def _builds(entry):
    try:
        SuffixList([entry])
    except ValueError:
        return False
    return True


# Lone surrogates have no UTF-8 form, so no file can hold them.
entry_st = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)


@settings(max_examples=150)
@given(st.lists(entry_st.filter(_builds), min_size=1, max_size=8))
def test_every_buildable_list_saves_and_loads_back_equal(tmp_path_factory, entries):
    sl = SuffixList(entries)
    path = tmp_path_factory.mktemp("suf") / "suf.txt"
    if sl.suffixes[0].startswith("\ufeff"):
        # the file would start with a byte order mark, which every reader refuses
        with pytest.raises(ValueError, match="byte order mark"):
            save_suffix_list(sl, path)
        assert not path.exists()
    else:
        save_suffix_list(sl, path)
        assert load_suffix_list(path) == sl


@pytest.mark.parametrize(
    "entries, message",
    [
        (["ii", "\ufeffaaMnii"], "would start the file with a byte order mark"),
        (["ii", "a\ud800"], "has no UTF-8 form"),  # lone surrogates
        (["\udfff", "aaMnii"], "has no UTF-8 form"),
    ],
)
def test_save_refuses_what_the_loader_refuses(tmp_path, entries, message):
    path = tmp_path / "suf.txt"
    with pytest.raises(ValueError, match=message):
        save_suffix_list(SuffixList(entries), path)
    assert not path.exists()


@given(word_st, suffixes_st)
def test_separation_matches_exhaustive_scan(word, suffixes):
    sl = SuffixList(suffixes)
    got = separate_suffix(word, sl)
    stem, suffix = longest_suffix_oracle(word, suffixes)
    # tie on length cannot happen: equal-length suffix matches of one word
    # are equal strings, so comparing against max-by-len is enough
    assert (got.stem, got.suffix) == (stem, suffix)


@given(ab_word_st, ab_members_st)
def test_separation_matches_exhaustive_scan_on_colliding_tails(word, suffixes):
    got = separate_suffix(word, SuffixList(suffixes))
    assert (got.stem, got.suffix) == longest_suffix_oracle(word, suffixes)


@given(word_st, suffixes_st)
def test_separation_concatenates_to_word(word, suffixes):
    assert "".join(separate_suffix(word, SuffixList(suffixes)).pieces()) == word


# ASCII, Devanagari and an astral character; '#' only inside an entry
tails_st = st.sets(
    st.text(alphabet="ab#\u0915\u093e\U00010348", min_size=1, max_size=6).filter(
        lambda tail: not tail.startswith("#")
    ),
    max_size=12,
)


@given(tails_st)
def test_the_two_inventories_agree_on_the_same_members(members):
    sl, cset = SuffixList(members), CompoundSuffixSet(dict.fromkeys(members, 1))
    assert (sl.longest, sl.shortest, sl.ordered, sl.ends, len(sl), list(iter(sl))) == (
        cset.longest, cset.shortest, cset.ordered, cset.ends, len(cset), list(iter(cset))
    )
    for member in members:
        assert member in sl and member in cset
    other = "a" * (sl.longest + 1)  # longer than every member
    assert other not in sl and other not in cset
    assert cset.members is cset.counts
    assert sl.ordered is sl.suffixes
