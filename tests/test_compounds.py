"""Compound suffix induction and recursive compound splitting."""

import inspect
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from mtprep.compounds import (
    CompoundSuffixSet,
    induce_compound_suffixes,
    load_compound_suffixes,
    save_compound_suffixes,
    split_compound,
)
from mtprep.pipeline import Mode, PipelineConfig, preprocess
from mtprep.suffixes import make_splitter

from oracles import compound_split_oracle, induce_oracle

vocab_st = st.lists(st.text(alphabet="ab", min_size=1, max_size=14), max_size=40)


# --- induction ---------------------------------------------------------------

def test_induction_worked_example():
    vocab = {
        "kaDuuna": 1,
        "daMtatajGYaaMkaDuuna": 1,
        "hRdayatajGYaaMkaDuuna": 1,
        "DaakTarakaDuuna": 1,
    }
    cset = induce_compound_suffixes(vocab)
    # every compound is >= 8 code points longer than kaDuuna, well past the margin
    assert cset.counts == {"kaDuuna": 3}


def test_induction_respects_margin():
    # "abcdefgh" is exactly margin+1 longer than "gh": 8 > 2 + 5 holds,
    # while "fgh" fails 8 > 3 + 5
    cset = induce_compound_suffixes(["gh", "fgh", "abcdefgh"], margin=5)
    assert cset.counts == {"gh": 1}


def test_induction_min_count_filter():
    vocab = ["na", "aaaaaana", "bbbbbbna", "ta", "ccccccta"]
    assert induce_compound_suffixes(vocab, min_count=2).counts == {"na": 2}


def test_induction_counts_types_not_tokens():
    # vocabulary multiplicity is irrelevant; each supporting type counts once
    vocab = {"na": 9, "aaaaaana": 7}
    assert induce_compound_suffixes(vocab).counts == {"na": 1}


def test_induction_empty_vocab():
    assert induce_compound_suffixes([]).counts == {}


def test_induction_rejects_negative_margin():
    with pytest.raises(ValueError):
        induce_compound_suffixes(["a"], margin=-1)


def oracle_counts(vocab, margin, min_count=1):
    induced = induce_oracle(vocab, margin=margin)
    return {v: c for v, c in induced.items() if c >= min_count}


@settings(max_examples=150)
@given(
    vocab_st,
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=1, max_value=3),
)
def test_induction_matches_double_loop(vocab, margin, min_count):
    got = induce_compound_suffixes(vocab, margin=margin, min_count=min_count)
    assert got.counts == oracle_counts(vocab, margin, min_count)


@pytest.mark.parametrize("margin", [0, 2, 5])
def test_induction_without_words_longer_than_margin_plus_one(margin):
    # each word ends with all the shorter ones, but a tail has at least one
    # character, so only a word of margin + 2 or more characters can have one
    vocab = [("ab" * 4)[-n:] for n in range(1, margin + 2)]
    assert induce_compound_suffixes(vocab, margin=margin).counts == {}
    longer = vocab + [("ab" * 4)[-(margin + 2):]]
    assert induce_compound_suffixes(longer, margin=margin).counts == {"b": 1}


@pytest.mark.parametrize("margin", [0, 1, 4])
def test_induction_of_words_of_one_length(margin):
    # every tail is shorter than the words, so no word can be a member
    vocab = ["abcdefgh", "bbcdefgh", "xxxxxxgh", "gggggggh"]
    assert induce_compound_suffixes(vocab, margin=margin).counts == {}


def test_induction_ignores_the_empty_word():
    # a member has at least one character, even when "" is in the vocabulary
    assert induce_compound_suffixes(["", "na", "aaaaaana"]).counts == {"na": 1}


# Devanagari KA, the combining vowel sign AA, an astral character and the
# last code point, which sorts after every other character.
WIDE = "abका\U0001f600\U0010ffff"
wide_vocab_st = st.lists(st.text(alphabet=WIDE, max_size=12), max_size=40)


@settings(max_examples=150)
@given(
    wide_vocab_st,
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=1, max_value=3),
)
def test_induction_matches_double_loop_on_a_wide_alphabet(vocab, margin, min_count):
    got = induce_compound_suffixes(vocab, margin=margin, min_count=min_count)
    # the oracle would list "" as a member; induction skips the empty word
    assert got.counts == oracle_counts(list(filter(None, vocab)), margin, min_count)


@settings(max_examples=60)
@given(wide_vocab_st, st.randoms(use_true_random=False))
def test_induction_ignores_how_the_words_arrive(vocab, rng):
    shuffled = vocab[:]
    rng.shuffle(shuffled)
    expected = oracle_counts(list(filter(None, vocab)), margin=1)
    for words in (vocab, shuffled, set(vocab), Counter(vocab), iter(vocab)):
        assert induce_compound_suffixes(words, margin=1).counts == expected


@pytest.mark.parametrize(
    "vocab, margin, expected",
    [
        # a run that holds words failing the margin between words passing it:
        # reversed, "ana" and "anba" sit between "an" and "anbbbbbb"
        (["na", "ana", "abna", "bbbbbbna", "xxxxxxna"], 5, {"na": 2}),
        (["na", "bbbbbbna", "ana", "xxxxxxxna", "cna"], 5, {"na": 2}),
        # the run of "a" continues past the run of its sibling "ba" to "ca"
        (["a", "ba", "xxxxxxba", "yyyyyyyca"], 5, {"a": 2, "ba": 1}),
        (["क", "ाक", "xxxxxxाक", "\U0010ffff" * 7 + "क"],
         5, {"क": 2, "ाक": 1}),
        (["\U0010ffff", "a\U0010ffff", "aaaaaaa\U0010ffff", "\U0010ffff" * 8],
         5, {"\U0010ffff": 2, "a\U0010ffff": 1}),
        # candidates whose runs hold no word long enough are no members
        (["na", "ana"], 5, {}),
        (["na", "ana", "bana", "aaaaaaata"], 5, {}),
        (["\U0010ffff", "\U0010ffff" * 2, "a\U0010ffff"], 1, {}),
    ],
)
def test_induction_walks_each_run_to_its_end(vocab, margin, expected):
    assert induce_compound_suffixes(vocab, margin=margin).counts == expected
    assert oracle_counts(vocab, margin) == expected


@pytest.mark.parametrize("min_count", [2.5, 2.0, True])
def test_induction_rejects_a_min_count_that_is_not_an_int(min_count):
    words = iter(["na", "aaaaaana"])
    with pytest.raises(TypeError, match="min_count must be an int"):
        induce_compound_suffixes(words, min_count=min_count)
    assert next(words) == "na"  # refused before reading the vocabulary


class UnreadVocabulary:
    def __iter__(self):
        pytest.fail("the vocabulary was read")


@pytest.mark.parametrize("margin", [2.5, True])
def test_induction_rejects_a_margin_that_is_not_an_int(margin):
    with pytest.raises(TypeError, match="margin must be an int"):
        induce_compound_suffixes(UnreadVocabulary(), margin=margin)


def test_induction_refuses_a_str_vocabulary():
    # a str is an iterable of its characters, which would induce nothing
    with pytest.raises(TypeError, match="^vocab must be a collection of words, not a str$"):
        induce_compound_suffixes("sarakaarakaDuuna")


def test_induction_and_its_oracle_skip_the_empty_word():
    assert induce_oracle(["", "a"], margin=0) == {}
    assert induce_compound_suffixes(["", "a"], margin=0).counts == {}


# --- splitting ---------------------------------------------------------------

def test_split_worked_example():
    cset = CompoundSuffixSet({"kaDuuna": 3, "tajGYaaM": 2})
    assert split_compound("daMtatajGYaaMkaDuuna", cset) == [
        "daMta",
        "tajGYaaM",
        "kaDuuna",
    ]


def test_split_strips_right_to_left_longest_first():
    cset = CompoundSuffixSet({"cc": 1, "bcc": 1})
    # longest listed member wins at each step
    assert split_compound("aaaaaabcc", cset) == ["aaaaaa", "bcc"]


def test_split_leaves_short_words_alone():
    cset = CompoundSuffixSet({"na": 1})
    # word itself must clear the margin before any stripping happens
    assert split_compound("seena", cset) == ["seena"]


def test_split_uses_the_inventory_margin():
    # 10 > 7 + 2 clears margin 2 but not the default 5
    assert split_compound("abckaDuuna", CompoundSuffixSet({"kaDuuna": 1})) == [
        "abckaDuuna"
    ]
    cset = CompoundSuffixSet({"kaDuuna": 1}, margin=2)
    assert split_compound("abckaDuuna", cset) == ["abc", "kaDuuna"]
    assert induce_compound_suffixes(["kaDuuna", "abckaDuuna"], margin=2) == cset


def test_the_splitter_reads_the_margin_from_the_inventory_alone(monkeypatch):
    # the same member under margins 0 and 5: 8 > 7 + 0 holds, 8 > 7 + 5 does not
    loose = CompoundSuffixSet({"kaDuuna": 1}, margin=0)
    strict = CompoundSuffixSet({"kaDuuna": 1}, margin=5)
    assert list(inspect.signature(make_splitter).parameters) == ["compound_set", "suffix_list"]
    assert make_splitter(loose, None)("xkaDuuna") == ["x", "kaDuuna"]
    assert make_splitter(strict, None)("xkaDuuna") == ["xkaDuuna"]
    # another margin splits as an inventory induced with it would
    assert split_compound("xkaDuuna", strict, 0) == split_compound("xkaDuuna", loose)
    assert split_compound("xkaDuuna", loose, 5) == split_compound("xkaDuuna", strict)
    # the inventory's own margin builds no copy
    monkeypatch.setattr("mtprep.compounds.CompoundSuffixSet", None)
    assert split_compound("xkaDuuna", loose, 0) == ["x", "kaDuuna"]
    assert split_compound("xkaDuuna", strict, 5) == ["xkaDuuna"]


def test_split_never_empties_residue():
    cset = CompoundSuffixSet({"aaaaaa": 1})
    assert split_compound("aaaaaa", cset) == ["aaaaaa"]


def test_split_concatenation_identity():
    cset = CompoundSuffixSet({"kaDuuna": 3, "tajGYaaM": 2})
    for word in ["daMtatajGYaaMkaDuuna", "dara", "kaDuuna", "sarakaarakaDuuna"]:
        assert "".join(split_compound(word, cset)) == word


def test_apply_with_marker():
    cset = CompoundSuffixSet({"kaDuuna": 3})
    config = PipelineConfig(mode=Mode.CS, compound_set=cset, marker="@@")
    out = preprocess([["sarakaarakaDuuna", "dara"]], config)
    assert out == [["sarakaara@@", "kaDuuna", "dara"]]


# Two letters make many members end the residue at once; margins up to 6
# exceed the length of the shortest words.
@settings(max_examples=200)
@given(
    st.text(alphabet="ab", min_size=1, max_size=20),
    st.lists(st.text(alphabet="ab", min_size=1, max_size=8), max_size=16),
    st.integers(min_value=0, max_value=6),
)
def test_split_matches_per_member_scan(word, members, margin):
    cset = CompoundSuffixSet(dict.fromkeys(members, 1))
    assert split_compound(word, cset, margin) == compound_split_oracle(
        word, members, margin
    )


@settings(max_examples=60)
@given(vocab_st, st.text(alphabet="ab", min_size=1, max_size=20))
def test_split_pieces_concatenate_to_word(vocab, word):
    cset = induce_compound_suffixes(vocab)
    assert "".join(split_compound(word, cset)) == word


@settings(max_examples=60)
@given(vocab_st, st.text(alphabet="ab", min_size=1, max_size=20))
def test_split_pieces_all_nonempty(vocab, word):
    cset = induce_compound_suffixes(vocab)
    assert all(piece for piece in split_compound(word, cset))


# --- persistence -------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    cset = CompoundSuffixSet({"kaDuuna": 3, "na": 7}, margin=3)
    path = tmp_path / "comp.tsv"
    save_compound_suffixes(cset, path)
    assert path.read_text(encoding="utf-8") == "# margin=3\nkaDuuna\t3\nna\t7\n"
    assert load_compound_suffixes(path) == cset


def test_inventory_rejects_what_a_saved_file_cannot_hold():
    # "ka\t9\nzz" would load back as two members with their own counts
    for member in ("", "ka\t9\nzz", "a b", b"na", 1):
        with pytest.raises(ValueError, match="is not one token"):
            CompoundSuffixSet({"na": 2, member: 1})


@pytest.mark.parametrize("member", ["xxxxxxxxna", "a b"])
def test_inventory_keeps_its_own_copy_of_the_counts(member):
    # a member added to the caller's dict later would skip the token check
    # and be longer than the longest the inventory computed
    counts = {"na": 1}
    cset = CompoundSuffixSet(counts)
    counts[member] = 1
    assert member not in cset
    assert list(cset) == ["na"]
    assert cset.counts == {"na": 1}


@pytest.mark.parametrize(
    "counts, margin",
    [({"ab": 2.5}, 5), ({"ab": True}, 5), ({"ab": 1}, 1.5), ({"ab": 1}, True)],
)
def test_inventory_rejects_counts_and_margins_that_are_not_ints(counts, margin):
    # a saved 2.5, True or "# margin=1.5" is refused by the loader
    with pytest.raises(TypeError, match="must be an int"):
        CompoundSuffixSet(counts, margin)


def _builds(member):
    try:
        CompoundSuffixSet({member: 1})
    except ValueError:
        return False
    return True


# Lone surrogates have no UTF-8 form, so no file can hold them.
member_st = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)


@settings(max_examples=150)
@given(
    st.dictionaries(
        member_st.filter(_builds), st.integers(min_value=1, max_value=10**30), max_size=8
    ),
    st.integers(min_value=0, max_value=40),
)
def test_every_buildable_inventory_saves_and_loads_back_equal(
    tmp_path_factory, counts, margin
):
    cset = CompoundSuffixSet(counts, margin)
    path = tmp_path_factory.mktemp("comp") / "comp.tsv"
    save_compound_suffixes(cset, path)
    assert load_compound_suffixes(path) == cset


@pytest.mark.parametrize(
    "counts, member",
    [({"ab": 1, "z\ud800": 2}, "z\ud800"), ({"\udfff": 1, "ab": 2}, "\udfff")],
)
def test_save_refuses_a_member_with_no_utf8_form_before_writing(tmp_path, counts, member):
    # a lone surrogate is one token, so the inventory builds, but no file
    # holds it; the member sorts after "ab", so it is on line 3, after the header
    path = tmp_path / "comp.tsv"
    with pytest.raises(ValueError) as raised:
        save_compound_suffixes(CompoundSuffixSet(counts), path)
    assert str(raised.value) == f"{path}:3: {member[-1]!r} has no UTF-8 form"
    assert not path.exists()


def test_load_without_header_uses_default_margin(tmp_path):
    path = tmp_path / "comp.tsv"
    path.write_text("kaDuuna\t3\n", encoding="utf-8")
    assert load_compound_suffixes(path) == CompoundSuffixSet({"kaDuuna": 3}, margin=5)


def test_load_reports_bad_line_number(tmp_path):
    path = tmp_path / "comp.tsv"
    path.write_text("kaDuuna\t3\nbroken line\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2:"):
        load_compound_suffixes(path)


@pytest.mark.parametrize("line", ["kaDuuna\t0", "\t3"])
def test_load_rejects_a_zero_count_and_an_empty_member(line, tmp_path):
    path = tmp_path / "comp.tsv"
    path.write_text(f"na\t7\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: bad entry {line!r}")):
        load_compound_suffixes(path)


def test_load_rejects_non_integer_count(tmp_path):
    # counts are corpus.parse_digits integers like gold indices: no padding,
    # sign or other digits
    path = tmp_path / "comp.tsv"
    for raw in ("many", " 3", "3 ", "+3", "\u0663", "\u00b3"):
        path.write_text(f"kaDuuna\t{raw}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":1: bad count"):
            load_compound_suffixes(path)


def test_load_names_the_line_of_a_count_too_long_for_int(tmp_path):
    # 5,000 digits: past the 4,300 that int() converts by default
    path = tmp_path / "comp.tsv"
    path.write_text(f"# margin=3\nna\t7\nkaDuuna\t{'9' * 5000}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":3: bad count"):
        load_compound_suffixes(path)


def test_load_names_the_line_of_a_margin_too_long_for_int(tmp_path):
    path = tmp_path / "comp.tsv"
    path.write_text(f"# margin={'9' * 5000}\nkaDuuna\t3\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":1: bad margin header"):
        load_compound_suffixes(path)


def test_ordered_by_length_then_lexicographic():
    cset = CompoundSuffixSet({"na": 1, "ii": 1, "kaDuuna": 1})
    assert cset.ordered == ("kaDuuna", "ii", "na")
