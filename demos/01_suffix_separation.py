"""Walk through longest-match suffix separation on a handful of words.

Run:  python demos/01_suffix_separation.py
"""

from mtprep.pipeline import Mode, PipelineConfig
from mtprep.suffixes import SuffixList

# a tiny Marathi-flavoured suffix inventory; real lists come from a file
# via load_suffix_list and usually hold a few dozen case endings
suffixes = SuffixList(["aaMnii", "aaMnaa", "kaDuuna", "nii", "ii"])


def ss_splitter(suffix_list):
    """The ss mode's splitter: a word to its stem and suffix, or to itself."""
    return PipelineConfig(Mode.SS, suffix_list=suffix_list).splitter()


print("suffix list, longest first:", ", ".join(suffixes))
print()

split = ss_splitter(suffixes)  # build once, call per word
for word in ["mahinyaaMnii", "varShaaMnii", "gheNe", "nii"]:
    pieces = split(word)
    if len(pieces) == 1:
        print(f"{word:>14}  ->  (no listed suffix applies)")
    else:
        print(f"{word:>14}  ->  {' + '.join(pieces)}")

print()
print("notes:")
print(" * one split per word: the stem is never re-examined")
print(" * a word never matches itself ('nii' skips the 'nii' entry and")
print("   falls through to the shorter 'ii')")
print(" * the longest listed match wins, which can cut too deep when a")
print("   longer, more specific entry is missing from the list:")

bad = ss_splitter(SuffixList(["iila"]))("jarmaniitiila")
good = ss_splitter(SuffixList(["iila", "tiila"]))("jarmaniitiila")
print(f"   with only 'iila' listed : jarmaniitiila -> {' + '.join(bad)}")
print(f"   with 'tiila' added      : jarmaniitiila -> {' + '.join(good)}")
