"""Induce compound suffixes from a vocabulary, then split compounds with them.

Run:  python demos/02_compound_splitting.py
"""

from mtprep.compounds import induce_compound_suffixes
from mtprep.corpus import parse_token_corpus
from mtprep.pipeline import Mode, PipelineConfig

# monolingual text stands in for the large corpus a real run would use
monolingual = parse_token_corpus(
    "daMtatajGYaaMkaDuuna tapaasuuna ghyaa\n"
    "hRdayatajGYaaMkaDuuna salla ghyaa\n"
    "tvachaatajGYaaMkaDuuna aushadha ghyaa\n"
    "DaakTarakaDuuna tapaasuuna ghyaa\n"
    "sarakaarakaDuuna aadesha aalaa\n"
    "hRdayatajGYaaM bheTale\n"
    "tvachaatajGYaaM mhaNaale\n"
    "kaDuuna tajGYaaM DaakTara sarakaara\n"
)

# induction reads only which words occur, not how often
vocab = {word for sentence in monolingual for word in sentence}
inventory = induce_compound_suffixes(vocab)

print("vocabulary types:", len(vocab))
print("induced compound suffixes (word counted when it trails a word at")
print("least six code points longer):")
for suffix in inventory.ordered:
    print(f"  {suffix}  seen trailing {inventory.counts[suffix]} longer types")
print()

split = PipelineConfig(Mode.CS, compound_set=inventory).splitter()  # build once
for word in ["daMtatajGYaaMkaDuuna", "sarakaarakaDuuna", "tapaasuuna", "kaDuuna"]:
    pieces = split(word)
    arrow = " + ".join(pieces) if len(pieces) > 1 else "(left whole)"
    print(f"{word:>22}  ->  {arrow}")

print()
print("splitting strips inventory members off the right edge, longest")
print("first, and recurses on what remains; short words are protected by")
print("the same length margin the induction used")
