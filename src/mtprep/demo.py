"""Before/after alignment demonstration on a bundled miniature corpus.

The bundled parallel corpus pairs an agglutinative source with a target
language that spells case endings as separate postpositions.  The demo
preprocesses the first source sentence with the fixture suffix and
compound lists, trains the EM aligner on both tokenizations, and shows
how many target words receive a clean one-to-one link each way.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from importlib import resources

from .aligner import Link, train_em, viterbi_align
from .compounds import CompoundSuffixSet, load_compound_suffixes
from .corpus import Corpus, read_token_corpus
from .pipeline import Mode, PipelineConfig, preprocess
from .suffixes import SuffixList, load_suffix_list


def _load_fixture(name: str, reader: Callable):
    """Load a bundled data file with a path-taking reader."""
    with resources.as_file(resources.files("mtprep") / "data" / name) as path:
        return reader(path)


def load_demo_fixtures() -> tuple[SuffixList, CompoundSuffixSet, Corpus, Corpus]:
    """Suffix list, compound set, and the parallel demo corpus."""
    suffixes = _load_fixture("demo_suffixes.txt", load_suffix_list)
    compounds = _load_fixture("demo_compounds.tsv", load_compound_suffixes)
    src = _load_fixture("demo_source.txt", read_token_corpus)
    tgt = _load_fixture("demo_target.txt", read_token_corpus)
    return suffixes, compounds, src, tgt


def one_to_one_links(links: set[Link]) -> int:
    """Links whose source token is linked to exactly one target word."""
    per_source = Counter(i for i, _ in links)
    return sum(1 for i, _ in links if per_source[i] == 1)


def run_demo() -> None:
    """Print the before/after token rows and one-to-one link counts to stdout."""
    suffixes, compounds, src, tgt = load_demo_fixtures()
    config = PipelineConfig(
        mode=Mode.CS_SS, suffix_list=suffixes, compound_set=compounds
    )
    split_src = preprocess(src, config)

    fused_table = train_em(src, tgt)  # train_em's default iterations
    split_table = train_em(split_src, tgt)
    fused_links = viterbi_align(src[0], tgt[0], fused_table)
    split_links = viterbi_align(split_src[0], tgt[0], split_table)

    print("source (fused):")
    print(" ".join(src[0]))
    print("source (split):")
    print(" ".join(split_src[0]))
    print("target:")
    print(" ".join(tgt[0]))
    print(
        f"one-to-one links (fused): {one_to_one_links(fused_links)}"
        f" of {len(tgt[0])} target words"
    )
    print(
        f"one-to-one links (split): {one_to_one_links(split_links)}"
        f" of {len(tgt[0])} target words"
    )
