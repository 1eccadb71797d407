"""Morphological preprocessing and evaluation toolkit for machine
translation over agglutinative source languages.

Splitting: corpus-driven compound splitting plus longest-match suffix
separation, composable into the bl / ss / cs / cs+ss pipeline modes with a
reversible marker.  Scoring: corpus BLEU, NIST, and TER.  Alignment: a
small expectation-maximization lexical aligner for before/after
comparisons.
"""

from importlib import import_module

# Submodule -> the names the package exports from it: the one list of public
# names, which both __all__ and mtprep.metrics.__all__ are read from.
# Importing the package loads none of them; a name's submodule is imported on
# first use (PEP 562).
_EXPORTS = {
    "aligner": (
        "NULL_TOKEN", "F1Score", "TranslationTable", "align_corpus", "alignment_f1",
        "corpus_alignment_f1", "format_alignment", "parse_alignment", "train_em",
        "viterbi_align",
    ),
    "compounds": (
        "DEFAULT_MARGIN", "CompoundSuffixSet", "induce_compound_suffixes",
        "load_compound_suffixes", "save_compound_suffixes", "split_compound",
    ),
    "corpus": (
        "Corpus", "Sentence", "build_vocabulary", "parse_token_corpus",
        "read_token_corpus", "write_token_corpus",
    ),
    "markers": ("join_marked", "mark_pieces"),
    "metrics": (
        "BleuScore", "EvalReport", "NistScore", "SentenceTer", "TerScore", "bleu",
        "edit_distance", "evaluate", "nist", "sentence_ter", "ter",
    ),
    "pipeline": ("Mode", "PipelineConfig", "preprocess", "reconstruct"),
    "suffixes": (
        "Split", "SuffixList", "load_suffix_list", "save_suffix_list", "separate_suffix",
    ),
    "synth": ("SyntheticBenchmark", "alignment_improvement", "build_benchmark"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule: `mtprep.metrics` after `import mtprep`
        return import_module(f".{name}", __name__)
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = [*_SUBMODULE, "__version__"]
