"""System-comparison metrics: BLEU, NIST, TER, and a combined report."""

from __future__ import annotations

from .. import _EXPORTS
from ..corpus import Corpus, _Frozen
from .bleu import BleuScore, bleu, bleu_from_statistics
from .common import ngram_statistics
from .nist import NistScore, nist, nist_from_statistics
from .ter import SentenceTer, TerScore, edit_distance, sentence_ter, ter

__all__ = list(_EXPORTS["metrics"])
del _EXPORTS  # dir() lists this module's own names only

TSV_HEADER = "BLEU\tNIST\tTER"


class EvalReport(_Frozen):
    """The three metric results; bleu, nist and ter read their headline
    scores, so a report cannot disagree with its components.

    bleu is in [0,1] and ter is a ratio (it can exceed 1); the percent
    forms appear in the serializations since scores are conventionally
    quoted scaled by 100.  nist has no percent form.
    """

    __slots__ = __match_args__ = ("bleu_detail", "nist_detail", "ter_detail")

    @property
    def bleu(self) -> float:
        return self.bleu_detail.score

    @property
    def nist(self) -> float:
        return self.nist_detail.score

    @property
    def ter(self) -> float:
        return self.ter_detail.score

    def tsv_row(self) -> str:
        """Score row ordered BLEU, NIST, TER; BLEU and TER scaled by 100."""
        return f"{100.0 * self.bleu:.2f}\t{self.nist:.3f}\t{100.0 * self.ter:.2f}"

    def to_dict(self) -> dict:
        return {
            "bleu": self.bleu,
            "bleu_percent": 100.0 * self.bleu,
            "nist": self.nist,
            "ter": self.ter,
            "ter_percent": 100.0 * self.ter,
            "components": {
                "bleu": {
                    "precisions": list(self.bleu_detail.precisions),
                    "matches": list(self.bleu_detail.matches),
                    "totals": list(self.bleu_detail.totals),
                    "brevity_penalty": self.bleu_detail.brevity_penalty,
                    "hyp_length": self.bleu_detail.hyp_length,
                    "ref_length": self.bleu_detail.ref_length,
                },
                "nist": {
                    "per_order": list(self.nist_detail.per_order),
                    "brevity": self.nist_detail.brevity,
                },
                "ter": {
                    "edits": self.ter_detail.total_edits,
                    "shifts": self.ter_detail.total_shifts,
                    "ref_length": self.ter_detail.ref_length,
                },
            },
        }

    def to_json(self) -> str:
        import json  # here, so that a TSV report does not load it

        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def evaluate(hyps: Corpus, refs: Corpus) -> EvalReport:
    """Run all three metrics on one hypothesis/reference corpus pair; BLEU
    and NIST share one n-gram statistics pass."""
    stats = ngram_statistics(hyps, refs)
    return EvalReport(
        bleu_detail=bleu_from_statistics(stats),
        nist_detail=nist_from_statistics(stats),
        ter_detail=ter(hyps, refs),
    )
