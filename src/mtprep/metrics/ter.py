"""Translation edit rate: edits plus block shifts over reference length.

A shift moves a contiguous hypothesis block that matches the reference
somewhere else, at cost 1.  TER is defined as the MINIMUM total cost; the
minimum is found exactly (breadth-first over shift sequences) when both
sentences are short enough, and by the conventional greedy search beyond
that.  Greedy: at each step take the shift that lowers the remaining edit
distance the most, stop when no shift lowers it at all; ties go to the
smallest (block start, landing position, block length), scanned in that
lexicographic order.  Greedy can over-count by a shift or two in rare
interleaved-block cases, which is why short sentences get exact search.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..corpus import Corpus, Sentence
from .common import validate_corpora

# Exact search is exponential in the worst case; beyond this many tokens on
# either side, fall back to greedy.
EXACT_SEARCH_LIMIT = 7


def _match_masks(ref: Sentence) -> dict[str, int]:
    """Bit j of masks[tok] is set when ref[j] == tok: the pattern table of
    the bit-parallel edit distance, built once per reference."""
    masks: dict[str, int] = {}
    for j, tok in enumerate(ref):
        masks[tok] = masks.get(tok, 0) | (1 << j)
    return masks


def _distance(hyp: Sentence, masks: dict[str, int], ref_length: int) -> int:
    """Levenshtein distance from hyp to the reference behind masks.

    Bit-parallel over Python ints (Myers 1999, in Hyyrö's 2003 form): VP/VN
    hold the +1/-1 vertical deltas of one DP column, bit j for ref row j, and
    each hyp token advances the whole column with a few word operations.
    Python's ~ is unbounded, so VP is masked to ref_length bits; VN stays
    within them because it is an AND with eq | vn.
    """
    if not ref_length:
        return len(hyp)
    full = (1 << ref_length) - 1
    top = 1 << (ref_length - 1)
    vp, vn, score = full, 0, ref_length
    get = masks.get
    for tok in hyp:
        eq = get(tok, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        ph = vn | ~(xh | vp)
        mh = vp & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        # Row 0 of every column is one more than the last: shift in a +1.
        ph = (ph << 1) | 1
        vp = ((mh << 1) | ~(xv | ph)) & full
        vn = ph & xv
    return score


def edit_distance(a: Sentence, b: Sentence) -> int:
    """Word-level Levenshtein distance, unit costs."""
    return _distance(a, _match_masks(b), len(b))


@dataclass(frozen=True)
class SentenceTer:
    """Edit breakdown for one segment."""

    shifts: int
    edits_after_shifts: int
    ref_length: int

    @property
    def total_edits(self) -> int:
        return self.shifts + self.edits_after_shifts

    @property
    def rate(self) -> float:
        return self.total_edits / self.ref_length


@dataclass(frozen=True)
class TerScore:
    score: float
    total_edits: int
    total_shifts: int
    ref_length: int
    sentences: tuple[SentenceTer, ...]


def _moves(hyp: list[str], ref: Sentence):
    """Legal shifts of hyp against ref, in (i, j, length) lexicographic order.

    The block hyp[i:i+length] must match ref[j:j+length] and must not
    already start at j; the move deletes the block and reinserts it at
    position j of what remains.
    """
    for i in range(len(hyp)):
        for j in range(len(ref)):
            if i == j:
                continue
            length = 1
            while (
                i + length - 1 < len(hyp)
                and j + length - 1 < len(ref)
                and hyp[i + length - 1] == ref[j + length - 1]
            ):
                rest = hyp[:i] + hyp[i + length :]
                yield rest[:j] + hyp[i : i + length] + rest[j:]
                length += 1


def _exact_ter(hyp: Sentence, ref: Sentence) -> SentenceTer:
    """Minimum shifts + remaining edits over every shift sequence.

    Layered search: all states reachable with k shifts are expanded before
    any with k+1, so the first time a hypothesis permutation is seen it is
    via a minimal shift sequence.  A layer at depth d can only help while
    d < current best total, since each shift already costs 1.
    """
    masks, ref_length = _match_masks(ref), len(ref)
    best_shifts, best_edits = 0, _distance(hyp, masks, ref_length)
    layer = [tuple(hyp)]
    seen = {tuple(hyp)}
    depth = 0
    while layer and depth + 1 < best_shifts + best_edits:
        depth += 1
        grown = []
        for state in layer:
            for moved in _moves(list(state), ref):
                key = tuple(moved)
                if key in seen:
                    continue
                seen.add(key)
                e = _distance(key, masks, ref_length)
                if depth + e < best_shifts + best_edits:
                    best_shifts, best_edits = depth, e
                grown.append(key)
        layer = grown
    return SentenceTer(
        shifts=best_shifts, edits_after_shifts=best_edits, ref_length=len(ref)
    )


def _greedy_ter(hyp: Sentence, ref: Sentence) -> SentenceTer:
    """One best-gain shift at a time until no shift strictly helps.

    A permutation reached by several moves in one step is scored once, at
    its first move in (i, j, length) order; only a strictly better score
    replaces the best, so a repeat could never have won.
    """
    masks, ref_length = _match_masks(ref), len(ref)
    current = list(hyp)
    edits = _distance(current, masks, ref_length)
    shifts = 0
    while edits > 0:
        best = None
        best_edits = edits
        seen = set()
        for moved in _moves(current, ref):
            key = tuple(moved)
            if key in seen:
                continue
            seen.add(key)
            e = _distance(key, masks, ref_length)
            if e < best_edits:
                best_edits = e
                best = moved
        if best is None:
            break
        current = best
        edits = best_edits
        shifts += 1
    return SentenceTer(shifts=shifts, edits_after_shifts=edits, ref_length=len(ref))


def sentence_ter(hyp: Sentence, ref: Sentence) -> SentenceTer:
    """Edit breakdown for one segment; exact for short sentences."""
    if not ref:
        raise ValueError("reference sentence is empty")
    if len(hyp) <= EXACT_SEARCH_LIMIT and len(ref) <= EXACT_SEARCH_LIMIT:
        return _exact_ter(hyp, ref)
    return _greedy_ter(hyp, ref)


def ter(hyps: Corpus, refs: Corpus) -> TerScore:
    """Corpus score: total edits over total reference tokens."""
    validate_corpora(hyps, refs)
    sentences = tuple(sentence_ter(h, r) for h, r in zip(hyps, refs))
    total_edits = sum(s.total_edits for s in sentences)
    total_shifts = sum(s.shifts for s in sentences)
    ref_length = sum(s.ref_length for s in sentences)
    return TerScore(
        score=total_edits / ref_length,
        total_edits=total_edits,
        total_shifts=total_shifts,
        ref_length=ref_length,
        sentences=sentences,
    )
