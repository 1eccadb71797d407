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

Edit distances are computed bit-parallel (Myers 1999, Hyyrö 2003) over match
masks built once per segment.  Moves are enumerated from the reference
positions that hold each hypothesis token, also listed once per segment.
Greedy search keeps _columns, the column before every position of the
current hypothesis, and scores each candidate from the stored column at its
first changed position without building it.  A shift changes only the
positions it rotates, so the columns before them, and the reversed
sentences' columns of the suffix after them, carry over to the next step;
both passes resume from there.  A candidate is dropped once a lower bound on
its final distance, from its column so far and the distance of the unchanged
rest (Hirschberg's 1975 split at a fixed position; _columns of the reversed
sentences), reaches the step's best.  It can then at best tie, and only a
strictly better score replaces the best, so the winner is that of scoring
every candidate in full; only it is built.  The scores are identical to
those of the plain O(n*m) dynamic program, which the tests keep as the oracle.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..corpus import Corpus, Sentence, _Frozen
from .common import validate_corpora

# Exact search is exponential in the worst case; beyond this many tokens on
# either side, fall back to greedy.
EXACT_SEARCH_LIMIT = 7

# One edit-distance DP column in bit-parallel form: (VP, VN, last-row value).
Column = tuple[int, int, int]


def _match_masks(ref: Sentence) -> dict[str, int]:
    """Bit j of masks[tok] is set when ref[j] == tok: the pattern table of
    the bit-parallel edit distance, built once per reference."""
    masks: dict[str, int] = {}
    for j, tok in enumerate(ref):
        masks[tok] = masks.get(tok, 0) | (1 << j)
    return masks


def _columns(
    eqs: Iterable[int], full: int, top: int, start: Column | None = None
) -> list[Column]:
    """Edit-distance columns over hypothesis tokens: start, then the one
    after each token.  start defaults to the empty prefix's column; any
    other column resumes a pass, so columns after the first k tokens can
    be extended without scanning those k again.

    Bit-parallel over Python ints (Myers 1999, in Hyyrö's 2003 form): a
    column (VP, VN, score) holds the +1/-1 vertical deltas of one DP column,
    bit j for ref row j, and the last row's value; eqs are the match masks
    of the hypothesis tokens, and each advances the whole column with a few
    word operations.  Python's ~ is unbounded, so VP is masked to the
    reference's bits (full); VN stays within them because it is an AND with
    eq | vn.  top is the bit of the last reference row.
    """
    if start is None:
        start = (full, 0, top.bit_length())
    vp, vn, score = start
    columns = [start]
    for eq in eqs:
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
        columns.append((vp, vn, score))
    return columns


def _distance(hyp: Sentence, masks: dict[str, int], ref_length: int) -> int:
    """Levenshtein distance from hyp to the reference behind masks."""
    if not ref_length:
        return len(hyp)
    eqs = [masks.get(tok, 0) for tok in hyp]
    return _columns(eqs, (1 << ref_length) - 1, 1 << (ref_length - 1))[-1][2]


def edit_distance(a: Sentence, b: Sentence) -> int:
    """Word-level Levenshtein distance, unit costs."""
    return _distance(a, _match_masks(b), len(b))


class SentenceTer(_Frozen):
    """Edit breakdown for one segment."""

    __slots__ = __match_args__ = ("shifts", "edits_after_shifts", "ref_length")

    @property
    def total_edits(self) -> int:
        return self.shifts + self.edits_after_shifts

    @property
    def rate(self) -> float:
        return self.total_edits / self.ref_length


class TerScore(_Frozen):
    __slots__ = __match_args__ = (
        "score", "total_edits", "total_shifts", "ref_length", "sentences"
    )


def _positions(ref: Sentence) -> dict[str, list[int]]:
    """The reference positions holding each token, in increasing order."""
    positions: dict[str, list[int]] = {}
    for j, tok in enumerate(ref):
        positions.setdefault(tok, []).append(j)
    return positions


def _moves(hyp: Sentence, ref: Sentence, positions: dict[str, list[int]]):
    """Legal shifts (i, j, length) of hyp against ref, in that lexicographic
    order.

    The block hyp[i:i+length] must match ref[j:j+length] and must not
    already start at j; the move deletes the block and reinserts it at
    position j of what remains (at its end when j is past it).  For each
    block start i only the reference positions holding hyp[i] are tried;
    positions is _positions(ref), built once per segment.
    """
    n, m = len(hyp), len(ref)
    for i, tok in enumerate(hyp):
        for j in positions.get(tok, ()):
            if i == j:
                continue
            length = 0
            while (
                i + length < n and j + length < m and hyp[i + length] == ref[j + length]
            ):
                length += 1
                yield i, j, length


def _shift(seq, i: int, j: int, length: int):
    """seq with the block seq[i:i+length] moved to position j of the rest."""
    rest = seq[:i] + seq[i + length :]
    return rest[:j] + seq[i : i + length] + rest[j:]


def _exact_ter(hyp: Sentence, ref: Sentence) -> SentenceTer:
    """Minimum shifts + remaining edits over every shift sequence.

    Layered search: all states reachable with k shifts are expanded before
    any with k+1, so the first time a hypothesis permutation is seen it is
    via a minimal shift sequence.  A layer at depth d can only help while
    d < current best total, since each shift already costs 1.
    """
    masks, ref_length = _match_masks(ref), len(ref)
    positions = _positions(ref)
    best_shifts, best_edits = 0, _distance(hyp, masks, ref_length)
    layer = [tuple(hyp)]
    seen = {tuple(hyp)}
    depth = 0
    while layer and depth + 1 < best_shifts + best_edits:
        depth += 1
        grown = []
        for state in layer:
            for i, j, length in _moves(state, ref, positions):
                key = _shift(state, i, j, length)
                if key in seen:
                    continue
                seen.add(key)
                e = _distance(key, masks, ref_length)
                if depth + e < best_shifts + best_edits:
                    best_shifts, best_edits = depth, e
                grown.append(key)
        layer = grown
    return SentenceTer(best_shifts, best_edits, ref_length)


def _scan_below(
    state: Column, eqs: Iterable[int], limits: Iterable[int], full: int, top: int
) -> Column | None:
    """The last of _columns, but resumed from state; None as soon as the last
    row reaches the limit paired with the token just scanned."""
    vp, vn, score = state
    for eq, limit in zip(eqs, limits):
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        ph = vn | ~(xh | vp)
        mh = vp & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        if score >= limit:
            return None
        ph = (ph << 1) | 1
        vp = ((mh << 1) | ~(xv | ph)) & full
        vn = ph & xv
    return vp, vn, score


def _greedy_ter(hyp: Sentence, ref: Sentence) -> SentenceTer:
    """One best-gain shift at a time until no shift strictly helps.

    A move (i, j, length) from _moves changes the current hypothesis only
    from lo = min(i, j) up to hi = max(i, j) + length (capped at its length
    n), so the search stores _columns, one before each position, and a
    candidate resumes from the one at lo over its rearranged span, then over
    the unchanged tail.  The same holds for the shift a step applies: the
    columns up to lo stay and the rest resume from the one at lo; the
    reversed pass keeps its columns over current[hi:] and resumes from the
    one after them; the match masks are moved as the tokens are.  With m the
    reference length and D(x) the distance from x to the reference, a
    candidate whose column after position k >= hi has last row s ends at
    least at s - slack[k], where slack[k] = m - D(current[k:]): adjacent
    cells of a column differ by at most 1, and D(t, ref[r:]) >= D(t) - r.
    Each span token still to scan can lower s by at most 1 more.  _columns
    of the reversed sentences fills slack, and _scan_below drops a candidate
    once s reaches best_edits + slack[k] (plus those span tokens).  The
    first check, at k = lo, reads only the stored column, so the span is
    built after it.  A dropped candidate can at best tie; only a strictly
    better score replaces the best, so ties, repeats included, go as in
    scoring every candidate in full.  A step ends early once a candidate
    reaches the sentences' length difference, which no later candidate can
    beat, and none starts there.
    """
    masks, ref_length = _match_masks(ref), len(ref)
    back = _match_masks(ref[::-1]).get
    positions = _positions(ref)
    full = (1 << ref_length) - 1
    top = 1 << (ref_length - 1)
    get = masks.get
    current = list(hyp)
    n = len(current)
    eqs = [get(tok, 0) for tok in current]
    # back_eqs[k] matches current[k] against the reversed reference
    back_eqs = [back(tok, 0) for tok in current]
    columns = _columns(eqs, full, top)
    # backward[t]: the column after the last t tokens, over reversed sentences
    backward = _columns(reversed(back_eqs), full, top)
    edits = columns[-1][2]
    shifts = 0
    # No permutation of the hypothesis is closer to the reference than the
    # difference of their lengths.
    floor = abs(n - ref_length)
    while edits > floor:
        # slack[k] = m - D(current[k:])
        slack = [ref_length - column[2] for column in reversed(backward)]
        best = None
        best_edits = edits
        cut = [edits + s for s in slack]
        for i, j, length in _moves(current, ref, positions):
            end = i + length
            # the move rotates current[lo:hi] so that current[mid:hi] leads
            if j < i:
                # the block lands earlier, before current[j:i]
                lo, mid, hi = j, i, end
            else:
                # current[end:hi] moves up and the block lands after it
                lo, mid, hi = i, end, min(j + length, n)
            # each span token still to scan can lower the last row by 1 at most
            limit = cut[hi] + hi - lo
            if columns[lo][2] >= limit:
                continue
            span = eqs[mid:hi] + eqs[lo:mid]
            bounds = range(limit - 1, cut[hi] - 1, -1)
            state = _scan_below(columns[lo], span, bounds, full, top)
            if state is None:
                continue
            state = _scan_below(state, eqs[hi:], cut[hi + 1 :], full, top)
            if state is None:
                continue
            best_edits = state[2]
            best = (i, j, length), lo, hi
            if best_edits == floor:
                break
            cut = [best_edits + s for s in slack]
        if best is None:
            break
        # only current[lo:hi] changed: keep the columns before lo and the
        # backward columns of current[hi:], and resume both passes from there
        move, lo, hi = best
        current = _shift(current, *move)
        eqs = _shift(eqs, *move)
        back_eqs = _shift(back_eqs, *move)
        columns = columns[:lo] + _columns(eqs[lo:], full, top, columns[lo])
        backward = backward[: n - hi] + _columns(
            back_eqs[hi - 1 :: -1], full, top, backward[n - hi]
        )
        edits = best_edits
        shifts += 1
    return SentenceTer(shifts, edits, ref_length)  # positional: the cheapest to bind


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
