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
masks built once per segment.  _packs is the one statement of the move rule:
it scans the moves from the reference positions that hold each hypothesis
token, also listed once per segment, and hands each over as the rotation
(lo, mid, hi) that applies it, seq[:lo] + seq[mid:hi] + seq[lo:mid] +
seq[hi:].  Exact search passes it columns of zeros, which bound no move, so
it reads every move.  Greedy search keeps _columns, the column before every
position of the current hypothesis.  A shift changes only current[lo:hi], so
the columns before lo, and the reversed sentences' columns of the suffix
from hi, carry over to the next step; both passes resume from there.  A
candidate is dropped before anything of it is built once _packs' lower bound
on its final distance reaches the step's best: it can then at best tie.  The
rest are scored in packs of at most PACK_LANES, one candidate to each field
of one integer (Hyyrö, Fredriksson and Navarro 2005), by one pass from the
stored column at the pack's first changed position; the bound is checked
again after each pack.  Only a strictly better score replaces the best, so
the winner is the first minimum in (i, j, length) lexicographic order, that
of scoring every candidate alone; only it is built.  The scores are
identical to those of the plain O(n*m) dynamic program, which the tests keep
as the oracle.
"""

from __future__ import annotations

from collections.abc import Generator, Iterable, Sequence
from itertools import repeat

from ..corpus import Corpus, Sentence, _Frozen
from .common import validate_corpora

# Exact search is exponential in the worst case; beyond this many tokens on
# either side, fall back to greedy.
EXACT_SEARCH_LIMIT = 7

# Greedy TER scores at most this many candidates of a step in one pass, so a
# step holds at most this many lanes of match masks on hostile input.
PACK_LANES = 256

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
    word operations.  The recurrence's two complements are taken within the
    reference's bits (full), as x ^ full: Python's ~x is negative, and
    CPython copies a negative operand into two's complement for every &, |
    and ^.  Bits above full, such as the carry of (eq & vp) + vp, never
    reach the column: VP is masked to full, and VN stays within it because
    it is an AND with eq | vn.  top is the bit of the last reference row.
    """
    if start is None:
        start = (full, 0, top.bit_length())
    vp, vn, score = start
    columns = [start]
    for eq in eqs:
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        ph = vn | ((xh | vp) ^ full)
        mh = vp & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        # Row 0 of every column is one more than the last: shift in a +1.
        ph = (ph << 1) | 1
        vp = ((mh << 1) | ((xv | ph) ^ full)) & full
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


def _exact_ter(hyp: Sentence, ref: Sentence) -> SentenceTer:
    """Minimum shifts + remaining edits over every shift sequence.

    Layered search: all states reachable with k shifts are expanded before
    any with k+1, so the first time a hypothesis permutation is seen it is
    via a minimal shift sequence.  A layer at depth d can only help while
    d < current best total, since each shift already costs 1.  A state's
    moves are those of _packs over columns of zeros, which bound no move,
    so every move is kept, in order.
    """
    masks, ref_length = _match_masks(ref), len(ref)
    positions = _positions(ref)
    zeros = [(0, 0, 0)] * (len(hyp) + 1)
    best_shifts, best_edits = 0, _distance(hyp, masks, ref_length)
    layer = [tuple(hyp)]
    seen = {tuple(hyp)}
    depth = 0
    while layer and depth + 1 < best_shifts + best_edits:
        depth += 1
        grown = []
        for state in layer:
            for pack in _packs(state, ref, positions, zeros, zeros, 0):
                for lo, mid, hi in pack:
                    key = state[:lo] + state[mid:hi] + state[lo:mid] + state[hi:]
                    if key in seen:
                        continue
                    seen.add(key)
                    e = _distance(key, masks, ref_length)
                    if depth + e < best_shifts + best_edits:
                        best_shifts, best_edits = depth, e
                    grown.append(key)
        layer = grown
    return SentenceTer(best_shifts, best_edits, ref_length)


def _lanes(
    start: Column, lanes: list[list[bytes]], size: int, full: int
) -> tuple[int, int]:
    """VP and VN of the last of _columns for every lane at once, all resumed
    from start, field k of each holding lane k's.

    A lane is one sequence of match masks, each as size little-endian bytes
    with size * 8 > m, so that a field has a spare top bit; the lanes are
    equally long.  Packing independent columns into one word is Hyyrö,
    Fredriksson and Navarro (2005): each position runs _columns' operations
    once for every lane, each position's packed mask built in C.  As in
    _columns, the complements are taken within full, so no value is
    negative, and bits outside full never reach VP or VN.  The spare bit
    takes the carry of (eq & vp) + vp, so no carry crosses into the next
    field; ph's spare bits reach the next field only at its row 0, which
    the shifted-in 1 sets anyway; VP is cut back to full, and VN lies
    within eq | vn.  The last row is not tracked: _lane_counts reads it off
    VP and VN at the end.
    """
    ones = int.from_bytes(b"\x01".ljust(size, b"\x00") * len(lanes), "little")
    full *= ones
    vp, vn = start[0] * ones, start[1] * ones
    for eq in map(int.from_bytes, map(b"".join, zip(*lanes)), repeat("little")):
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        ph = vn | ((xh | vp) ^ full)
        mh = vp & xh
        ph = (ph << 1) | ones
        vp = ((mh << 1) | ((xv | ph) ^ full)) & full
        vn = ph & xv
    return vp, vn


# per byte value: the bits set, and the bits clear
_SET_BITS = bytes(bin(value).count("1") for value in range(256))
_CLEAR_BITS = bytes(8 - bits for bits in _SET_BITS)


def _lane_counts(vp: int, vn: int, count: int, size: int) -> Sequence[int]:
    """popcount(VP_k) - popcount(VN_k) + 8 * size for each of count lanes of
    size bytes, in lane order.

    After t tokens a column's last row is t + popcount(VP) - popcount(VN):
    row 0 holds t, and VP and VN hold the +1 and -1 steps down the column.
    Up to 15 bytes a lane, the counts come from C: every byte of VP becomes
    its set bits and every byte of VN its clear bits, at most 16 together,
    and multiplying by a 1 in each of a field's bytes sums the field into
    its top byte.  No such sum of size bytes reaches 256, so no carry
    crosses a byte.
    """
    total = size * count
    vps, vns = vp.to_bytes(total, "little"), vn.to_bytes(total, "little")
    if size < 16:
        bits = int.from_bytes(vps.translate(_SET_BITS), "little") + int.from_bytes(
            vns.translate(_CLEAR_BITS), "little"
        )
        sums = bits * int.from_bytes(b"\x01" * size, "little")
        return sums.to_bytes(total + size, "little")[size - 1 : total : size]
    return [
        int.from_bytes(vps[k : k + size], "little").bit_count()
        - int.from_bytes(vns[k : k + size], "little").bit_count()
        + 8 * size
        for k in range(0, total, size)
    ]


def _packs(
    current: Sequence[str],
    ref: Sentence,
    positions: dict[str, list[int]],
    columns: list[Column],
    backward: list[Column],
    limit: int,
) -> Generator[list[tuple[int, int, int]], int | None, None]:
    """The moves of current against ref whose lower bound is below limit,
    each as the rotation (lo, mid, hi), in (i, j, length) lexicographic
    order and in packs of PACK_LANES; the last pack is shorter, possibly
    empty.  A limit sent after a full pack holds for the moves after it;
    a plain next() keeps the one in force.

    This is the one statement of the move rule.  A move (i, j, length)
    takes the block current[i:i+length], which must match ref[j:j+length]
    and must not already start at j, and reinserts it at position j of
    what remains (at its end when j is past it).  For each block start i
    only the reference positions holding current[i] are tried; positions
    is _positions(ref), built once per segment.  The move changes current
    only from lo = min(i, j) up to hi = max(i, j) + length, capped at its
    length n, and rotates current[lo:hi] so that current[mid:hi] leads.

    columns is _columns over current, and backward _columns over the
    reversed sentences.  With m the reference length and D(x) the distance
    from x to the reference, a move whose column at lo has last row s ends
    at least at s - (hi - lo) - m + D(current[hi:]), the last row of
    backward[n - hi]: each span token lowers the last row by 1 at most,
    adjacent cells of a column differ by at most 1, and
    D(t, ref[r:]) >= D(t) - r (Hirschberg's 1975 split at a fixed
    position).  A move is kept while that is below limit - m, and one the
    bound rejects builds nothing, not even its tuple.  With limit a
    distance plus m, a dropped move can at best tie that distance.  Over
    columns of zeros the test reads 0 < limit + hi - lo, and hi > lo, so
    with a limit of 0 or more exact search keeps every move.
    """
    n, m = len(current), len(ref)
    pack = []
    for i, tok in enumerate(current):
        for j in positions.get(tok, ()):
            if i == j:
                continue
            # the block is current[i:end], matching ref[j:k]
            end, k = i, j
            while end < n and k < m and current[end] == ref[k]:
                end += 1
                k += 1
                if j < i:
                    # the block lands earlier, before current[j:i]
                    lo, mid, hi = j, i, end
                else:
                    # current[end:hi] moves up and the block lands after it
                    lo, mid, hi = i, end, k if k < n else n
                if columns[lo][2] + backward[n - hi][2] < limit + hi - lo:
                    pack.append((lo, mid, hi))
                    if len(pack) == PACK_LANES:
                        sent = yield pack
                        if sent is not None:
                            limit = sent
                        pack = []
    yield pack


def _greedy_ter(hyp: Sentence, ref: Sentence) -> SentenceTer:
    """One best-gain shift at a time until no shift strictly helps.

    A move (lo, mid, hi) from _packs changes the current hypothesis only in
    current[lo:hi], so the search stores _columns, one before each
    position.  The shift a step applies keeps the columns up to lo, and the
    rest resume from the one at lo; the reversed pass keeps its columns
    over current[hi:] and resumes from the one after them; the match masks
    are rotated as the tokens are.

    _packs scans the moves in place, drops every move whose bound reaches
    the step's best so far (the limit is that best plus the reference
    length), and hands over the survivors in packs of up to PACK_LANES,
    each scored by one _lanes pass.  Lane k holds candidate k's rotated
    masks from the pack's smallest lo onward, and all lanes start from the
    column there: before its own lo, a lane reads unchanged tokens.  Its
    distance is n + popcount(VP) - popcount(VN).  Only a strictly better
    distance replaces the best, so the winner is the first minimum in
    (i, j, length) lexicographic order, as in scoring every candidate
    alone; only it is built.  After each full pack the scan goes on with
    the bound of the best so far, which keeps a step's memory to
    PACK_LANES lanes of at most n masks.  A step ends early once a pack
    reaches the sentences' length difference, which no later candidate can
    beat.
    """
    masks, ref_length = _match_masks(ref), len(ref)
    back = _match_masks(ref[::-1]).get
    positions = _positions(ref)
    full = (1 << ref_length) - 1
    top = 1 << (ref_length - 1)
    # bytes per lane field: at least one bit above the reference's m
    size = ref_length // 8 + 1
    get = masks.get
    current = list(hyp)
    n = len(current)
    eqs = [get(tok, 0) for tok in current]
    # eqs as lane fields, for _lanes
    chunks = [eq.to_bytes(size, "little") for eq in eqs]
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
    # a lane's distance less its _lane_counts entry
    base = n - 8 * size
    while edits > floor:
        best = None
        best_edits = edits
        packs = _packs(current, ref, positions, columns, backward, edits + ref_length)
        pack = next(packs)
        while pack:
            first = min(pack)[0]  # the pack's smallest lo
            lanes = [
                [*chunks[first:lo], *chunks[mid:hi], *chunks[lo:mid], *chunks[hi:]]
                for lo, mid, hi in pack
            ]
            counts = _lane_counts(
                *_lanes(columns[first], lanes, size, full), len(pack), size
            )
            low = min(counts)
            if low + base < best_edits:
                best_edits = low + base
                best = pack[counts.index(low)]
            if len(pack) < PACK_LANES or best_edits <= floor:
                break
            pack = packs.send(best_edits + ref_length)
        if best is None:
            break
        # only current[lo:hi] changed: keep the columns before lo and the
        # backward columns of current[hi:], and resume both passes from there
        lo, mid, hi = best
        current, eqs, chunks, back_eqs = (
            seq[:lo] + seq[mid:hi] + seq[lo:mid] + seq[hi:]
            for seq in (current, eqs, chunks, back_eqs)
        )
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
