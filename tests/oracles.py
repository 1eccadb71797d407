"""Independent reference implementations used to cross-check the package.

Everything in this file is deliberately written as a direct, brute-force
transcription of the underlying definitions.  None of it imports mtprep,
so a bug in the package cannot hide behind a shared helper.
"""

import math
from collections import Counter, defaultdict


def ngrams(tokens, n):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


# --- BLEU ------------------------------------------------------------------

def bleu_oracle(hyps, refs, max_n=4):
    """Corpus BLEU: geometric mean of clipped n-gram precisions times the
    brevity penalty.  Orders with no hypothesis n-grams contribute factor 1;
    a zero numerator at any order with a nonzero denominator gives 0."""
    log_sum = 0.0
    for n in range(1, max_n + 1):
        matched = 0
        total = 0
        for hyp, ref in zip(hyps, refs):
            hyp_counts = Counter(ngrams(hyp, n))
            ref_counts = Counter(ngrams(ref, n))
            for gram, count in hyp_counts.items():
                matched += min(count, ref_counts[gram])
            total += max(len(hyp) - n + 1, 0)
        if total == 0:
            continue
        if matched == 0:
            return 0.0
        log_sum += math.log(matched / total) / max_n
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_sum)


# --- NIST ------------------------------------------------------------------

def nist_information(gram, counts, total_words):
    """Info weight of a reference n-gram: log2(count(prefix) / count(gram))
    over the reference corpus, where counts holds every reference n-gram and
    the prefix count of a unigram is the reference word count total_words."""
    prefix = counts[gram[:-1]] if len(gram) > 1 else total_words
    return math.log2(prefix / counts[gram])


def nist_oracle(hyps, refs, max_n=5):
    """Information-weighted n-gram co-occurrence with the calibrated brevity
    factor.  Info weights come from the reference corpus of this run."""
    counts = Counter()
    total_words = 0
    for ref in refs:
        total_words += len(ref)
        for n in range(1, max_n + 1):
            counts.update(ngrams(ref, n))

    score = 0.0
    for n in range(1, max_n + 1):
        info_sum = 0.0
        total = 0
        for hyp, ref in zip(hyps, refs):
            hyp_counts = Counter(ngrams(hyp, n))
            ref_counts = Counter(ngrams(ref, n))
            for gram, count in hyp_counts.items():
                matched = min(count, ref_counts[gram])
                if matched:
                    info_sum += matched * nist_information(gram, counts, total_words)
            total += max(len(hyp) - n + 1, 0)
        if total:
            score += info_sum / total

    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    ratio = min(hyp_len / ref_len, 1.0)
    beta = math.log(0.5) / math.log(2.0 / 3.0) ** 2
    return score * math.exp(beta * math.log(ratio) ** 2)


# --- edit distance / TER ---------------------------------------------------

def levenshtein(a, b):
    """Word-level edit distance with unit insert/delete/substitute costs."""
    prev = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        cur = [i] + [0] * len(b)
        for j in range(1, len(b) + 1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (0 if a[i - 1] == b[j - 1] else 1),
            )
        prev = cur
    return prev[-1]


def wer_oracle(hyps, refs):
    return sum(levenshtein(h, r) for h, r in zip(hyps, refs)) / sum(
        len(r) for r in refs
    )


def shift_candidates(hyp, ref):
    """All (i, j, length) moves: hyp[i:i+length] equals ref[j:j+length]."""
    out = []
    for i in range(len(hyp)):
        for j in range(len(ref)):
            if i == j:
                continue
            length = 0
            while (
                i + length < len(hyp)
                and j + length < len(ref)
                and hyp[i + length] == ref[j + length]
            ):
                length += 1
                out.append((i, j, length))
    return out


def apply_shift(hyp, i, j, length):
    span = hyp[i : i + length]
    rest = hyp[:i] + hyp[i + length :]
    return rest[:j] + span + rest[j:]


def greedy_ter_oracle(hyp, ref):
    """Greedy shift search: repeatedly apply the shift that lowers the edit
    distance the most, the first in (i, j, length) order among equal gains,
    until none lowers it.  Returns (shifts, remaining edits)."""
    current = list(hyp)
    edits = levenshtein(current, ref)
    shifts = 0
    while edits > 0:
        best = None
        for i, j, length in shift_candidates(current, ref):
            shifted = apply_shift(current, i, j, length)
            e = levenshtein(shifted, ref)
            if e < edits and (best is None or e < best[0]):
                best = (e, shifted)
        if best is None:
            break
        edits, current = best
        shifts += 1
    return shifts, edits


def exhaustive_ter_edits(hyp, ref):
    """Minimum shifts + remaining edit distance over every shift sequence.

    Breadth-first search over hypothesis permutation states; the BFS layer
    is the number of shifts spent so far, so the first visit to a state uses
    the fewest shifts.  Layers that can no longer beat the best known total
    are pruned.  Only feasible for very short sentences.
    """
    start = tuple(hyp)
    best = levenshtein(hyp, ref)
    seen = {start}
    frontier = [start]
    depth = 0
    while frontier and depth + 1 < best:
        depth += 1
        nxt = []
        for state in frontier:
            for i, j, length in shift_candidates(state, ref):
                shifted = tuple(apply_shift(list(state), i, j, length))
                if shifted in seen:
                    continue
                seen.add(shifted)
                total = depth + levenshtein(shifted, ref)
                if total < best:
                    best = total
                nxt.append(shifted)
        frontier = nxt
    return best



def _bit_columns(eqs, full, top, start=None):
    """Bit-parallel edit-distance columns (Myers 1999, in Hyyrö's 2003
    form), one after each match mask of eqs, resumed from start (by default
    the empty prefix's column): (VP, VN, last row)."""
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
        ph = (ph << 1) | 1
        vp = ((mh << 1) | ~(xv | ph)) & full
        vn = ph & xv
        columns.append((vp, vn, score))
    return columns


def _scan_below(state, eqs, limits, full, top):
    """The last of _bit_columns, but resumed from state; None as soon as the
    last row reaches the limit paired with the token just scanned."""
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


def greedy_ter_scalar(hyp, ref):
    """greedy_ter_oracle's search, as mtprep scored it one candidate at a
    time before its candidates were packed into lanes: (shifts, remaining
    edits).

    Bit-parallel distances from stored columns, resumed after each shift,
    and a lower bound that drops a candidate as soon as it can at best tie
    the step's best (see _greedy_ter in mtprep.metrics.ter).  Far faster
    than greedy_ter_oracle, so it is the reference on long segments."""
    ref_length = len(ref)
    masks, back_masks = {}, {}
    for j, tok in enumerate(ref):
        masks[tok] = masks.get(tok, 0) | (1 << j)
        back_masks[tok] = back_masks.get(tok, 0) | (1 << (ref_length - 1 - j))
    full = (1 << ref_length) - 1
    top = 1 << (ref_length - 1)
    current = list(hyp)
    n = len(current)
    eqs = [masks.get(tok, 0) for tok in current]
    back_eqs = [back_masks.get(tok, 0) for tok in current]
    columns = _bit_columns(eqs, full, top)
    backward = _bit_columns(reversed(back_eqs), full, top)
    edits = columns[-1][2]
    shifts = 0
    floor = abs(n - ref_length)
    while edits > floor:
        slack = [ref_length - column[2] for column in reversed(backward)]
        best = None
        best_edits = edits
        cut = [edits + s for s in slack]
        for i, j, length in shift_candidates(current, ref):
            end = i + length
            if j < i:
                lo, mid, hi = j, i, end
            else:
                lo, mid, hi = i, end, min(j + length, n)
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
        move, lo, hi = best
        current = apply_shift(current, *move)
        eqs = apply_shift(eqs, *move)
        back_eqs = apply_shift(back_eqs, *move)
        columns = columns[:lo] + _bit_columns(eqs[lo:], full, top, columns[lo])
        backward = backward[: n - hi] + _bit_columns(
            back_eqs[hi - 1 :: -1], full, top, backward[n - hi]
        )
        edits = best_edits
        shifts += 1
    return shifts, edits


# --- splitting -------------------------------------------------------------

def preprocess_oracle(corpus, split, marker=None, tags=None):
    """Token by token: reject a token that holds the marker, pass a token
    tagged NNP through whole, split any other token with split(word) and
    mark every piece but the last.  tags, when given, has one tag per
    token."""
    out = []
    for k, sentence in enumerate(corpus):
        tokens = []
        for t, word in enumerate(sentence):
            if marker is not None and marker in word:
                raise ValueError(
                    f"sentence {k + 1}: input token {word!r} contains "
                    f"the marker {marker!r}"
                )
            if tags is not None and tags[k][t] == "NNP":
                tokens.append(word)
                continue
            pieces = split(word)
            if marker is not None:
                pieces = [piece + marker for piece in pieces[:-1]] + pieces[-1:]
            tokens.extend(pieces)
        out.append(tokens)
    return out


def longest_suffix_oracle(word, suffix_words):
    """Exhaustive scan for the longest strict suffix match."""
    matches = [
        s for s in set(suffix_words) if word.endswith(s) and len(word) > len(s)
    ]
    if not matches:
        return word, None
    best = max(matches, key=len)
    return word[: -len(best)], best


def compound_split_oracle(word, members, margin=5):
    """Per-member scan: strip the first member, in longest-first order with
    lexicographic ties, that the residue ends with, that is strictly shorter
    than the residue, and that leaves the word longer than it plus the
    margin; repeat until none fits.  Returns constituents in surface order."""
    ordered = sorted(set(members), key=lambda m: (-len(m), m))
    stripped = []
    residue = word
    while True:
        match = None
        for member in ordered:
            if (
                len(residue) > len(member)
                and len(word) > len(member) + margin
                and residue.endswith(member)
            ):
                match = member
                break
        if match is None:
            break
        stripped.append(match)
        residue = residue[: -len(match)]
    return [residue] + stripped[::-1]


def _longest_tail_unwindowed(residue, members, cap):
    """Longest tail of residue in members of at most cap characters, probing
    every length from the cap down to 1; 0 when none is listed."""
    for length in range(min(cap, len(residue)), 0, -1):
        if residue[-length:] in members:
            return length
    return 0


def token_pieces_oracle(word, config):
    """One token's pieces as the per-type split composed them before the
    length window: compound splitting (modes cs and cs+ss), then one
    strict suffix separation per constituent (ss and cs+ss), each probing
    every allowed tail length down to 1.  config is read by attribute
    (mode.value, compound_set.counts and .margin, suffix_list.suffixes);
    an empty word raises in every mode that splits."""
    mode = config.mode.value
    pieces = [word]
    if mode in ("cs", "cs+ss"):
        if not word:
            raise ValueError("cannot split an empty word")
        members = set(config.compound_set.counts)
        stripped = []
        residue = word
        while True:
            cap = min(len(residue) - 1, len(word) - config.compound_set.margin - 1)
            length = _longest_tail_unwindowed(residue, members, cap)
            if not length:
                break
            stripped.append(residue[-length:])
            residue = residue[:-length]
        pieces = [residue] + stripped[::-1]
    if mode in ("ss", "cs+ss"):
        members = set(config.suffix_list.suffixes)
        separated = []
        for constituent in pieces:
            if not constituent:
                raise ValueError("cannot split an empty word")
            length = _longest_tail_unwindowed(constituent, members, len(constituent) - 1)
            if length:
                separated += [constituent[:-length], constituent[-length:]]
            else:
                separated.append(constituent)
        pieces = separated
    return pieces


def induce_oracle(vocab_words, margin=5):
    """Plain double loop over the vocabulary: v is a compound suffix when
    some other word w satisfies w.endswith(v) and len(w) > len(v) + margin.
    The empty word is skipped, as induction skips it."""
    words = sorted(set(vocab_words) - {""})
    induced = {}
    for v in words:
        trailing = sum(
            1
            for w in words
            if w != v and w.endswith(v) and len(w) > len(v) + margin
        )
        if trailing:
            induced[v] = trailing
    return induced


# --- alignment text -------------------------------------------------------

def _digits(text):
    """text as an int if it is ASCII digits 0-9 that int() converts."""
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:  # more digits than int() converts
        return None


def parse_alignment_oracle(line):
    """The links of an "i-j i-j ..." line, each pair parsed on its own as two
    digit runs joined by "-"; the first other pair raises ValueError."""
    links = set()
    for pair in line.split():
        i, _, j = pair.partition("-")
        link = _digits(i), _digits(j)
        if None in link:
            raise ValueError(f"bad alignment pair {pair!r}")
        links.add(link)
    return links


def format_alignment_oracle(links):
    """The links as sorted "i-j" pairs, each formatted afresh."""
    return " ".join(f"{i}-{j}" for i, j in sorted(links))


# --- EM aligner ------------------------------------------------------------

NULL_TOKEN = "<null>"
PROB_FLOOR = 1e-12


def em_oracle(src_corpus, tgt_corpus, iterations=5, null_word=False):
    """Lexical-table EM with the null word prepended to every source
    sentence, looking up t(t|s) afresh for the denominator and again for
    each count.  Returns (probs, log-likelihood per iteration); pairs with
    an empty side are skipped, and none left raises ValueError."""
    pairs = []
    for src, tgt in zip(src_corpus, tgt_corpus):
        if src and tgt:
            pairs.append(([NULL_TOKEN] + src if null_word else src, tgt))
    if not pairs:
        raise ValueError("no non-empty sentence pairs to train on")

    cooc = defaultdict(set)
    for src, tgt in pairs:
        for s in set(src):
            cooc[s].update(tgt)
    probs = {
        s: {t: 1.0 / len(targets) for t in targets} for s, targets in cooc.items()
    }

    history = []
    for _ in range(iterations):
        counts = defaultdict(lambda: defaultdict(float))
        log_likelihood = 0.0
        for src, tgt in pairs:
            for t in tgt:
                denom = sum(probs[s].get(t, 0.0) for s in src)
                denom = max(denom, PROB_FLOOR)
                log_likelihood += math.log(denom / len(src))
                for s in src:
                    p = probs[s].get(t, 0.0)
                    if p:
                        counts[s][t] += p / denom
        history.append(log_likelihood)
        for s, dist in probs.items():
            total = sum(counts[s].values())
            if total < PROB_FLOOR:
                continue  # no evidence this round: keep the old distribution
            probs[s] = {t: c / total for t, c in counts[s].items()}
    return probs, tuple(history)


def table_rows_oracle(sources, runs, targets, p, dropped):
    """train_em's table from its flat cells: each source word's run of cells
    lo..hi as {target: t(t|s)}, testing each cell against dropped."""
    return {
        s: {targets[c]: p[c] for c in range(lo, hi) if c not in dropped}
        for s, (lo, hi) in zip(sources, runs)
    }


def viterbi_oracle(src, tgt, probs, has_null=False):
    """Each target's first strictly best source position, the null word
    (position -1, tried first) taking no link."""

    def prob(s, t):
        return probs.get(s, {}).get(t, 0.0)

    links = set()
    for j, t in enumerate(tgt):
        best_i = None
        best_p = -1.0
        if has_null:
            best_i = -1
            best_p = prob(NULL_TOKEN, t)
        for i, s in enumerate(src):
            p = prob(s, t)
            if p > best_p:
                best_i = i
                best_p = p
        if best_i is not None and best_i >= 0:
            links.add((best_i, j))
    return links
