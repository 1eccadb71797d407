"""Plain transcriptions of the compound rules, used to check sampled output.

Nothing here imports mtprep, so a fault in the package cannot hide behind a
shared helper.  The suffix rule's oracle lives in tests/oracles.py.
"""

MARGIN = 5  # the CLI's default length margin, used by every workload


def split_compound_oracle(word, members, margin=MARGIN):
    """Strip the longest member off the right edge of the residue, repeatedly.

    A member may be stripped when the residue ends with it, is strictly
    longer than it, and the original word is longer than the member plus
    the margin.  Returns the constituents in surface order.
    """
    stripped = []
    residue = word
    while True:
        fits = [
            m for m in members
            if residue.endswith(m) and len(residue) > len(m) and len(word) > len(m) + margin
        ]
        if not fits:
            break
        best = max(fits, key=len)
        stripped.append(best)
        residue = residue[: -len(best)]
    return [residue] + stripped[::-1]


def tail_count_oracle(word, vocabulary, margin=MARGIN):
    """How many other vocabulary words end with `word` and are longer than
    it by more than the margin: the induced count (0 means not a member)."""
    return sum(
        1 for w in vocabulary
        if w != word and w.endswith(word) and len(w) > len(word) + margin
    )
