"""Reversible-segmentation markers.

A marker is a short tag (for example "@@") appended to every piece of a
split word except the last one, so a token stream like

    mahiny@@ aaMnii

can be joined back into the original word.  The marker is a rendering
convention for the tools in this package, not part of the splitting
algorithms themselves.
"""

from __future__ import annotations

from .corpus import is_token


def check_marker(marker: str | None) -> None:
    """A marker must be one token: a marker with whitespace in it would
    split the marked piece in the written corpus (or add a line), so
    reconstruct could not undo it."""
    if marker is not None and not is_token(marker):
        raise ValueError("marker must be None or non-empty without whitespace")


def mark_pieces(pieces: list[str], marker: str | None) -> list[str]:
    """Append the marker to every piece except the last."""
    if marker is None or len(pieces) <= 1:
        return list(pieces)
    return [piece + marker for piece in pieces[:-1]] + [pieces[-1]]


def join_marked(tokens: list[str], marker: str) -> list[str]:
    """Merge marker-bearing tokens with their successors.

    Raises ValueError if a sentence ends while a join is still pending
    (a dangling marker).
    """
    check_marker(marker)
    joined: list[str] = []
    pending = ""
    open_join = False
    for token in tokens:
        if token.endswith(marker):
            pending += token[: -len(marker)]
            open_join = True
        else:
            joined.append(pending + token)
            pending = ""
            open_join = False
    if open_join:
        raise ValueError(f"dangling marker {marker!r} at end of sentence")
    return joined
