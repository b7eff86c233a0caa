"""CSV text of the output tables, formatted a block of lines at a time.

A line is a head (its first cell, such as the step) followed by fixed text
and ``%.12g`` number fields.  The lines of a block share its head, so the
block's template is its line templates joined by that head, and one ``%``
fills every number of the block from one flat sequence; one f-string per
line or per cell spends most of its time in the interpreter instead.
Each number reads as ``f"{v:.12g}"`` writes it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

__all__ = ["blocks", "line"]


def line(cells: Iterable[str | None]) -> str:
    """The template of one line after its head: every cell after a comma,
    ``None`` a number field and a string fixed text."""
    return "".join("," + ("%.12g" if c is None else c.replace("%", "%%")) for c in cells) + "\n"


def blocks(
    heads: Iterable[str], lines: Sequence[str], values: Iterable[Sequence[float]]
) -> Iterator[str]:
    """One text block per head: that head before every template of
    ``lines`` (from :func:`line`), whose number fields take the block's
    ``values`` in order."""
    parts = ["", *lines]
    for head, block_values in zip(heads, values, strict=True):
        yield head.replace("%", "%%").join(parts) % tuple(block_values)
