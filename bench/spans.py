"""Self time of recorded spans.

A span is ``(name, start, end, parent)`` with ``parent`` the index of the span
that caused it, or -1 for a root.  A span's self time is its duration minus
the durations of its direct child spans.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from pathlib import Path
from typing import Sequence

# Column order and array typecodes of a span file: name id, parent index,
# run id, start and end in nanoseconds.
COLUMNS = (("name", "i"), ("parent", "i"), ("run", "i"), ("start", "q"), ("end", "q"))


def write_spans(path: Path, columns: dict[str, array]) -> None:
    with path.open("wb") as fh:
        for key, code in COLUMNS:
            if columns[key].typecode != code:
                raise ValueError(f"span column {key} must have typecode {code!r}")
            columns[key].tofile(fh)


def read_spans(path: Path, count: int) -> dict[str, array]:
    columns = {}
    with path.open("rb") as fh:
        for key, code in COLUMNS:
            columns[key] = array(code)
            columns[key].fromfile(fh, count)
    return columns


def self_times(starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]) -> list[float]:
    """Self time of every span, in the unit of ``starts`` and ``ends``.

    The tracer is synchronous and single-threaded, so a span's children run
    one after another inside it and their durations simply add up.
    """
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


def self_time_by_name(names: Sequence[str], starts, ends, parents) -> dict[str, float]:
    """Summed self time per span name."""
    totals: dict[str, float] = defaultdict(float)
    for name, t in zip(names, self_times(starts, ends, parents)):
        totals[name] += t
    return dict(totals)
