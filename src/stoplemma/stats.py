"""Top-k overlap consistency and point-biserial rank/POS correlation."""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .freq import RankedList, top_k
from .normalize import read_pairs


class UndefinedCorrelationError(ValueError):
    """Constant membership or equal counts: r is undefined."""


# The seven default groups mirror the POS categories of the correlation table.
DEFAULT_GROUPS = {
    "NN/NNP/NNPC": frozenset({"NN", "NNP", "NNPC"}),
    "PSP/PRP": frozenset({"PSP", "PRP"}),
    "SYM": frozenset({"SYM"}),
    "VM": frozenset({"VM"}),
    "QC/QF/QO": frozenset({"QC", "QF", "QO"}),
    "NEG": frozenset({"NEG"}),
    "CC": frozenset({"CC"}),
}
# the groups are disjoint, so a tag names at most one of them
_GROUP_OF_TAG = {tag: g for g, tags in enumerate(DEFAULT_GROUPS.values()) for tag in tags}


def load_pos_lexicon(path: str | Path) -> dict[str, str]:
    """``item -> POS tag``; an item it lacks, or whose tag no group lists, belongs to no group."""
    return read_pairs(path)


def top_k_overlap(lists: Mapping[str, RankedList], k: int) -> Counter:
    """Count, per item, in how many ranked lists (keyed by source ID) it is among the top k."""
    if len(lists) < 2:
        raise ValueError("overlap needs at least two ranked lists")
    return Counter(item for ranked in lists.values() for item in set(top_k(ranked, k)))


def point_biserial(membership: Sequence[int], ranks: Sequence[float]) -> tuple[float, float]:
    """r between a 0/1 variable and a rank (or count) variable, with a two-tailed t p-value.

    r = ((M1 - M0) / s_n) * sqrt(n1*n0 / n^2) with s_n the population standard
    deviation of the ranks; p comes from t = r*sqrt((n-2)/(1-r^2)) on n-2
    degrees of freedom.  Every sum runs over the values as given, in their
    order; this is the reference that ``pos_rank_analysis`` reproduces.
    """
    n = len(membership)
    if n != len(ranks):
        raise ValueError("membership and ranks must have equal length")
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    if any(m not in (0, 1) for m in membership):
        raise ValueError("membership values must be 0 or 1")
    var = _population_variance(ranks)
    s1 = sum(x for m, x in zip(membership, ranks) if m == 1)
    s0 = sum(x for m, x in zip(membership, ranks) if m == 0)
    return _r_and_p(n, sum(membership), s1, s0, var)


def _mean_and_ss(values: Sequence[float]) -> tuple[float, float]:
    """The mean of the values and the sum of their squared deviations from it."""
    mean = sum(values) / len(values)
    return mean, sum((x - mean) ** 2 for x in values)


def _population_variance(values: Sequence[float]) -> float:
    var = _mean_and_ss(values)[1] / len(values)
    if not math.isfinite(var):  # a sum overflowed to inf, which raises nothing
        raise OverflowError("sum of values out of floating-point range")
    return var


def _r_and_p(n: int, n1: int, s1: float, s0: float, var: Optional[float], squares=None) -> tuple[float, float]:
    """point_biserial's r and p from the member count, both groups' sums and the population variance."""
    n0 = n - n1
    if n1 == 0 or n0 == 0:
        raise UndefinedCorrelationError("membership is constant")
    if var == 0:  # distinct ranks vary, so only counts can be all equal
        raise UndefinedCorrelationError("counts have zero variance")
    # from the exact sums and sum of squares, an exact r of ±1, which the float r may miss in its last bits
    if squares is not None and n0 * s1 != n1 * s0 and n0 * s1 * s1 + n1 * s0 * s0 == n1 * n0 * squares:
        return (1.0 if n0 * s1 > n1 * s0 else -1.0), 0.0
    r = ((s1 / n1 - s0 / n0) / math.sqrt(var)) * math.sqrt(n1 * n0 / n**2)
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return r, 0.0
    # imported here, not at module level: scipy costs every other subcommand
    # most of its start-up time and memory, and only this call needs it.
    # stdtr(df, -t) is the t distribution's upper tail at t, the same float
    # as scipy's t distribution object gives, at a third of its import time
    from scipy.special import stdtr

    t = r * math.sqrt((n - 2) / (1 - r * r))
    return r, 2 * float(stdtr(n - 2, -abs(t)))


def descriptive_stats(values: Sequence[float]) -> tuple[float, Optional[float], float, float]:
    """(mean, sample sd, max, min); sd is None for a single value."""
    if not values:
        raise ValueError("descriptive_stats needs at least one value")
    n = len(values)
    mean, ss = _mean_and_ss(values)
    sd = None if n < 2 else math.sqrt(ss / (n - 1))
    return mean, sd, max(values), min(values)


def pos_rank_analysis(
    lists: Mapping[str, RankedList],
    tags: Mapping[str, str],
    depth: Optional[int] = None,
    use_frequency: bool = False,
) -> dict:
    """The ``posstats.json`` dict: POS-group membership against rank over each source's top entries.

    ``lists`` maps each source ID to its ranked list; ``cells`` (see ``_cell``)
    go group by group, in that order within a group.  ``tags`` maps an item
    to its POS tag.  Cells where r is undefined (a group absent or
    omnipresent in a source) are flagged and excluded from that group's
    summary.  ``depth``, when given, must be at least 1; by default every
    entry is used.  The dict's ``depth`` is the entries correlated per source:
    the smaller of ``depth`` and the longest list's length.

    Each cell has the r and p of ``point_biserial`` over the source's 0/1
    group membership and its ranks (or, with ``use_frequency``, its counts).
    The group means come from exact integer sums, so they equal
    ``point_biserial``'s in-order float sums while every sum stays below
    2**53; above that they are the correctly rounded means.  An exact r of
    ±1, as two count values that a group splits give, is ±1.0, with p 0.0.
    """
    if depth is not None and depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    longest = max(map(len, lists.values()), default=0)
    columns = []  # columns[s][g] is the cell of group g in source s
    for sid, ranked in lists.items():
        try:
            columns.append(_source_cells(sid, ranked.entries[:depth], tags, use_frequency))
        except OverflowError as exc:  # a count beyond what a float holds
            raise ValueError(f"source {sid}: count too large to correlate: {exc}") from None
    cells, summaries = [], []
    for g, group in enumerate(DEFAULT_GROUPS):
        row = [column[g] for column in columns]
        cells += row
        rs = [c["r"] for c in row if c["error"] is None]
        ps = [c["p"] for c in row if c["error"] is None]
        mean_r, sd_r, max_r, min_r = descriptive_stats(rs) if rs else (None,) * 4
        mean_p, sd_p, _, _ = descriptive_stats(ps) if ps else (None,) * 4
        summaries.append({
            "group": group, "mean_r": mean_r, "sd_r": sd_r, "max_r": max_r, "min_r": min_r,
            "mean_p": mean_p, "sd_p": sd_p, "defined_sources": len(rs),
            "flagged_sources": [c["source_id"] for c in row if c["error"] is not None],
        })
    return {"cells": cells, "summaries": summaries, "depth": min(depth or longest, longest)}


def _cell(group: str, sid: str, n1: int, n0: int, r=None, p=None, error=None) -> dict:
    """One ``posstats.json`` cell; r and p are None where ``error`` says why r is undefined."""
    return {"group": group, "source_id": sid, "r": r, "p": p, "n1": n1, "n0": n0, "error": error}


def _source_cells(sid: str, entries: Sequence[tuple[str, int]], tags: Mapping[str, str],
                  use_frequency: bool) -> list[dict]:
    """One source's cell for each of DEFAULT_GROUPS, in their order."""
    n = len(entries)
    if n < 3:
        return [_cell(group, sid, 0, 0, error="fewer than 3 entries") for group in DEFAULT_GROUPS]
    if use_frequency:
        ints = [count for _, count in entries]
        # counts become floats before any cell: one that no float holds fails
        # the source even when every group is flagged
        values = [float(count) for count in ints]
        squares = sum(count * count for count in ints)
    else:
        ints = values = range(1, n + 1)
        squares = n * (n + 1) * (2 * n + 1) // 6
    other = len(DEFAULT_GROUPS)  # the bucket of entries in no group
    sizes, sums = [0] * (other + 1), [0] * (other + 1)
    for (item, _), value in zip(entries, ints):
        g = _GROUP_OF_TAG.get(tags.get(item), other)
        sizes[g] += 1
        sums[g] += value
    total = sum(sums)
    # only a group with members and non-members reaches the variance
    var = _population_variance(values) if any(0 < size < n for size in sizes[:other]) else None
    cells = []
    for g, group in enumerate(DEFAULT_GROUPS):
        n1, n0 = sizes[g], n - sizes[g]
        try:
            r, p = _r_and_p(n, n1, sums[g], total - sums[g], var, squares)
        except UndefinedCorrelationError as exc:
            cells.append(_cell(group, sid, n1, n0, error=str(exc)))
        else:
            cells.append(_cell(group, sid, n1, n0, r, p))
    return cells


def reject_pos_hypothesis(report: dict, threshold: float) -> bool:
    """True when no POS group of a ``pos_rank_analysis`` report shows |mean r| above the threshold."""
    return all(
        s["mean_r"] is None or abs(s["mean_r"]) <= threshold
        for s in report["summaries"]
    )


def write_correlation_tsv(report: dict, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("Part of Speech\tMean\tSD\tMax\tMin\tP Mean\tP SD\n")
        for s in report["summaries"]:
            values = [s[key] for key in ("mean_r", "sd_r", "max_r", "min_r", "mean_p", "sd_p")]
            fh.write("\t".join([s["group"], *("" if v is None else f"{v:.4f}" for v in values)]) + "\n")
