"""Top-k overlap consistency and point-biserial rank/POS correlation."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .freq import FrequencyTable, RankedList, rank_items, top_k, write_tsv
from .normalize import read_pairs, write_json


class UndefinedCorrelationError(ValueError):
    """Constant membership or zero rank variance: r is undefined."""


@dataclass(frozen=True)
class OverlapReport:
    k: int
    source_count: int
    counts: dict[str, int]  # item -> number of sources with it in their top-k
    short_sources: tuple[str, ...] = ()

    @property
    def unique_items(self) -> int:
        return len(self.counts)

    @property
    def max_count(self) -> int:
        return max(self.counts.values()) if self.counts else 0


@dataclass(frozen=True)
class PosLexicon:
    tags: Mapping[str, str]

    def tag_of(self, item: str) -> str:
        return self.tags.get(item, "other")


@dataclass(frozen=True)
class TagGroup:
    name: str
    members: frozenset[str]


# The seven default groups mirror the POS categories of the correlation table.
DEFAULT_GROUPS = (
    TagGroup("NN/NNP/NNPC", frozenset({"NN", "NNP", "NNPC"})),
    TagGroup("PSP/PRP", frozenset({"PSP", "PRP"})),
    TagGroup("SYM", frozenset({"SYM"})),
    TagGroup("VM", frozenset({"VM"})),
    TagGroup("QC/QF/QO", frozenset({"QC", "QF", "QO"})),
    TagGroup("NEG", frozenset({"NEG"})),
    TagGroup("CC", frozenset({"CC"})),
)


@dataclass(frozen=True)
class CorrelationCell:
    group: str
    source_id: str
    r: Optional[float]
    p: Optional[float]
    n1: int
    n0: int
    error: Optional[str] = None


@dataclass(frozen=True)
class GroupSummary:
    group: str
    mean_r: Optional[float]
    sd_r: Optional[float]
    max_r: Optional[float]
    min_r: Optional[float]
    mean_p: Optional[float]
    sd_p: Optional[float]
    defined_sources: int
    flagged_sources: tuple[str, ...]


@dataclass(frozen=True)
class CorrelationReport:
    cells: tuple[CorrelationCell, ...]
    summaries: tuple[GroupSummary, ...]
    depth: int


def load_pos_lexicon(path: str | Path) -> PosLexicon:
    return PosLexicon(tags=read_pairs(path))


def top_k_overlap(lists: Sequence[RankedList], k: int, source_ids: Sequence[str] | None = None) -> OverlapReport:
    """Count, per item, in how many sources it appears among the top k."""
    if len(lists) < 2:
        raise ValueError("overlap needs at least two ranked lists")
    if source_ids is None:
        source_ids = [str(i) for i in range(len(lists))]
    counts = Counter(item for ranked in lists for item in set(top_k(ranked, k)))
    short = tuple(sid for sid, ranked in zip(source_ids, lists) if len(ranked.entries) < k)
    return OverlapReport(k=k, source_count=len(lists), counts=counts, short_sources=short)


def point_biserial(membership: Sequence[int], ranks: Sequence[float]) -> tuple[float, float]:
    """r between a 0/1 variable and a rank variable, with a two-tailed t p-value.

    r = ((M1 - M0) / s_n) * sqrt(n1*n0 / n^2) with s_n the population standard
    deviation of the ranks; p comes from t = r*sqrt((n-2)/(1-r^2)) on n-2
    degrees of freedom.
    """
    n = len(membership)
    if n != len(ranks):
        raise ValueError("membership and ranks must have equal length")
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    if any(m not in (0, 1) for m in membership):
        raise ValueError("membership values must be 0 or 1")
    n1 = sum(membership)
    n0 = n - n1
    if n1 == 0 or n0 == 0:
        raise UndefinedCorrelationError("membership is constant")
    mean = sum(ranks) / n
    var = sum((x - mean) ** 2 for x in ranks) / n
    if not math.isfinite(var):  # a sum overflowed to inf, which raises nothing
        raise OverflowError("sum of values out of floating-point range")
    if var == 0:
        raise UndefinedCorrelationError("ranks have zero variance")
    m1 = sum(x for m, x in zip(membership, ranks) if m == 1) / n1
    m0 = sum(x for m, x in zip(membership, ranks) if m == 0) / n0
    r = ((m1 - m0) / math.sqrt(var)) * math.sqrt(n1 * n0 / n**2)
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        p = 0.0
    else:
        # imported here, not at module level: scipy costs every other subcommand
        # most of its start-up time and memory, and only this call needs it
        from scipy import stats as _scipy_stats

        t = r * math.sqrt((n - 2) / (1 - r * r))
        p = 2 * _scipy_stats.t.sf(abs(t), n - 2)
    return r, p


def descriptive_stats(values: Sequence[float]) -> tuple[float, Optional[float], float, float]:
    """(mean, sample sd, max, min); sd is None for a single value."""
    if not values:
        raise ValueError("descriptive_stats needs at least one value")
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        sd = None
    else:
        sd = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
    return mean, sd, max(values), min(values)


def pos_rank_analysis(
    lists: Sequence[RankedList],
    lex: PosLexicon,
    depth: Optional[int] = None,
    source_ids: Sequence[str] | None = None,
    use_frequency: bool = False,
) -> CorrelationReport:
    """Correlate POS-group membership with rank over each source's top entries.

    Cells where r is undefined (a group absent or omnipresent in a source) are
    flagged and excluded from that group's descriptive statistics.  ``depth``,
    when given, must be at least 1; by default every entry is used.
    """
    if depth is not None and depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if source_ids is None:
        source_ids = [str(i) for i in range(len(lists))]
    cells: list[CorrelationCell] = []
    summaries: list[GroupSummary] = []
    actual_depth = depth or max((len(l.entries) for l in lists), default=0)
    for group in DEFAULT_GROUPS:
        rs, ps, flagged = [], [], []
        for sid, ranked in zip(source_ids, lists):
            entries = ranked.entries[:depth]
            if len(entries) < 3:
                cells.append(CorrelationCell(group.name, sid, None, None, 0, 0,
                                             error="fewer than 3 entries"))
                flagged.append(sid)
                continue
            membership = [1 if lex.tag_of(item) in group.members else 0 for item, _ in entries]
            n1 = sum(membership)
            n0 = len(membership) - n1
            try:
                values = [float(count) if use_frequency else float(rank)
                          for rank, (_, count) in enumerate(entries, start=1)]
                r, p = point_biserial(membership, values)
            except UndefinedCorrelationError as exc:
                cells.append(CorrelationCell(group.name, sid, None, None, n1, n0,
                                             error=str(exc)))
                flagged.append(sid)
                continue
            except OverflowError as exc:  # a count beyond what a float holds
                raise ValueError(f"source {sid}: count too large to correlate: {exc}") from None
            cells.append(CorrelationCell(group.name, sid, r, p, n1, n0))
            rs.append(r)
            ps.append(p)
        if rs:
            mean_r, sd_r, max_r, min_r = descriptive_stats(rs)
            mean_p, sd_p, _, _ = descriptive_stats(ps)
        else:
            mean_r = sd_r = max_r = min_r = mean_p = sd_p = None
        summaries.append(GroupSummary(
            group=group.name, mean_r=mean_r, sd_r=sd_r, max_r=max_r, min_r=min_r,
            mean_p=mean_p, sd_p=sd_p, defined_sources=len(rs),
            flagged_sources=tuple(flagged),
        ))
    return CorrelationReport(cells=tuple(cells), summaries=tuple(summaries), depth=actual_depth)


def reject_pos_hypothesis(report: CorrelationReport, threshold: float = 0.5) -> bool:
    """True when no POS group shows |mean r| above the threshold."""
    return all(
        s.mean_r is None or abs(s.mean_r) <= threshold
        for s in report.summaries
    )


def write_overlap_tsv(report: OverlapReport, path: str | Path) -> None:
    """Word-cloud data: ``item<TAB>count`` ordered by count desc, codepoint ties."""
    write_tsv(rank_items(FrequencyTable("item", report.counts, "overlap")), path)


def write_correlation_tsv(report: CorrelationReport, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("Part of Speech\tMean\tSD\tMax\tMin\tP Mean\tP SD\n")
        for s in report.summaries:
            def fmt(v):
                return "" if v is None else f"{v:.4f}"
            fh.write("\t".join([s.group, fmt(s.mean_r), fmt(s.sd_r), fmt(s.max_r),
                                fmt(s.min_r), fmt(s.mean_p), fmt(s.sd_p)]) + "\n")


def write_correlation_json(report: CorrelationReport, path: str | Path) -> None:
    write_json(asdict(report), path)
