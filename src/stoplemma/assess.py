"""Cross-lingual coverage assessment of a stop-lemma list.

An external (e.g. English) stop word list is mapped to Hindi surface forms via
a hand-maintained translation file, lemmatized, and checked for membership in
the stop-lemma list.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, NamedTuple

from .lemma import LemmaLexicon, gen_lemma
from .normalize import read_records

UNTRANSLATABLE_MARK = "!"


class CoverageReport(NamedTuple):
    mapped_lemma_set: frozenset[str]
    hits: frozenset[str]


def load_mapping(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Word -> Hindi forms from ``external<TAB>hindi1[,hindi2,...]`` lines; ``external<TAB>!`` gives ``()``."""
    mapping: dict[str, tuple[str, ...]] = {}
    for lineno, (external, targets) in read_records(path, 2):
        if targets == UNTRANSLATABLE_MARK:
            forms = ()
        else:
            forms = tuple(t.strip() for t in targets.split(",") if t.strip())
            if not forms:
                raise ValueError(f"{path}:{lineno}: no targets for {external!r}")
        if mapping.setdefault(external, forms) != forms:
            raise ValueError(f"{path}:{lineno}: conflicting targets for {external!r}")
    return mapping


def assess_coverage(
    mapping: Mapping[str, tuple[str, ...]],
    lex: LemmaLexicon,
    stop_lemmas: set[str],
) -> CoverageReport:
    """Lemmatize every mapped Hindi form and measure membership in the list."""
    mapped = gen_lemma((form for forms in mapping.values() for form in forms), lex)
    return CoverageReport(
        mapped_lemma_set=frozenset(mapped),
        hits=frozenset(l for l in mapped if l in stop_lemmas),
    )


def coverage_summary(mapping: Mapping[str, tuple[str, ...]], lex: LemmaLexicon,
                     stop_lemmas: set[str]) -> dict:
    """The ``coverage.json`` summary; the ratio, over mapped lemmas only, is None when there are none."""
    report = assess_coverage(mapping, lex, stop_lemmas)
    mapped, hits = len(report.mapped_lemma_set), len(report.hits)
    misses = sorted(report.mapped_lemma_set - report.hits)
    return {
        "external_total": len(mapping),
        "untranslatable_count": list(mapping.values()).count(()),
        "mapped_lemma_count": mapped,
        "hit_count": hits,
        "miss_count": len(misses),
        "misses": misses,
        "coverage_ratio": hits / mapped if mapped else None,
    }


def format_summary(summary: dict) -> str:
    """``coverage.txt``: the ``coverage_summary`` dict as lines of text."""
    hits, mapped, ratio = summary["hit_count"], summary["mapped_lemma_count"], summary["coverage_ratio"]
    misses = summary["misses"]
    lines = [
        f"external words: {summary['external_total']} ({summary['untranslatable_count']} untranslatable)",
        f"mapped lemmas: {mapped}",
        f"present in stop-lemma list: {hits}",
        f"absent: {summary['miss_count']}" + (f" ({', '.join(misses)})" if misses else ""),
        "coverage: " + (f"{hits}/{mapped} = {ratio:.4f}" if ratio is not None else "undefined"),
    ]
    return "\n".join(lines)
