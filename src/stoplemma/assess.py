"""Cross-lingual coverage assessment of a stop-lemma list.

An external (e.g. English) stop word list is mapped to Hindi surface forms via
a hand-maintained translation file, lemmatized, and checked for membership in
the stop-lemma list.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .lemma import LemmaLexicon, gen_lemma
from .normalize import read_records

UNTRANSLATABLE_MARK = "!"


@dataclass(frozen=True)
class TranslationMapping:
    pairs: dict[str, tuple[str, ...]]  # external word -> Hindi surface forms
    untranslatable: frozenset[str]


@dataclass(frozen=True)
class CoverageReport:
    external_total: int
    untranslatable_count: int
    mapped_lemma_set: frozenset[str]
    hits: frozenset[str]


def load_mapping(path: str | Path) -> TranslationMapping:
    """TSV: ``external<TAB>hindi1[,hindi2,...]`` or ``external<TAB>!``."""
    pairs: dict[str, tuple[str, ...]] = {}
    untranslatable: set[str] = set()
    for lineno, (external, targets) in read_records(path, 2):
        if targets == UNTRANSLATABLE_MARK:
            if external in pairs:
                raise ValueError(f"{path}:{lineno}: {external!r} is both mapped and untranslatable")
            untranslatable.add(external)
            continue
        forms = tuple(t.strip() for t in targets.split(",") if t.strip())
        if not forms:
            raise ValueError(f"{path}:{lineno}: no targets for {external!r}")
        if external in untranslatable:
            raise ValueError(f"{path}:{lineno}: {external!r} is both mapped and untranslatable")
        if pairs.setdefault(external, forms) != forms:
            raise ValueError(f"{path}:{lineno}: conflicting targets for {external!r}")
    return TranslationMapping(pairs=pairs, untranslatable=frozenset(untranslatable))


def assess_coverage(
    mapping: TranslationMapping,
    lex: LemmaLexicon,
    stop_lemmas: set[str],
) -> CoverageReport:
    """Lemmatize every mapped Hindi form and measure membership in the list.

    Untranslatable externals are excluded from the denominator.
    """
    mapped = gen_lemma((form for targets in mapping.pairs.values() for form in targets), lex)
    return CoverageReport(
        external_total=len(mapping.pairs) + len(mapping.untranslatable),
        untranslatable_count=len(mapping.untranslatable),
        mapped_lemma_set=frozenset(mapped),
        hits=frozenset(l for l in mapped if l in stop_lemmas),
    )


def coverage_summary(report: CoverageReport) -> dict:
    """The ``coverage.json`` summary; the ratio is None when no lemma is mapped."""
    mapped, hits = len(report.mapped_lemma_set), len(report.hits)
    misses = sorted(report.mapped_lemma_set - report.hits)
    return {
        "external_total": report.external_total,
        "untranslatable_count": report.untranslatable_count,
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
