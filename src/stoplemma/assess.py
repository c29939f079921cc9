"""Cross-lingual coverage assessment of a stop-lemma list.

An external (e.g. English) stop word list is mapped to Hindi surface forms via
a hand-maintained translation file, lemmatized, and checked for membership in
the stop-lemma list.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .lemma import LemmaLexicon, gen_lemma
from .normalize import read_records, write_json

UNTRANSLATABLE_MARK = "!"


@dataclass(frozen=True)
class TranslationMapping:
    pairs: dict[str, tuple[str, ...]]  # external word -> Hindi surface forms
    untranslatable: frozenset[str]

    @property
    def external_total(self) -> int:
        return len(self.pairs) + len(self.untranslatable)


@dataclass(frozen=True)
class CoverageReport:
    external_total: int
    untranslatable_count: int
    mapped_lemma_set: frozenset[str]
    hits: frozenset[str]
    misses: frozenset[str]

    @property
    def coverage_ratio(self) -> Optional[float]:
        if not self.mapped_lemma_set:
            return None
        return len(self.hits) / len(self.mapped_lemma_set)


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
    hits = {l for l in mapped if l in stop_lemmas}
    return CoverageReport(
        external_total=mapping.external_total,
        untranslatable_count=len(mapping.untranslatable),
        mapped_lemma_set=frozenset(mapped),
        hits=frozenset(hits),
        misses=frozenset(mapped - hits),
    )


def write_coverage_json(report: CoverageReport, path: str | Path) -> None:
    payload = {
        "external_total": report.external_total,
        "untranslatable_count": report.untranslatable_count,
        "mapped_lemma_count": len(report.mapped_lemma_set),
        "hit_count": len(report.hits),
        "miss_count": len(report.misses),
        "misses": sorted(report.misses),
        "coverage_ratio": report.coverage_ratio,
    }
    write_json(payload, path)


def format_summary(report: CoverageReport) -> str:
    ratio = report.coverage_ratio
    lines = [
        f"external words: {report.external_total} "
        f"({report.untranslatable_count} untranslatable)",
        f"mapped lemmas: {len(report.mapped_lemma_set)}",
        f"present in stop-lemma list: {len(report.hits)}",
        f"absent: {len(report.misses)}" + (f" ({', '.join(sorted(report.misses))})" if report.misses else ""),
        "coverage: " + (f"{len(report.hits)}/{len(report.mapped_lemma_set)} = {ratio:.4f}" if ratio is not None else "undefined"),
    ]
    return "\n".join(lines)
