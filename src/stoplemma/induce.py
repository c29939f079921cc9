"""Stop-lemma induction: lemmatized stop-list union ∩ corpus top-k union."""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .freq import RankedList, merge_counts, rank_items, top_k
from .lemma import LemmaLexicon, gen_lemma
from .normalize import read_records

DEFAULT_K = 100


def load_stopword_list(path: str | Path) -> Counter:
    """Entry (inner whitespace collapsed) -> lines holding it, in published rank order; ``#`` comments."""
    entries = Counter(" ".join(entry.split()) for _, (entry,) in read_records(path, 1))
    if not entries:
        raise ValueError(f"{path}: stop word list is empty")
    return entries


def build_set_a(lists: Sequence[Counter], lex: LemmaLexicon, k: int = DEFAULT_K) -> set[str]:
    """Union of lemmatized top-k prefixes of the published stop word lists."""
    if not lists:
        raise ValueError("need at least one stop word list")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    result: set[str] = set()
    for entries in lists:
        result |= gen_lemma(list(entries)[:k], lex)
    return result


def build_set_b(lemma_tables: Iterable[Mapping[str, int]], k: int = DEFAULT_K) -> set[str]:
    """Union of each corpus's top-k most frequent lemmas; each table is ranked as it is read, one at a time."""
    result: set[str] = set()
    table = None
    for table in lemma_tables:
        result.update(top_k(rank_items(table), k))
    if table is None:
        raise ValueError("need at least one lemma table")
    return result


def build_final_list(
    set_a: set[str],
    set_b: set[str],
    lemma_tables: Sequence[Mapping[str, int]],
) -> RankedList:
    """A ∩ B as (lemma, count summed over ``lemma_tables``) entries, ranked as ``rank_items`` ranks."""
    common = set_a & set_b
    aggregate_counts = aggregate_lemma_counts(lemma_tables)
    missing = sorted(l for l in common if l not in aggregate_counts)
    if missing:
        raise ValueError(f"no aggregate count for lemmas: {missing}")
    return rank_items({l: aggregate_counts[l] for l in common})


def aggregate_lemma_counts(tables: Sequence[Mapping[str, int]]) -> dict[str, int]:
    """Sum raw lemma counts over all contributing corpora."""
    return dict(merge_counts(tables))


def induction_report(
    lists: Sequence[Counter],
    set_a: set[str],
    set_b: set[str],
    final: RankedList,
) -> dict:
    """The ``induction_report.json`` summary; the raw total counts in-file duplicates too."""
    return {
        "raw_word_total": sum(entries.total() for entries in lists),
        "deduped_word_total": len(set().union(*lists)),
        "set_a_size": len(set_a),
        "set_b_size": len(set_b),
        "final_size": len(final),
    }


def write_stoplemma_list(final: RankedList, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for lemma, _ in final.entries:
            fh.write(lemma + "\n")
