"""Stop-lemma induction: lemmatized stop-list union ∩ corpus top-k union."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .freq import FrequencyTable, RankedList, merge_counts, rank_items, top_k
from .lemma import LemmaLexicon, gen_lemma
from .normalize import read_records

DEFAULT_K = 100


class InductionError(ValueError):
    pass


@dataclass(frozen=True)
class StopWordList:
    source_id: str
    entries: tuple[str, ...]  # published rank order, deduplicated
    duplicates_removed: int = 0


@dataclass(frozen=True)
class StopLemmaList:
    lemmas: tuple[tuple[str, int], ...]  # (lemma, aggregate count), count-descending

    def __len__(self) -> int:
        return len(self.lemmas)


@dataclass(frozen=True)
class InductionReport:
    raw_word_total: int
    deduped_word_total: int
    set_a_size: int
    set_b_size: int
    final_size: int


def load_stopword_list(path: str | Path, source_id: str) -> StopWordList:
    """One entry per line, ``#`` comments, in-file duplicates dropped."""
    records = list(read_records(path, 1, InductionError))
    entries = dict.fromkeys(" ".join(entry.split()) for _, (entry,) in records)
    if not entries:
        raise InductionError(f"{path}: stop word list is empty")
    return StopWordList(source_id=source_id, entries=tuple(entries),
                        duplicates_removed=len(records) - len(entries))


def dedup_across_lists(lists: Sequence[StopWordList]) -> tuple[int, int]:
    """(raw entry total incl. in-file duplicates, distinct entries across lists)."""
    raw = sum(len(sl.entries) + sl.duplicates_removed for sl in lists)
    return raw, len(set().union(*(sl.entries for sl in lists)))


def build_set_a(lists: Sequence[StopWordList], lex: LemmaLexicon, k: int = DEFAULT_K) -> set[str]:
    """Union of lemmatized top-k prefixes of the published stop word lists."""
    if not lists:
        raise InductionError("need at least one stop word list")
    if k < 1:
        raise InductionError(f"k must be >= 1, got {k}")
    result: set[str] = set()
    for sl in lists:
        result |= gen_lemma(sl.entries[:k], lex)
    return result


def build_set_b(ranked_lemma_lists: Sequence[RankedList], k: int = DEFAULT_K) -> set[str]:
    """Union of each corpus's top-k most frequent lemmas."""
    if not ranked_lemma_lists:
        raise InductionError("need at least one ranked lemma list")
    result: set[str] = set()
    for ranked in ranked_lemma_lists:
        result.update(top_k(ranked, k))
    return result


def build_final_list(
    set_a: set[str],
    set_b: set[str],
    aggregate_counts: Mapping[str, int],
) -> StopLemmaList:
    """Set intersection ordered by aggregate frequency (desc, codepoint ties)."""
    common = set_a & set_b
    missing = sorted(l for l in common if l not in aggregate_counts)
    if missing:
        raise InductionError(f"no aggregate count for lemmas: {missing}")
    table = FrequencyTable("lemma", {l: aggregate_counts[l] for l in common}, "aggregate")
    return StopLemmaList(lemmas=rank_items(table).entries)


def aggregate_lemma_counts(tables: Sequence[Mapping[str, int]]) -> dict[str, int]:
    """Sum raw lemma counts over all contributing corpora."""
    return dict(merge_counts(tables))


def induction_report(
    lists: Sequence[StopWordList],
    set_a: set[str],
    set_b: set[str],
    final: StopLemmaList,
) -> InductionReport:
    raw, deduped = dedup_across_lists(lists)
    return InductionReport(
        raw_word_total=raw,
        deduped_word_total=deduped,
        set_a_size=len(set_a),
        set_b_size=len(set_b),
        final_size=len(final),
    )


def write_stoplemma_list(final: StopLemmaList, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for lemma, _ in final.lemmas:
            fh.write(lemma + "\n")


def load_reference_list(path: str | Path) -> tuple[str, ...]:
    """Read a reference list (e.g. the bundled 311-entry list): a stop word list file."""
    return load_stopword_list(path, source_id=str(path)).entries
