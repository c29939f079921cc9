"""Raw-frequency tables over words and lemmas, with deterministic ranking."""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import CorpusSource, Document
from .lemma import EMPTY_LEXICON, LemmaLexicon
from .normalize import FilterPolicy, read_records, scan_surfaces, token_kind, write_json

# Large documents are split in slices so no split() list holds the whole
# token stream; each slice ends at whitespace to keep tokens whole.
_CHUNK_CHARS = 1 << 18
_SPACE = re.compile(r"\s")


@dataclass(frozen=True)
class FrequencyTable:
    item_kind: str  # "word", "lemma" or "item"
    counts: dict[str, int]
    source_id: str

    @property
    def total_tokens(self) -> int:
        return sum(self.counts.values())

    @property
    def unique_count(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class RankedList:
    entries: tuple[tuple[str, int], ...]  # (item, count) in rank order; an entry's rank is its position + 1


def _iter_chunks(text: str) -> Iterable[str]:
    start = 0
    while start < len(text):
        space = _SPACE.search(text, start + _CHUNK_CHARS)
        end = space.end() if space else len(text)
        yield text[start:end]
        start = end


def count_document_words(doc: Document, policy: FilterPolicy = FilterPolicy()) -> Counter:
    # Count whitespace tokens first, then normalize, scan and filter each
    # distinct one, weighted by its count: that work scales with the
    # vocabulary, not the token count.  This equals NFC and scanning the whole
    # text because every whitespace character is an NFC starter that composes
    # with nothing, NFC maps no other character to whitespace, and str.split()
    # and re's \s agree on what whitespace is.
    tokens: Counter = Counter()
    for chunk in _iter_chunks(doc.raw_text):
        tokens.update(chunk.split())
    counts: Counter = Counter()
    for token, n in tokens.items():
        for surface in scan_surfaces(unicodedata.normalize("NFC", token)):
            counts[surface] += n
    for surface in list(counts):
        if not policy.keeps(token_kind(surface)):
            del counts[surface]
    return counts


def merge_counts(tables: Iterable[Mapping[str, int]]) -> Counter:
    merged: Counter = Counter()
    for t in tables:
        merged.update(t)
    return merged


def count_words(corpus: CorpusSource, policy: FilterPolicy = FilterPolicy()) -> FrequencyTable:
    merged = merge_counts(count_document_words(d, policy) for d in corpus.documents)
    return FrequencyTable(item_kind="word", counts=dict(merged), source_id=corpus.id)


def count_lemmas(
    corpus: CorpusSource,
    policy: FilterPolicy = FilterPolicy(),
    lex: LemmaLexicon = EMPTY_LEXICON,
) -> FrequencyTable:
    words = count_words(corpus, policy)
    return lemma_table(words, lex)


def lemma_table(words: FrequencyTable, lex: LemmaLexicon) -> FrequencyTable:
    """Collapse a word table into a lemma table; token totals are conserved."""
    counts: dict[str, int] = {}
    lookup = lex.entries.get
    for word, n in words.counts.items():
        lemma = lookup(word, word)
        counts[lemma] = counts.get(lemma, 0) + n
    return FrequencyTable(item_kind="lemma", counts=counts, source_id=words.source_id)


def rank_items(table: FrequencyTable) -> RankedList:
    """Order by descending count, breaking ties by ascending codepoint order."""
    ordered = sorted(table.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return RankedList(entries=tuple(ordered))


def top_k(ranked: RankedList, k: int) -> list[str]:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return [item for item, _ in ranked.entries[:k]]


def write_tsv(ranked: RankedList, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for item, count in ranked.entries:
            fh.write(f"{item}\t{count}\n")


def read_ranked_tsv(path: str | Path) -> RankedList:
    """Read an ``item<TAB>count`` file written in rank order.

    Counts are non-negative integers in ASCII digits, within ``int()``'s
    digit limit, and no item repeats; otherwise the ``ValueError`` names
    ``path:lineno``.
    """
    counts: dict[str, int] = {}
    for lineno, (item, count) in read_records(path, 2):
        if not (count.isascii() and count.isdigit()):
            raise ValueError(f"{path}:{lineno}: count must be a non-negative integer, got {count!r}")
        if item in counts:
            raise ValueError(f"{path}:{lineno}: repeated item {item!r}")
        try:
            counts[item] = int(count)
        except ValueError:  # more digits than int() converts
            raise ValueError(f"{path}:{lineno}: count has {len(count)} digits, "
                             f"more than int() accepts") from None
    return RankedList(entries=tuple(counts.items()))


def write_report(tables: Sequence[FrequencyTable], path: str | Path) -> None:
    """Per-source summary mirroring the corpus-metadata table columns."""
    report = [
        {
            "source_id": t.source_id,
            "item_kind": t.item_kind,
            "total_tokens": t.total_tokens,
            "unique_count": t.unique_count,
        }
        for t in tables
    ]
    write_json(report, path)
