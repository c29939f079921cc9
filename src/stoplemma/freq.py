"""Raw-frequency tables over words and lemmas, with deterministic ranking."""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import CorpusSource, Document
from .lemma import LemmaLexicon
from .normalize import PLAIN_WORD, FilterPolicy, classify, read_records, scan_surfaces, write_json

# Large documents are split in slices so no split() list holds the whole
# token stream; each slice ends at whitespace to keep tokens whole.
_CHUNK_CHARS = 1 << 18
_SPACE = re.compile(r"\s")
# a line of a "\n"-joined token list that PLAIN_WORD does not fullmatch
_NOT_PLAIN = re.compile(f"^(?!{PLAIN_WORD.pattern}$).+$", re.M)


@dataclass(frozen=True)
class FrequencyTable:
    counts: dict[str, int]

    @property
    def total_tokens(self) -> int:
        return sum(self.counts.values())

    @property
    def unique_count(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class RankedList:
    entries: tuple[tuple[str, int], ...]  # (item, count) in rank order; an entry's rank is its position + 1

    def __len__(self) -> int:
        return len(self.entries)


def _iter_chunks(text: str) -> Iterable[str]:
    start = 0
    while start < len(text):
        space = _SPACE.search(text, start + _CHUNK_CHARS)
        end = space.end() if space else len(text)
        yield text[start:end]
        start = end


def count_document_words(documents: Iterable[Document], policy: FilterPolicy = FilterPolicy()) -> Counter:
    # Count whitespace tokens first, then turn each distinct one into kept
    # surfaces, weighted by its count: that work scales with the vocabulary,
    # not the token count.  A plain Devanagari token (see PLAIN_WORD) is
    # already NFC, one word run and a kept DEVANAGARI_WORD, so it is its own
    # surface.  Any other token is normalized and scanned, and its surfaces
    # are classified and filtered; they may meet a plain surface, as the NFD
    # spelling of a nukta letter meets its precomposed form.  This equals NFC
    # and scanning the whole text because every whitespace character is an
    # NFC starter that composes with nothing, NFC maps no other character to
    # whitespace, and str.split() and re's \s agree on what whitespace is.
    # The tokens that are not plain are found in one pass over the tokens
    # joined by "\n", which no str.split() token holds.  Each leaves `tokens`
    # before any kept surface is added back, so no surface is taken for an
    # unscanned token.
    tokens: Counter = Counter()
    for doc in documents:
        for chunk in _iter_chunks(doc.raw_text):
            tokens.update(chunk.split())
    rest: Counter = Counter()
    for token in _NOT_PLAIN.findall("\n".join(tokens)):
        n = tokens.pop(token)
        for surface in scan_surfaces(unicodedata.normalize("NFC", token)):
            rest[surface] += n
    for surface, n in rest.items():
        if policy.keeps(classify(surface)):
            tokens[surface] += n
    return tokens


def merge_counts(tables: Iterable[Mapping[str, int]]) -> Counter:
    merged: Counter = Counter()
    for t in tables:
        merged.update(t)
    return merged


def count_words(corpus: CorpusSource, policy: FilterPolicy = FilterPolicy()) -> FrequencyTable:
    return FrequencyTable(counts=count_document_words(corpus.documents, policy))


def lemma_table(words: FrequencyTable, lex: LemmaLexicon) -> FrequencyTable:
    """Collapse a word table into a lemma table; token totals are conserved."""
    counts: dict[str, int] = {}
    lookup = lex.entries.get
    for word, n in words.counts.items():
        lemma = lookup(word, word)
        counts[lemma] = counts.get(lemma, 0) + n
    return FrequencyTable(counts=counts)


def rank_items(counts: Mapping[str, int]) -> RankedList:
    """The items of ``counts`` by descending count, ties by ascending codepoint order.

    The items are grouped by count, the counts walked in descending order and
    each group's items sorted as bare strings, so no per-item key is built.
    """
    groups: dict[int, list[str]] = {}
    for item, n in counts.items():
        groups.setdefault(n, []).append(item)
    entries: list[tuple[str, int]] = []
    for n in sorted(groups, reverse=True):
        entries += ((item, n) for item in sorted(groups[n]))
    return RankedList(entries=tuple(entries))


def top_k(ranked: RankedList, k: int) -> list[str]:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return [item for item, _ in ranked.entries[:k]]


def write_tsv(ranked: RankedList, path: str | Path) -> None:
    # one write per run of equal counts; rank order makes that one per count
    with Path(path).open("w", encoding="utf-8") as fh:
        for count, group in groupby(ranked.entries, key=itemgetter(1)):
            end = f"\t{count}\n"
            fh.write(end.join(map(itemgetter(0), group)) + end)


def read_ranked_tsv(path: str | Path) -> RankedList:
    """Read an ``item<TAB>count`` file written in rank order, as ``rank_items`` ranks.

    Counts are non-negative integers in ASCII digits, within ``int()``'s
    digit limit, no item repeats and each record ranks below the one before;
    otherwise the ``ValueError`` names ``path:lineno``.
    """
    counts: dict[str, int] = {}
    last_count, last_item = float("inf"), ""  # the record before; any first record follows it
    for lineno, (item, count) in read_records(path, 2):
        if not (count.isascii() and count.isdigit()):
            raise ValueError(f"{path}:{lineno}: count must be a non-negative integer, got {count!r}")
        if item in counts:
            raise ValueError(f"{path}:{lineno}: repeated item {item!r}")
        try:
            n = counts[item] = int(count)
        except ValueError:  # more digits than int() converts
            raise ValueError(f"{path}:{lineno}: count has {len(count)} digits, "
                             f"more than int() accepts") from None
        if n > last_count or (n == last_count and item < last_item):
            raise ValueError(f"{path}:{lineno}: {item!r} is out of rank order "
                             f"(count descending, ties in codepoint order)")
        last_count, last_item = n, item
    return RankedList(entries=tuple(counts.items()))


def write_report(tables: Sequence[tuple[str, str, FrequencyTable]], path: str | Path) -> None:
    """Per-source summary of ``(source ID, item kind, table)`` triples: total tokens and unique items."""
    report = [
        {
            "source_id": source_id,
            "item_kind": item_kind,
            "total_tokens": t.total_tokens,
            "unique_count": t.unique_count,
        }
        for source_id, item_kind, t in tables
    ]
    write_json(report, path)
