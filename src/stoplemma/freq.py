"""Raw-frequency tables over words and lemmas, with deterministic ranking."""

from __future__ import annotations

import hashlib
import os
import re
import unicodedata
from collections import Counter
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .corpus import CorpusSource, Document
from .lemma import LemmaLexicon
from .normalize import PLAIN_WORD, FilterPolicy, classify, read_records, read_text, scan_surfaces, write_json

# A document is read in blocks of this many bytes, so that no token list
# holds a whole document; each block is counted up to its last ASCII
# whitespace byte, and the rest is carried into the next block.
_BLOCK_BYTES = 1 << 18
_ASCII_SPACES = b" \t\n\v\f\r"  # what bytes.split() cuts at; no UTF-8 multibyte sequence holds one
_BOM = b"\xef\xbb\xbf"
# A corpus's distinct tokens are decoded this many at a time, as bytes.join
# holds a buffer record (about 80 bytes) for each item it joins.
_DECODE_TOKENS = 4096
# The whitespace that str.split() cuts at and bytes.split() does not, UTF-8
# encoded; each is rewritten to b" " before bytes.split(), so the tokens
# counted are str.split()'s.  (The type pass would cut a token at one of
# these anyway; the rewrite keeps the count of scanned tokens exact.)
_WIDE_SPACES = frozenset(c.encode() for c in (
    "\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
    "\u2028\u2029\u202f\u205f\u3000"))
# Their first bytes, each with a regex of the sequences it begins.  A block
# is searched for the byte first, and only a block that holds it runs the
# regex, whose literal first byte its scan skips to.  No first byte is a
# UTF-8 continuation byte, so on valid UTF-8 a match is a whole character.
_WIDE_SPACE_BY_LEAD = tuple(
    (lead, re.compile(b"|".join(re.escape(s) for s in sorted(_WIDE_SPACES) if s[:1] == lead)))
    for lead in sorted({s[:1] for s in _WIDE_SPACES}))
# a line of a "\n"-joined token list that PLAIN_WORD does not fullmatch
_NOT_PLAIN = re.compile(f"^(?!{PLAIN_WORD.pattern}$).+$", re.M)


class FrequencyTable(NamedTuple):
    counts: dict[str, int]

    @property
    def total_tokens(self) -> int:
        return sum(self.counts.values())

    @property
    def unique_count(self) -> int:
        return len(self.counts)


class RankedList(NamedTuple):
    entries: tuple[tuple[str, int], ...]  # (item, count) in rank order; an entry's rank is its position + 1

    def __len__(self) -> int:  # the entries, not the tuple's one field
        return len(self.entries)


def _split(data: bytes) -> list[bytes]:
    """The tokens that ``str.split()`` cuts the UTF-8 text ``data`` into, as bytes."""
    for lead, space in _WIDE_SPACE_BY_LEAD:
        if lead in data:
            data = space.sub(b" ", data)
    return data.split()


def _block_tokens(stream: BinaryIO, digest) -> Iterator[list[bytes]]:
    """``_split`` of a UTF-8 stream less a leading BOM, one token list per block; ``digest`` gets every byte.

    A block is cut after its last ASCII whitespace byte, which ends a token and
    no multibyte character; the bytes after it are carried into the next block.
    The carry grows by appending while no whitespace comes, so a token longer
    than a block costs no more than its length.
    """
    head = stream.read(len(_BOM))
    digest.update(head)
    carry = bytearray(head.removeprefix(_BOM))
    while True:
        block = stream.read(_BLOCK_BYTES)
        digest.update(block)
        cut = max(map(block.rfind, _ASCII_SPACES)) + 1
        if block and not cut:
            carry += block
            continue
        # at the end of the stream, block is empty and the carry is the last head
        head = b"".join((carry, memoryview(block)[:cut]))
        yield _split(head)
        if not block:
            return
        carry = bytearray(memoryview(block)[cut:])


def count_document_words(documents: Iterable[Document], policy: FilterPolicy = FilterPolicy(),
                         corpus_hash=None) -> Counter:
    """The kept surfaces of ``documents`` and their counts; ``corpus_hash`` gets their corpus hash.

    Each document is read once, in blocks, and its whitespace tokens are
    counted as bytes.  The distinct tokens are decoded in batches; if one
    fails, the first document that is not UTF-8 is named as
    ``normalize.read_text`` names it.

    The corpus hash, a corpus's hash in ``provenance.json``, is a SHA-256
    (``corpus_hash``, from ``hashlib.sha256()``) over each document in turn,
    as it is read: its ``path``, ``os.fsencode``d, then the hex SHA-256 of its bytes.
    """
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
    # A file decodes exactly when each of its tokens does, since whitespace
    # is whole characters.  The tokens that are not plain are found in one
    # pass over the tokens joined by "\n", which no token holds.  Each leaves
    # `tokens` before any kept surface is added back, so no surface is taken
    # for an unscanned token.
    byte_tokens: Counter = Counter()
    documents = list(documents)
    for doc in documents:
        digest = hashlib.sha256()
        with open(doc.file, "rb") as stream:
            for block in _block_tokens(stream, digest):
                byte_tokens.update(block)
        if corpus_hash is not None:
            corpus_hash.update(os.fsencode(doc.path))
            corpus_hash.update(digest.hexdigest().encode())
    keys, counts = list(byte_tokens), list(byte_tokens.values())
    del byte_tokens  # freed before the text is decoded
    try:
        pieces = [b"\n".join(keys[i:i + _DECODE_TOKENS]).decode() for i in range(0, len(keys), _DECODE_TOKENS)]
    except UnicodeDecodeError:
        for doc in documents:
            read_text(doc.file)
        raise ValueError("a corpus document changed while it was counted") from None
    del keys
    text = "\n".join(pieces)
    del pieces
    tokens: Counter = Counter()
    dict.update(tokens, zip(text.split("\n"), counts))  # Counter.update would count each pair as an item
    not_plain = _NOT_PLAIN.findall(text)
    del text, counts
    rest: Counter = Counter()
    for token in not_plain:
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


def count_words(corpus: CorpusSource, policy: FilterPolicy = FilterPolicy(),
                corpus_hash=None) -> FrequencyTable:
    return FrequencyTable(counts=count_document_words(corpus.documents, policy, corpus_hash))


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
