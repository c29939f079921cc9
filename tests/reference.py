"""The plain reference pipeline that the differential tests compare the toolkit against.

Each step is done the most direct way, with no regard for speed: a document
is NFC-normalized whole and its whitespace runs collapsed, then it is
tokenized and filtered; counts are plain ``Counter``s, a lemma is a
``dict.get`` and ranking is one ``sorted`` call.  ``freq_outputs`` and
``induce_outputs`` build every output file of their subcommand but
``provenance.json``, as bytes, and so do ``overlap_outputs`` and
``assess_outputs``.

``normalize_text``, ``tokenize`` and ``filter_tokens`` are the tokenizer
spec, kept here only: the toolkit counts a corpus on bytes, in
``freq.count_document_words``, and the tests require the same counts.
"""

from __future__ import annotations

import json
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from stoplemma.normalize import FilterPolicy, TokenKind, classify, scan_surfaces

_WS_RUN = re.compile(r"\s+")


@dataclass(frozen=True)
class Token:
    surface: str
    kind: TokenKind


def normalize_text(raw: str) -> str:
    """NFC-normalize and collapse every whitespace run to a single space."""
    return _WS_RUN.sub(" ", unicodedata.normalize("NFC", raw))


def tokenize(text: str) -> list[Token]:
    """Split normalized text into word and symbol tokens.

    Word runs are never subdivided: joined (sandhi) words pass through whole.
    Every non-space, non-word character becomes a single-character symbol
    token.
    """
    return [Token(s, classify(s)) for s in scan_surfaces(text)]


def filter_tokens(tokens: Sequence[Token], policy: FilterPolicy = FilterPolicy()) -> list[Token]:
    return [t for t in tokens if policy.keeps(t.kind)]


def word_counts(texts: list[str], policy: FilterPolicy) -> Counter:
    """The kept surfaces of the documents ``texts`` (decoded, less a BOM) and their counts."""
    counts: Counter = Counter()
    for text in texts:
        counts.update(t.surface for t in filter_tokens(tokenize(normalize_text(text)), policy))
    return counts


def lemmatize(phrase: str, lexicon: dict[str, str]) -> str:
    """Each whitespace-separated word of ``phrase`` looked up once, joined by single spaces."""
    return " ".join(lexicon.get(w, w) for w in phrase.split())


def lemma_counts(words: Counter, lexicon: dict[str, str]) -> Counter:
    counts: Counter = Counter()
    for word, n in words.items():
        counts[lexicon.get(word, word)] += n
    return counts


def ranked(counts: Counter) -> list[tuple[str, int]]:
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def tsv(counts: Counter) -> bytes:
    return "".join(f"{item}\t{n}\n" for item, n in ranked(counts)).encode()


def json_bytes(payload: object) -> bytes:
    return (json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n").encode()


def freq_outputs(corpora: dict[str, list[str]], lexicon: dict[str, str], policy: FilterPolicy) -> dict[str, bytes]:
    """``freq``'s files for ``corpora``, each ID's document texts, and the NFC ``lexicon``."""
    outputs, report = {}, []
    for ident, texts in corpora.items():
        words = word_counts(texts, policy)
        for kind, counts in (("word", words), ("lemma", lemma_counts(words, lexicon))):
            outputs[f"{kind}s_{ident}.tsv"] = tsv(counts)
            report.append({"source_id": ident, "item_kind": kind,
                           "total_tokens": sum(counts.values()), "unique_count": len(counts)})
    outputs["freq_report.json"] = json_bytes(report)
    return outputs


def stoplist_entries(lines: list[str]) -> list[str]:
    """A stop list's entries in file order, from its lines (none holding a tab or a line break).

    Each line is NFC-normalized and its whitespace runs read as one space;
    blank lines and ``#`` lines are no entries.
    """
    entries = []
    for line in lines:
        entry = " ".join(unicodedata.normalize("NFC", line).split())
        if entry and not entry.startswith("#"):
            entries.append(entry)
    return entries


def induce_outputs(stoplists: list[list[str]], corpora: list[list[str]], lexicon: dict[str, str],
                   policy: FilterPolicy, k_a: int, k_b: int) -> dict[str, bytes]:
    """``induce``'s files for ``stoplists``, each a list's lines, and ``corpora``, each a corpus's texts.

    Set A holds the lemmatized first ``k_a`` distinct entries of each list,
    set B the first ``k_b`` ranked lemmas of each corpus, and the final list
    A ∩ B ranked by the lemmas' counts summed over the corpora.
    """
    lists = [stoplist_entries(lines) for lines in stoplists]
    set_a = {lemmatize(entry, lexicon) for entries in lists for entry in list(dict.fromkeys(entries))[:k_a]}
    tables = [lemma_counts(word_counts(texts, policy), lexicon) for texts in corpora]
    set_b = {lemma for table in tables for lemma, _ in ranked(table)[:k_b]}
    total: Counter = Counter()
    for table in tables:
        total += table
    final = ranked(Counter({lemma: total[lemma] for lemma in set_a & set_b}))
    return {
        "stoplemmas.txt": "".join(f"{lemma}\n" for lemma, _ in final).encode(),
        "induction_report.json": json_bytes({
            "raw_word_total": sum(map(len, lists)),
            "deduped_word_total": len({entry for entries in lists for entry in entries}),
            "set_a_size": len(set_a),
            "set_b_size": len(set_b),
            "final_size": len(final),
        }),
    }


def overlap_outputs(lists: dict[str, list[str]], k: int) -> dict[str, bytes]:
    """``overlap``'s files for ``lists``, each ID's distinct items in rank order.

    An item's count is the number of lists that hold it among their first ``k``.
    """
    tops = [items[:k] for items in lists.values()]
    counts = Counter({item: sum(item in top for top in tops) for top in tops for item in top})
    return {
        "overlap.tsv": tsv(counts),
        "overlap_report.json": json_bytes({
            "k": k,
            "source_count": len(lists),
            "unique_items": len(counts),
            "max_count": max(counts.values(), default=0),
            "short_sources": [ident for ident, items in lists.items() if len(items) < k],
        }),
    }


def assess_outputs(mapping: dict[str, list[str] | None], reference_list: list[str],
                   lexicon: dict[str, str]) -> dict[str, bytes]:
    """``assess``'s files for ``mapping``, each external word's target phrases (None for ``!``).

    ``reference_list`` holds the lines of the stop-lemma list.  The mapped
    lemmas are the lemmatized targets; a hit is one the list holds.
    """
    mapped = {lemmatize(target, lexicon) for targets in mapping.values() for target in targets or ()}
    hits = mapped & set(stoplist_entries(reference_list))
    misses = sorted(mapped - hits)
    untranslatable = sum(targets is None for targets in mapping.values())
    coverage = f"{len(hits)}/{len(mapped)} = {len(hits) / len(mapped):.4f}" if mapped else "undefined"
    text = (f"external words: {len(mapping)} ({untranslatable} untranslatable)\n"
            f"mapped lemmas: {len(mapped)}\n"
            f"present in stop-lemma list: {len(hits)}\n"
            f"absent: {len(misses)}" + (f" ({', '.join(misses)})" if misses else "") + "\n"
            f"coverage: {coverage}\n")
    return {
        "coverage.txt": text.encode(),
        "coverage.json": json_bytes({
            "external_total": len(mapping),
            "untranslatable_count": untranslatable,
            "mapped_lemma_count": len(mapped),
            "hit_count": len(hits),
            "miss_count": len(misses),
            "misses": misses,
            "coverage_ratio": len(hits) / len(mapped) if mapped else None,
        }),
    }
