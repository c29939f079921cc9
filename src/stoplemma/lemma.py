"""Lexicon-based lemmatization with identity fallback.

A plain surface->lemma table stands in for a model-based lemmatizer; any
surface absent from the table lemmatizes to itself, so lookup is total and
fully deterministic.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .normalize import read_pairs


class LemmaLexicon(NamedTuple):
    entries: Mapping[str, str]

    @property
    def entry_count(self) -> int:
        return len(self.entries)


EMPTY_LEXICON = LemmaLexicon(entries={})


def load_lexicon(path: str | Path) -> LemmaLexicon:
    """Parse a UTF-8 TSV of ``surface<TAB>lemma`` records with ``read_pairs``."""
    return LemmaLexicon(entries=read_pairs(path))


def lemmatize_phrase(phrase: str, lex: LemmaLexicon) -> str:
    """Lemmatize a (possibly multi-word) entry token-by-token on whitespace."""
    words = phrase.split()
    if not words:
        raise ValueError("cannot lemmatize an empty phrase")
    return " ".join(lex.entries.get(w, w) for w in words)


def gen_lemma(words: Iterable[str], lex: LemmaLexicon) -> set[str]:
    """Image of a word set under lemmatization; duplicates collapse."""
    return {lemmatize_phrase(w, lex) for w in words}
