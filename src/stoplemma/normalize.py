"""Text normalization, sentence splitting and tokenization for Devanagari corpora.

All downstream counting and lexicon lookup assumes NFC-normalized text, so
normalization happens once, up front, and everything else operates on its
output.  Every input file is decoded here, as UTF-8 less a leading BOM, by
``read_text`` or, for record files, ``read_records``; ``write_json`` writes
every JSON output.
"""

from __future__ import annotations

import io
import json
import re
import string
import unicodedata
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, Sequence

# Word characters: Latin letters, ASCII digits, the Devanagari block minus
# the danda terminators, plus ZWJ/ZWNJ which may join conjunct forms.  A
# token is a maximal run of them or any other single non-space character.
_WORD_CHARS = "0-9A-Za-zऀ-ॣ०-ॿ‌‍"
_WORD_RUN = re.compile(f"[{_WORD_CHARS}]+")
_TOKEN = re.compile(f"[{_WORD_CHARS}]+|\\S")
_WS_RUN = re.compile(r"\s+")
_SENT_END = re.compile(r"[।॥?!.]")
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")  # an undecodable byte under "surrogateescape"

# classify's character classes; Devanagari words are U+0900–U+097F, ZWNJ, ZWJ
_ASCII_DIGITS = frozenset(string.digits)
_DEVANAGARI_DIGITS = frozenset("०१२३४५६७८९")
_LATIN_LETTERS = frozenset(string.ascii_letters)
_DEVANAGARI = frozenset(map(chr, range(0x0900, 0x0980))) | {"\u200c", "\u200d"}


class TokenKind(Enum):
    DEVANAGARI_WORD = "devanagari_word"
    LATIN_WORD = "latin_word"
    LATIN_NUMBER = "latin_number"
    DEVANAGARI_NUMBER = "devanagari_number"
    SYMBOL = "symbol"


@dataclass(frozen=True)
class Token:
    surface: str
    kind: TokenKind
    span: tuple[int, int]  # codepoint offsets into the normalized source


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]
    span: tuple[int, int]


@dataclass(frozen=True)
class FilterPolicy:
    drop_symbols: bool = True
    drop_latin_words: bool = True
    drop_latin_numbers: bool = True
    drop_devanagari_digits: bool = False

    def keeps(self, kind: TokenKind) -> bool:
        if kind is TokenKind.SYMBOL:
            return not self.drop_symbols
        if kind is TokenKind.LATIN_WORD:
            return not self.drop_latin_words
        if kind is TokenKind.LATIN_NUMBER:
            return not self.drop_latin_numbers
        if kind is TokenKind.DEVANAGARI_NUMBER:
            return not self.drop_devanagari_digits
        return True


def normalize_text(raw: str) -> str:
    """NFC-normalize and collapse every whitespace run to a single space."""
    return _WS_RUN.sub(" ", unicodedata.normalize("NFC", raw))


def classify(surface: str) -> TokenKind:
    chars = set(surface)
    if chars and chars <= _ASCII_DIGITS:
        return TokenKind.LATIN_NUMBER
    if chars and chars <= _DEVANAGARI_DIGITS:
        return TokenKind.DEVANAGARI_NUMBER
    if chars & _LATIN_LETTERS:
        return TokenKind.LATIN_WORD
    if chars <= _DEVANAGARI:
        return TokenKind.DEVANAGARI_WORD
    # digit runs mixing scripts classify with the Latin digits they carry
    return TokenKind.LATIN_NUMBER if chars & _ASCII_DIGITS else TokenKind.SYMBOL


def token_kind(surface: str) -> TokenKind:
    """Kind of one token surface: word runs are classified, the rest are symbols."""
    return classify(surface) if _WORD_RUN.fullmatch(surface) else TokenKind.SYMBOL


def scan_surfaces(text: str, policy: FilterPolicy = FilterPolicy()) -> list[str]:
    """Token surfaces of normalized text, in order, unfiltered by kind.

    Symbol tokens are left out when the policy drops them anyway; any other
    kind is left for the caller to filter, once per distinct surface.
    """
    return (_WORD_RUN if policy.drop_symbols else _TOKEN).findall(text)


def tokenize(text: str) -> list[Token]:
    """Split normalized text into word and symbol tokens.

    Word runs are never subdivided: joined (sandhi) words pass through whole.
    Every non-space, non-word character becomes a single-character symbol
    token.
    """
    return [
        Token(m.group(), token_kind(m.group()), m.span())
        for m in _TOKEN.finditer(text)
    ]


def split_sentences(text: str) -> list[Sentence]:
    """Split on danda, double danda, '?', '!' and '.'.

    The terminator stays with the sentence it ends; trailing text without a
    terminator forms a final sentence; empty segments are dropped.
    """
    sentences = []
    start = 0
    for m in _SENT_END.finditer(text):
        end = m.end()
        _append_sentence(sentences, text, start, end)
        start = end
    _append_sentence(sentences, text, start, len(text))
    return sentences


def _append_sentence(acc: list[Sentence], text: str, start: int, end: int) -> None:
    segment = text[start:end]
    if not segment.strip():
        return
    tokens = tuple(
        Token(t.surface, t.kind, (t.span[0] + start, t.span[1] + start))
        for t in tokenize(segment)
    )
    acc.append(Sentence(tokens=tokens, span=(start, end)))


def filter_tokens(tokens: Sequence[Token], policy: FilterPolicy = FilterPolicy()) -> list[Token]:
    return [t for t in tokens if policy.keeps(t.kind)]


def read_text(path: str | Path, error: type[Exception] = ValueError) -> str:
    """A UTF-8 file's text less a leading BOM; ``error`` names a bad byte's offset in the file."""
    try:
        return Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: invalid UTF-8 at byte offset {exc.start}") from None


def read_records(
    path: str | Path, fields: int, error: type[Exception] = ValueError
) -> Iterator[tuple[int, list[str]]]:
    """``(lineno, fields)`` for each record of a UTF-8, tab-separated line file.

    A leading BOM is dropped; lines are NFC-normalized and stripped.  Blank
    lines and ``#`` lines without a tab are skipped; every other line must
    hold exactly ``fields`` non-empty fields, else ``error`` names
    ``path:lineno``; so does bad UTF-8.
    """
    try:
        with Path(path).open(encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = unicodedata.normalize("NFC", line.strip())
                if not line or (line.startswith("#") and "\t" not in line):
                    continue
                parts = line.split("\t")
                if len(parts) != fields or not all(parts):
                    raise error(f"{path}:{lineno}: expected {fields} non-empty tab-separated "
                                f"field(s), got {line!r}")
                yield lineno, parts
    except UnicodeDecodeError:
        # the decoder reads ahead of the line it returns: count the lines before the bad byte
        text = Path(path).read_bytes().decode("utf-8", "surrogateescape")
        head = _ESCAPED_BYTE.split(text, maxsplit=1)[0]
        lineno = io.StringIO(head, newline=None).read().count("\n") + 1
        raise error(f"{path}:{lineno}: invalid UTF-8") from None


def write_json(payload: object, path: str | Path) -> None:
    """Deterministic JSON: sorted keys, two-space indent, UTF-8, final newline."""
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")
