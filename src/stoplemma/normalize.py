"""The token scan, token kinds and filter policy, and the readers of record and config files.

``scan_surfaces`` cuts NFC text into tokens, ``classify`` gives a token its
kind and ``FilterPolicy.keeps`` says whether that kind is counted.  Counting
and lexicon lookup assume NFC text: ``read_records`` normalizes each line of
a record file, ``freq.count_document_words`` each distinct corpus token that
``PLAIN_WORD`` (already NFC) does not match.  Every record file and config
file is decoded here, as UTF-8 less a leading BOM, by ``read_text``, and
split into lines by ``split_lines``.  Corpus documents are read in blocks and
counted as bytes by ``freq.count_document_words``, which decodes the distinct
tokens and, for a document that is not UTF-8, raises ``read_text``'s error.
``write_json`` writes every JSON output.
"""

from __future__ import annotations

import json
import os
import re
import stat
import unicodedata
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator

# Word characters: Latin letters, ASCII digits, the Devanagari block minus
# the danda terminators, plus ZWJ/ZWNJ which may join conjunct forms.  A
# token is a maximal run of them or any other single non-space character.
_WORD_CHARS = "0-9A-Za-zऀ-ॣ०-ॿ‌‍"
_WORD_RUN = re.compile(f"[{_WORD_CHARS}]+")
# Plain Devanagari words: the block less the nukta U+093C, the stress marks
# U+0951–U+0954, the composition exclusions U+0958–U+095F, the dandas and the
# digits, plus ZWNJ/ZWJ.  A string over these 105 code points is already NFC:
# the virama is the only one with a nonzero combining class, so nothing
# reorders; the precomposed U+0929, U+0931 and U+0934 are not excluded from
# composition, so NFC keeps them; and no two of them compose, since every
# Devanagari composition takes the nukta.  It is also one word run, which
# classify calls DEVANAGARI_WORD (it holds no digit) and every FilterPolicy
# keeps.
PLAIN_WORD = re.compile("[\u0900-\u093b\u093d-\u0950\u0955-\u0957\u0960-\u0963\u0970-\u097f\u200c\u200d]+")
_TOKEN = re.compile(f"[{_WORD_CHARS}]+|\\S")

_LATIN_LETTER = re.compile("[A-Za-z]")
_ASCII_DIGIT = re.compile("[0-9]")


class TokenKind(Enum):
    DEVANAGARI_WORD = "devanagari_word"
    LATIN_WORD = "latin_word"
    LATIN_NUMBER = "latin_number"
    DEVANAGARI_NUMBER = "devanagari_number"
    SYMBOL = "symbol"


@dataclass(frozen=True)
class FilterPolicy:
    """The token kinds that are counted; each field is the CLI switch of the same name."""
    keep_symbols: bool = False
    keep_latin_words: bool = False
    keep_latin_numbers: bool = False
    drop_devanagari_digits: bool = False

    def keeps(self, kind: TokenKind) -> bool:
        if kind is TokenKind.SYMBOL:
            return self.keep_symbols
        if kind is TokenKind.LATIN_WORD:
            return self.keep_latin_words
        if kind is TokenKind.LATIN_NUMBER:
            return self.keep_latin_numbers
        if kind is TokenKind.DEVANAGARI_NUMBER:
            return not self.drop_devanagari_digits
        return True


def classify(surface: str) -> TokenKind:
    """The kind of any string: a SYMBOL unless ``_WORD_RUN`` fullmatches it.

    Else a LATIN_WORD if it holds a Latin letter, a LATIN_NUMBER if it holds an
    ASCII digit, a DEVANAGARI_NUMBER if it is all digits, else a DEVANAGARI_WORD.
    """
    if not _WORD_RUN.fullmatch(surface):
        return TokenKind.SYMBOL
    if _LATIN_LETTER.search(surface):
        return TokenKind.LATIN_WORD
    if _ASCII_DIGIT.search(surface):
        return TokenKind.LATIN_NUMBER
    return TokenKind.DEVANAGARI_NUMBER if surface.isdigit() else TokenKind.DEVANAGARI_WORD


def scan_surfaces(text: str) -> list[str]:
    """The token surfaces of NFC text, in order, unfiltered by kind.

    A token is a word run, never subdivided, so joined (sandhi) words pass
    through whole, or any other single non-space character, a symbol.
    """
    return _TOKEN.findall(text)


def split_lines(text: str) -> list[str]:
    """Lines of ``text``, broken only at ``\\n``, ``\\r\\n`` and ``\\r``, unlike ``str.splitlines``."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def read_text(path: str | Path) -> str:
    """A UTF-8 file's text less a leading BOM; a ``ValueError`` names a bad byte's line and file offset.

    Anything but a regular file, such as a FIFO or a device, is a ``ValueError``
    naming it.  The file is opened without blocking, as opening a FIFO would
    otherwise wait for a writer before the check could run.
    """
    with open(path, "rb", opener=lambda name, flags: os.open(name, flags | getattr(os, "O_NONBLOCK", 0))) as fh:
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            raise ValueError(f"{path}: not a regular file")
        data = fh.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        lineno = len(split_lines(data[:exc.start].decode("utf-8")))
        raise ValueError(f"{path}:{lineno}: invalid UTF-8 at byte offset {exc.start}") from None


def read_records(path: str | Path, fields: int) -> Iterator[tuple[int, list[str]]]:
    """``(lineno, fields)`` for each tab-separated record of a file ``read_text`` decodes whole.

    Lines are NFC-normalized and stripped.  Blank lines and ``#`` lines
    without a tab are skipped; every other line must hold exactly ``fields``
    non-empty fields, else a ``ValueError`` names ``path:lineno``.
    """
    for lineno, line in enumerate(split_lines(read_text(path)), start=1):
        line = unicodedata.normalize("NFC", line.strip())
        if not line or (line.startswith("#") and "\t" not in line):
            continue
        parts = line.split("\t")
        if len(parts) != fields or not all(parts):
            raise ValueError(f"{path}:{lineno}: expected {fields} non-empty tab-separated "
                             f"field(s), got {line!r}")
        yield lineno, parts


def read_pairs(path: str | Path) -> dict[str, str]:
    """``key -> value`` of two-field records; a key given a second, different value is an error."""
    pairs: dict[str, str] = {}
    for lineno, (key, value) in read_records(path, 2):
        if pairs.setdefault(key, value) != value:
            raise ValueError(f"{path}:{lineno}: conflicting value for {key!r}: "
                             f"{pairs[key]!r} vs {value!r}")
    return pairs


def write_json(payload: object, path: str | Path) -> None:
    """Deterministic JSON: sorted keys, two-space indent, UTF-8, final newline."""
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")
