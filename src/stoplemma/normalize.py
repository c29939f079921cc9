"""The token scan, token kinds and filter policy, and the readers of record and config files.

``scan_surfaces`` cuts NFC text into tokens, ``classify`` gives a token its
kind and ``FilterPolicy.keeps`` says whether that kind is counted.  Counting
and lexicon lookup assume NFC text: ``read_records`` normalizes each line of
a record file, ``freq.count_document_words`` each distinct corpus token that
``PLAIN_WORD`` (already NFC) does not match.  Every record file and config
file is decoded here, as UTF-8 less a leading BOM, by ``read_text``.  A
two-field record file, read by ``read_pairs`` or ``freq.read_ranked_tsv``
through ``_read_two_fields``, takes one of two routes.  Text in the form
``freq`` writes is cut into its key and value columns whole by ``_columns``,
and the reader checks those columns whole; any other text, or columns that
fail a check, goes line by line through ``read_records``'s loop over
``split_lines``, which yields the same records and alone reports errors.
Corpus documents are read in blocks and
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
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, TypeVar

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


class FilterPolicy(NamedTuple):
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
    yield from _records(path, read_text(path), fields)


def _records(path: str | Path, text: str, fields: int) -> Iterator[tuple[int, list[str]]]:
    """``read_records`` over ``text``, the decoded file ``path``."""
    for lineno, line in enumerate(split_lines(text), start=1):
        line = unicodedata.normalize("NFC", line.strip())
        if not line or (line.startswith("#") and "\t" not in line):
            continue
        parts = line.split("\t")
        if len(parts) != fields or not all(parts):
            raise ValueError(f"{path}:{lineno}: expected {fields} non-empty tab-separated "
                             f"field(s), got {line!r}")
        yield lineno, parts


# Two-field record text as the toolkit writes it: every line, the last one
# included, ends at "\n" and is key<TAB>value, with one tab, no "\r" and
# nothing str.strip() removes at either end (re's \s is str.isspace()).
# Each such line is one record of read_records, whose line number is its
# index + 1, with neither field empty.  A line can match in one way only,
# as no class in it admits "\n", so a failed match backtracks through each
# line once and stays linear in the text.  The match holds about 70 bytes
# of backtracking state a line until it ends; Python 3.11's possessive "*+"
# would hold none, but 3.10 has no such quantifier.
_AS_WRITTEN = re.compile(r"(?:\S[^\t\n\r]*\t[^\t\n\r]*\S\n)*")


def _columns(text: str) -> tuple[list[str], list[str]] | None:
    """The key and value columns of ``text``'s records, NFC-normalized, if it is as the toolkit writes it; else None.

    Lines are normalized one at a time, and only when the whole text is not
    NFC: as "\n" composes with nothing, a line of NFC text is NFC.
    Normalizing keeps every tab and every whitespace character at a line's
    end (the only whitespace NFC changes, U+2000 and U+2001, becomes
    whitespace), so it keeps what ``_AS_WRITTEN`` matches.
    """
    if not unicodedata.is_normalized("NFC", text):
        text = "\n".join([unicodedata.normalize("NFC", line) for line in text.split("\n")])
    if not _AS_WRITTEN.fullmatch(text):
        return None
    cells = text.replace("\n", "\t").split("\t")  # the last cell is the "" after the final "\n"
    return cells[0:-1:2], cells[1::2]


T = TypeVar("T")


def _read_two_fields(path: str | Path, whole: Callable[[list[str], list[str]], T | None],
                     by_line: Callable[[str | Path, Iterator[tuple[int, list[str]]]], T]) -> T:
    """A two-field record file's value, from one read of ``path``.

    ``whole(keys, values)`` checks the columns of text as the toolkit writes
    it and returns the value, or None if a check fails.  Any other text, or
    columns that fail, go to ``by_line(path, records)`` over ``read_records``'
    loop on the same text, which names the error.
    """
    text = read_text(path)
    columns = _columns(text)
    value = None if columns is None else whole(*columns)
    return by_line(path, _records(path, text, 2)) if value is None else value


def read_pairs(path: str | Path) -> dict[str, str]:
    """``key -> value`` of two-field records; a key given a second, different value is an error.

    Text as the toolkit writes it is checked whole: every record must agree
    with the dict of all of them.  Other text is read line by line.
    """
    return _read_two_fields(path, _column_pairs, _record_pairs)


def _column_pairs(keys: list[str], values: list[str]) -> dict[str, str] | None:
    pairs = dict(zip(keys, values))
    return pairs if list(map(pairs.__getitem__, keys)) == values else None


def _record_pairs(path: str | Path, records: Iterator[tuple[int, list[str]]]) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, (key, value) in records:
        if pairs.setdefault(key, value) != value:
            raise ValueError(f"{path}:{lineno}: conflicting value for {key!r}: "
                             f"{pairs[key]!r} vs {value!r}")
    return pairs


def write_json(payload: object, path: str | Path) -> None:
    """Deterministic JSON: sorted keys, two-space indent, UTF-8, final newline."""
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")
