"""Corpus loading and document-metadata analytics."""

from __future__ import annotations

import csv
import io
import unicodedata
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

INDEPENDENCE_YEAR = 1947
GENDERS = ("male", "female", "unknown")


class CorpusError(ValueError):
    """Unloadable corpus: missing files, bad encoding or bad metadata."""


@dataclass(frozen=True)
class DocumentMeta:
    title: str = ""
    author: str = ""
    gender: str = "unknown"
    native_state: str = "unknown"
    year: Optional[int] = None

    def __post_init__(self):
        if self.gender not in GENDERS:
            raise CorpusError(f"gender must be one of {GENDERS}, got {self.gender!r}")

    @property
    def era(self) -> str:
        if self.year is None:
            return "unknown"
        return "pre_independence" if self.year < INDEPENDENCE_YEAR else "post_independence"


@dataclass(frozen=True)
class Document:
    path: str
    raw_text: str
    meta: Optional[DocumentMeta] = None


@dataclass(frozen=True)
class CorpusSource:
    id: str
    name: str
    domain_label: str
    documents: tuple[Document, ...]

    def __post_init__(self):
        if not self.id:
            raise CorpusError("corpus id must be non-empty")


@dataclass(frozen=True)
class MetadataSummary:
    total_docs: int
    gender_counts: dict[str, int]
    female_fraction: float
    state_counts: dict[str, int]
    era_counts: dict[str, int]


def _read_text(path: Path) -> str:
    data = path.read_bytes()
    if data.startswith(b"\xef\xbb\xbf"):
        data = data[3:]
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: invalid UTF-8 at byte offset {exc.start}") from exc


def _load_sidecar(root: Path) -> dict[str, DocumentMeta]:
    sidecar = root / "metadata.tsv"
    if not sidecar.exists():
        return {}
    metas: dict[str, DocumentMeta] = {}
    reader = csv.DictReader(io.StringIO(_read_text(sidecar), newline=""), delimiter="\t")
    required = {"file", "title", "author", "gender", "state", "year"}
    try:
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise CorpusError(f"{sidecar}: header must contain columns {sorted(required)}")
        for lineno, row in enumerate(reader, start=2):
            fname = (row["file"] or "").strip()
            if not fname:
                raise CorpusError(f"{sidecar}:{lineno}: empty file column")
            year_cell = (row["year"] or "").strip()
            try:
                year = int(year_cell) if year_cell else None
            except ValueError:
                raise CorpusError(f"{sidecar}:{lineno}: bad year {year_cell!r}") from None
            metas[fname] = DocumentMeta(
                title=unicodedata.normalize("NFC", (row["title"] or "").strip()),
                author=unicodedata.normalize("NFC", (row["author"] or "").strip()),
                gender=(row["gender"] or "").strip().lower() or "unknown",
                native_state=unicodedata.normalize("NFC", (row["state"] or "").strip()) or "unknown",
                year=year,
            )
    except csv.Error as exc:
        raise CorpusError(f"{sidecar}:{reader.reader.line_num}: {exc}") from None
    return metas


def load_corpus(root: str | Path, id: str) -> CorpusSource:
    """Load every ``*.txt`` under ``root`` in lexicographic path order.

    Metadata comes from an optional ``metadata.tsv`` sidecar; files without a
    row load with no metadata.
    """
    root = Path(root)
    if not root.is_dir():
        raise CorpusError(f"corpus directory not found: {root}")
    paths = sorted(p for p in root.rglob("*.txt") if p.is_file())
    if not paths:
        raise CorpusError(f"no .txt files under {root}")
    metas = _load_sidecar(root)
    documents = tuple(
        Document(
            path=str(p.relative_to(root)),
            raw_text=_read_text(p),
            meta=metas.get(str(p.relative_to(root))),
        )
        for p in paths
    )
    return CorpusSource(id=id, name=id, domain_label="", documents=documents)


def metadata_summary(corpus: CorpusSource) -> MetadataSummary:
    metas = [doc.meta or DocumentMeta() for doc in corpus.documents]
    total = len(metas)
    gender_counts = Counter(meta.gender for meta in metas)
    return MetadataSummary(
        total_docs=total,
        gender_counts=dict(gender_counts),
        female_fraction=gender_counts["female"] / total if total else 0.0,
        state_counts=dict(Counter(meta.native_state for meta in metas)),
        era_counts=dict(Counter(meta.era for meta in metas)),
    )
