"""Corpus loading and document-metadata analytics."""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .normalize import read_text, split_lines

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


@dataclass(frozen=True)
class CorpusSource:
    id: str
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


def load_metadata(root: str | Path) -> dict[str, DocumentMeta]:
    """Metadata by document path, from ``root/metadata.tsv`` if it exists.

    A header line names the columns; each later non-blank line holds one
    document's tab-separated cells, taken literally (no quoting).
    """
    sidecar = Path(root) / "metadata.tsv"
    if not sidecar.exists():
        return {}
    lines = split_lines(read_text(sidecar, CorpusError))
    columns = lines[0].split("\t")
    required = {"file", "title", "author", "gender", "state", "year"}
    if not required.issubset(columns):
        raise CorpusError(f"{sidecar}: header must contain columns {sorted(required)}")
    metas: dict[str, DocumentMeta] = {}
    first_line: dict[str, int] = {}  # file -> the line that listed it
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = [cell.strip() for cell in line.split("\t")]
        row = dict(zip(columns, cells + [""] * len(columns)))  # missing cells are empty
        if not row["file"]:
            raise CorpusError(f"{sidecar}:{lineno}: empty file column")
        if first_line.setdefault(row["file"], lineno) != lineno:
            raise CorpusError(f"{sidecar}:{lineno}: file {row['file']!r} already listed "
                              f"on line {first_line[row['file']]}")
        try:
            year = int(row["year"]) if row["year"] else None
        except ValueError:
            raise CorpusError(f"{sidecar}:{lineno}: bad year {row['year']!r}") from None
        metas[row["file"]] = DocumentMeta(
            title=unicodedata.normalize("NFC", row["title"]),
            author=unicodedata.normalize("NFC", row["author"]),
            gender=row["gender"].lower() or "unknown",
            native_state=unicodedata.normalize("NFC", row["state"]) or "unknown",
            year=year,
        )
    return metas


def document_paths(root: str | Path) -> list[Path]:
    """A corpus's documents: every ``*.txt`` file under ``root``, sorted."""
    return sorted(p for p in Path(root).rglob("*.txt") if p.is_file())


def load_corpus(root: str | Path, id: str) -> CorpusSource:
    """Load ``document_paths(root)`` in that order; no other file under ``root`` is read."""
    root = Path(root)
    if not root.exists():
        raise CorpusError(f"corpus directory not found: {root}")
    if not root.is_dir():
        raise CorpusError(f"corpus path is not a directory: {root}")
    paths = document_paths(root)
    if not paths:
        raise CorpusError(f"no .txt files under {root}")
    documents = tuple(
        Document(path=str(p.relative_to(root)), raw_text=read_text(p, CorpusError))
        for p in paths
    )
    return CorpusSource(id=id, documents=documents)


def metadata_summary(corpus: CorpusSource, metadata: dict[str, DocumentMeta]) -> MetadataSummary:
    """Summary over the corpus's documents; one without metadata counts as unknown."""
    metas = [metadata.get(doc.path, DocumentMeta()) for doc in corpus.documents]
    total = len(metas)
    gender_counts = Counter(meta.gender for meta in metas)
    return MetadataSummary(
        total_docs=total,
        gender_counts=dict(gender_counts),
        female_fraction=gender_counts["female"] / total if total else 0.0,
        state_counts=dict(Counter(meta.native_state for meta in metas)),
        era_counts=dict(Counter(meta.era for meta in metas)),
    )
