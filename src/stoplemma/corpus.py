"""Corpus loading and document-metadata analytics."""

from __future__ import annotations

import csv
import unicodedata
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
    with sidecar.open(encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh, delimiter="\t")
        required = {"file", "title", "author", "gender", "state", "year"}
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
    return metas


def load_corpus(
    root: str | Path,
    id: str,
    domain_label: str = "",
    name: str = "",
    extension: str = ".txt",
) -> CorpusSource:
    """Load every ``*.txt`` under ``root`` in lexicographic path order.

    Metadata comes from an optional ``metadata.tsv`` sidecar; files without a
    row load with no metadata.
    """
    root = Path(root)
    if not root.is_dir():
        raise CorpusError(f"corpus directory not found: {root}")
    paths = sorted(p for p in root.rglob(f"*{extension}") if p.is_file())
    if not paths:
        raise CorpusError(f"no {extension} files under {root}")
    metas = _load_sidecar(root)
    documents = tuple(
        Document(
            path=str(p.relative_to(root)),
            raw_text=_read_text(p),
            meta=metas.get(str(p.relative_to(root))),
        )
        for p in paths
    )
    return CorpusSource(id=id, name=name or id, domain_label=domain_label, documents=documents)


def metadata_summary(corpus: CorpusSource) -> MetadataSummary:
    gender_counts: dict[str, int] = {}
    state_counts: dict[str, int] = {}
    era_counts: dict[str, int] = {}
    for doc in corpus.documents:
        meta = doc.meta or DocumentMeta()
        gender_counts[meta.gender] = gender_counts.get(meta.gender, 0) + 1
        state_counts[meta.native_state] = state_counts.get(meta.native_state, 0) + 1
        era_counts[meta.era] = era_counts.get(meta.era, 0) + 1
    total = len(corpus.documents)
    female = gender_counts.get("female", 0)
    return MetadataSummary(
        total_docs=total,
        gender_counts=gender_counts,
        female_fraction=female / total if total else 0.0,
        state_counts=state_counts,
        era_counts=era_counts,
    )
