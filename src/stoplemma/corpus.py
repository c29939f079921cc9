"""Corpus loading."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .normalize import read_text


@dataclass(frozen=True)
class Document:
    path: str
    raw_text: str


@dataclass(frozen=True)
class CorpusSource:
    documents: tuple[Document, ...]


def document_paths(root: str | Path) -> list[Path]:
    """A corpus's documents: every ``*.txt`` file under ``root``, sorted."""
    return sorted(p for p in Path(root).rglob("*.txt") if p.is_file())


def load_corpus(root: str | Path) -> CorpusSource:
    """Load ``document_paths(root)`` in that order; no other file under ``root`` is read."""
    root = Path(root)
    if not root.exists():
        raise ValueError(f"corpus directory not found: {root}")
    if not root.is_dir():
        raise ValueError(f"corpus path is not a directory: {root}")
    paths = document_paths(root)
    if not paths:
        raise ValueError(f"no .txt files under {root}")
    documents = tuple(
        Document(path=str(p.relative_to(root)), raw_text=read_text(p))
        for p in paths
    )
    return CorpusSource(documents=documents)
