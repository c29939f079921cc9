"""Corpus loading."""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple


class Document(NamedTuple):
    """The UTF-8 file ``file``, named ``path``; read and hashed only when counted (``freq.count_document_words``)."""
    path: str
    file: Path


class CorpusSource(NamedTuple):
    documents: tuple[Document, ...]


def load_corpus(root: str | Path) -> CorpusSource:
    """A corpus's documents: every ``*.txt`` file under ``root``, sorted, each named by its path under ``root``.

    No file is read here: a document that is not UTF-8 is an error when it is counted.
    """
    root = Path(root)
    if not root.exists():
        raise ValueError(f"corpus directory not found: {root}")
    if not root.is_dir():
        raise ValueError(f"corpus path is not a directory: {root}")
    paths = sorted(p for p in root.rglob("*.txt") if p.is_file())
    if not paths:
        raise ValueError(f"no .txt files under {root}")
    return CorpusSource(documents=tuple(Document(path=str(p.relative_to(root)), file=p) for p in paths))
