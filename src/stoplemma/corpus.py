"""Corpus loading."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Document:
    """A document named ``path``: the UTF-8 file ``file``, or else the text ``raw_text``.

    A file is read only when it is counted (``freq.count_document_words``);
    ``raw_text`` is counted as a file holding ``raw_text.encode()`` would be.
    """
    path: str
    raw_text: str | None = None
    file: Path | None = None


@dataclass(frozen=True)
class CorpusSource:
    documents: tuple[Document, ...]


def document_paths(root: str | Path) -> list[Path]:
    """A corpus's documents: every ``*.txt`` file under ``root``, sorted."""
    return sorted(p for p in Path(root).rglob("*.txt") if p.is_file())


def load_corpus(root: str | Path) -> CorpusSource:
    """The file documents ``document_paths(root)``, in that order, each named by its path under ``root``.

    No file is read here: a document that is not UTF-8 is an error when it is counted.
    """
    root = Path(root)
    if not root.exists():
        raise ValueError(f"corpus directory not found: {root}")
    if not root.is_dir():
        raise ValueError(f"corpus path is not a directory: {root}")
    paths = document_paths(root)
    if not paths:
        raise ValueError(f"no .txt files under {root}")
    return CorpusSource(documents=tuple(Document(path=str(p.relative_to(root)), file=p) for p in paths))
