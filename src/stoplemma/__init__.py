"""Hindi stop-lemma induction toolkit.

Corpus preprocessing (Devanagari-aware normalization, tokenization),
raw-frequency ranking, lexicon-based lemmatization,
stop-lemma list induction via set algebra over public stop word lists and
corpus rankings, plus top-k overlap and point-biserial rank/POS analyses.
"""

from importlib import resources
from pathlib import Path

__version__ = "0.1.0"


def data_path(*parts: str) -> Path:
    """Path to a bundled data file (reference lists, demo corpus, fixtures)."""
    base = resources.files(__name__) / "data"
    target = base.joinpath(*parts)
    return Path(str(target))
