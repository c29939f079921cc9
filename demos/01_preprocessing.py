"""
Devanagari preprocessing: the token scan, token kinds and filtering
===================================================================

Walks a short Hindi passage through what `freq` and `induce` do to each
token of a corpus: NFC normalization, the scan into word runs and symbols,
script-aware classification and the filter policy.  Last, the passage is
written to a small corpus folder and counted as the CLI counts it.
"""

import tempfile
import unicodedata
from pathlib import Path

from stoplemma.corpus import load_corpus
from stoplemma.freq import count_words, rank_items
from stoplemma.normalize import FilterPolicy, classify, scan_surfaces

raw = "राम  घर गया।\nवह कल abc 123 आया था॥ क्या तुम आओगे?"

# Step 1: each whitespace token, NFC-normalized, is scanned into surfaces.
# A word run is never subdivided, so joined (sandhi) words pass through
# whole; every other non-space character is a symbol of its own.
surfaces = [s for token in raw.split() for s in scan_surfaces(unicodedata.normalize("NFC", token))]
print("surfaces:", surfaces)

# Step 2: each surface gets a kind, from its script and shape.
for surface in surfaces[:8]:
    print(f"  {surface!r:14} {classify(surface).value}")

# Step 3: the default policy keeps Devanagari words and digits only;
# Latin words, Latin numbers, and symbols are dropped.
policy = FilterPolicy()
print("kept surfaces:", [s for s in surfaces if policy.keeps(classify(s))])

# Step 4: the passage as the one document of a corpus folder, counted as
# `stoplemma freq` counts it.
with tempfile.TemporaryDirectory() as folder:
    Path(folder, "passage.txt").write_text(raw, encoding="utf-8")
    words = count_words(load_corpus(folder), policy)
print("ranked counts:", rank_items(words.counts).entries)
