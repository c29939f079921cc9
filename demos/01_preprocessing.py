"""
Devanagari preprocessing: normalization, tokenization
=====================================================

Walks a short Hindi passage through the text-cleaning pipeline: Unicode
NFC normalization, whitespace collapsing, tokenization, and script-aware
filtering.
"""

from stoplemma.normalize import (
    FilterPolicy,
    filter_tokens,
    normalize_text,
    tokenize,
)

raw = "राम  घर गया।\nवह कल abc 123 आया था॥ क्या तुम आओगे?"

# Step 1: canonical form — NFC plus single-space whitespace runs.
text = normalize_text(raw)
print("normalized:", repr(text))

# Step 2: tokens, each tagged with a script/shape kind.
tokens = tokenize(text)
for token in tokens[:8]:
    print(f"  {token.surface!r:14} {token.kind.value}")

# Step 3: the default policy keeps Devanagari words and digits only;
# Latin words, Latin numbers, and symbols are dropped.
kept = filter_tokens(tokens, FilterPolicy())
print("kept surfaces:", [t.surface for t in kept])
