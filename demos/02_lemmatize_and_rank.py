"""
Lexicon lemmatization and frequency ranking
===========================================

Counts word and lemma frequencies over the bundled demo corpus and
prints the ranked head of each table. Ranking is raw-count descending
with a codepoint tie-break, so repeated runs are always identical.
"""

from stoplemma import data_path
from stoplemma.corpus import load_corpus, load_metadata, metadata_summary
from stoplemma.freq import count_lemmas, count_words, rank_items, top_k
from stoplemma.lemma import load_lexicon, oov_rate

corpus = load_corpus(data_path("demo_corpus"), id="demo")
print(f"documents: {len(corpus.documents)}")
summary = metadata_summary(corpus, load_metadata(data_path("demo_corpus")))
print(f"metadata: {summary}")

lex = load_lexicon(data_path("demo_lexicon.tsv"))
print(f"lexicon entries: {len(lex.entries)}")

words = count_words(corpus)
lemmas = count_lemmas(corpus, lex=lex)
print(f"tokens: {words.total_tokens}, "
      f"unique words: {words.unique_count}, unique lemmas: {lemmas.unique_count}")
print(f"out-of-lexicon rate: {oov_rate(words.counts, lex):.3f}")

# Lemmatization collapses inflected forms, so the lemma table is never
# larger than the word table and its head is more stable.
print("top words: ", top_k(rank_items(words), 8))
print("top lemmas:", top_k(rank_items(lemmas), 8))
