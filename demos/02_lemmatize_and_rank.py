"""
Lexicon lemmatization and frequency ranking
===========================================

Counts word and lemma frequencies over the bundled demo corpus and
prints the ranked head of each table. Ranking is raw-count descending
with a codepoint tie-break, so repeated runs are always identical.
"""

from stoplemma import data_path
from stoplemma.corpus import load_corpus
from stoplemma.freq import count_words, lemma_table, rank_items, top_k
from stoplemma.lemma import load_lexicon

corpus = load_corpus(data_path("demo_corpus"))
print(f"documents: {len(corpus.documents)}")

lex = load_lexicon(data_path("demo_lexicon.tsv"))
print(f"lexicon entries: {len(lex.entries)}")

words = count_words(corpus)
lemmas = lemma_table(words, lex)
print(f"tokens: {words.total_tokens}, "
      f"unique words: {words.unique_count}, unique lemmas: {lemmas.unique_count}")

# Lemmatization collapses inflected forms, so the lemma table is never
# larger than the word table and its head is more stable.
print("top words: ", top_k(rank_items(words.counts), 8))
print("top lemmas:", top_k(rank_items(lemmas.counts), 8))
