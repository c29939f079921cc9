"""
Stop-lemma induction: published lists ∩ corpus-frequent lemmas
==============================================================

Builds the two candidate sets and intersects them:

* Set A — union of the lemmatized top-k prefixes of three published
  stop word lists (after within- and cross-list deduplication);
* Set B — union of each corpus's top-k most frequent lemmas.

The final list is A ∩ B, ordered by aggregate corpus count.
"""

from stoplemma import data_path
from stoplemma.corpus import load_corpus
from stoplemma.freq import count_words, lemma_table
from stoplemma.induce import (
    build_final_list,
    build_set_a,
    build_set_b,
    induction_report,
    load_stopword_list,
)
from stoplemma.lemma import load_lexicon

lex = load_lexicon(data_path("demo_lexicon.tsv"))
lists = [
    load_stopword_list(data_path("demo_stoplists", f"list{i}.txt"))
    for i in (1, 2, 3)
]
corpus = load_corpus(data_path("demo_corpus"))
table = lemma_table(count_words(corpus), lex)

set_a = build_set_a(lists, lex, k=20)
set_b = build_set_b([table.counts], k=20)
print(f"set A: {len(set_a)} lemmas, set B: {len(set_b)} lemmas")

final = build_final_list(set_a, set_b, [table.counts])
print(f"final list ({len(final)} lemmas):")
for lemma, count in final.entries:
    print(f"  {lemma}\t{count}")

report = induction_report(lists, set_a, set_b, final)
print(f"stop word entries: {report['raw_word_total']} raw -> {report['deduped_word_total']} distinct")
print(report)
