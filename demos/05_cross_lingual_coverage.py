"""
Cross-lingual coverage of the stop-lemma list
=============================================

Maps an English stop word inventory into Hindi, lemmatizes the
translations, and measures how many of the resulting lemmas the bundled
311-entry stop-lemma list already contains.
"""

from stoplemma import data_path
from stoplemma.assess import coverage_summary, format_summary, load_mapping
from stoplemma.induce import load_stopword_list
from stoplemma.lemma import load_lexicon

mapping = load_mapping(data_path("english_hindi_mapping.tsv"))
lex = load_lexicon(data_path("demo_lexicon.tsv"))
stop = set(load_stopword_list(data_path("table5_stoplemmas.txt")))

summary = coverage_summary(mapping, lex, stop)
print(format_summary(summary))
print("missing lemmas:", summary["misses"])
