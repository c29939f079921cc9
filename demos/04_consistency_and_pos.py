"""
Cross-source consistency and POS-rank correlation
=================================================

Two diagnostics over ranked frequency lists:

* top-k overlap — how many of eight sources share each top-10 lemma
  (a lemma seen in all eight is a very strong stop-lemma candidate);
* point-biserial correlation between part-of-speech group membership
  and rank, to test whether function-word groups crowd the top ranks.
"""

from stoplemma import data_path
from stoplemma.freq import read_ranked_tsv
from stoplemma.stats import (
    load_pos_lexicon,
    pos_rank_analysis,
    reject_pos_hypothesis,
    top_k_overlap,
)

paths = sorted(data_path("table3_top10").glob("*.tsv"))
lists = {p.stem: read_ranked_tsv(p) for p in paths}

counts = top_k_overlap(lists, k=10)
print(f"{len(counts)} distinct lemmas across {len(lists)} top-10 lists")
most = max(counts.values())
print(f"present in {most} of {len(lists)} sources:", sorted(l for l, n in counts.items() if n == most))

pos = load_pos_lexicon(data_path("demo_pos_lexicon.tsv"))
analysis = pos_rank_analysis(lists, pos)
for summary in analysis["summaries"]:
    if summary["mean_r"] is None:
        print(f"  {summary['group']:12} undefined in: {summary['flagged_sources']}")
    else:
        print(f"  {summary['group']:12} mean r = {summary['mean_r']:+.3f}")

# A strong negative r would mean the group concentrates at the best
# ranks; no group exceeding the threshold (0.5, as `posstats --threshold`
# gives by default) keeps the null standing.
print("reject POS-dominance hypothesis:", reject_pos_hypothesis(analysis, threshold=0.5))
