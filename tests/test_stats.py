import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stoplemma.freq import RankedList, rank_items, read_ranked_tsv
from stoplemma.stats import (
    DEFAULT_GROUPS,
    UndefinedCorrelationError,
    descriptive_stats,
    load_pos_lexicon,
    point_biserial,
    pos_rank_analysis,
    reject_pos_hypothesis,
    top_k_overlap,
)


def ranked_from(counts):
    return rank_items(counts)


class TestTopKOverlap:
    def test_identical_lists(self):
        a = ranked_from({"का": 3, "है": 2, "जा": 1})
        counts = top_k_overlap({"a": a, "b": a}, k=3)
        assert len(counts) == 3
        assert set(counts.values()) == {2}

    def test_disjoint_lists(self):
        a = ranked_from({"का": 3, "है": 2, "जा": 1})
        b = ranked_from({"घर": 3, "राम": 2, "नदी": 1})
        counts = top_k_overlap({"a": a, "b": b}, k=3)
        assert len(counts) == 6
        assert set(counts.values()) == {1}

    def test_table3_rows(self, table3_paths):
        lists = {p.stem: read_ranked_tsv(p) for p in table3_paths}
        counts = top_k_overlap(lists, k=10)
        assert len(lists) == 8
        assert max(counts.values()) == 8
        assert len(counts) == 18
        # the lemmas present in all eight sources
        everywhere = {item for item, n in counts.items() if n == 8}
        assert everywhere == {"का", "है", "कर", "में", "यह"}

    def test_sum_law_when_lists_long_enough(self):
        rng = random.Random(5)
        lists = {
            f"s{s}": ranked_from({f"w{i}": rng.randint(1, 99) for i in range(10)})
            for s in range(4)
        }
        assert sum(top_k_overlap(lists, k=7).values()) == 7 * 4

    def test_needs_two_lists(self):
        with pytest.raises(ValueError):
            top_k_overlap({"a": ranked_from({"का": 1})}, k=1)


class TestPointBiserial:
    def test_derived_example(self):
        r, p = point_biserial([1, 1, 0, 0], [1, 2, 3, 4])
        assert r == pytest.approx(-0.8944, abs=1e-4)

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 3"):
            point_biserial([1, 0], [1, 2])

    def test_symmetric_members_give_zero(self):
        # members sit at both ranks symmetrically, so the group means coincide
        r, _ = point_biserial([1, 0, 0, 1], [1, 2, 1, 2])
        assert r == pytest.approx(0.0, abs=1e-15)

    def test_constant_membership(self):
        with pytest.raises(UndefinedCorrelationError, match="constant"):
            point_biserial([1, 1, 1], [1, 2, 3])

    def test_zero_rank_variance(self):
        with pytest.raises(UndefinedCorrelationError, match="variance"):
            point_biserial([1, 0, 1], [2, 2, 2])

    def test_equals_pearson(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(3, 60)
            membership = [rng.randint(0, 1) for _ in range(n)]
            ranks = [float(i + 1) for i in range(n)]
            rng.shuffle(ranks)
            if len(set(membership)) < 2:
                continue
            r, _ = point_biserial(membership, ranks)
            pearson = np.corrcoef(membership, ranks)[0, 1]
            assert abs(r - pearson) <= 1e-12

    def test_negating_membership_negates_r(self):
        membership = [1, 0, 0, 1, 0]
        ranks = [1.0, 2.0, 3.0, 4.0, 5.0]
        r, _ = point_biserial(membership, ranks)
        r_neg, _ = point_biserial([1 - m for m in membership], ranks)
        assert r_neg == pytest.approx(-r, abs=1e-15)

    def test_affine_rank_invariance(self):
        membership = [1, 0, 1, 0, 0, 1]
        ranks = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        r, _ = point_biserial(membership, ranks)
        r2, _ = point_biserial(membership, [3.0 * x + 7.0 for x in ranks])
        assert r2 == pytest.approx(r, abs=1e-12)

    def test_p_in_unit_interval_and_monotone(self):
        # stronger |r| gives smaller p at fixed n
        _, p_weak = point_biserial([1, 0, 1, 0, 1, 0], [1, 6, 2, 5, 3, 4])
        _, p_strong = point_biserial([1, 1, 1, 0, 0, 0], [1, 2, 3, 4, 5, 6])
        assert 0 <= p_strong <= p_weak <= 1


class TestDescriptiveStats:
    def test_pair(self):
        mean, sd, hi, lo = descriptive_stats([2, 4])
        assert (mean, hi, lo) == (3, 4, 2)
        assert sd == pytest.approx(math.sqrt(2))

    def test_single_value_has_no_sd(self):
        mean, sd, hi, lo = descriptive_stats([5])
        assert mean == 5 and sd is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            descriptive_stats([])

    def test_against_numpy(self):
        rng = random.Random(29)
        for _ in range(50):
            values = [rng.uniform(-10, 10) for _ in range(rng.randint(2, 40))]
            mean, sd, hi, lo = descriptive_stats(values)
            assert mean == pytest.approx(np.mean(values), abs=1e-12)
            assert sd == pytest.approx(np.std(values, ddof=1), abs=1e-12)
            assert (hi, lo) == (max(values), min(values))


class TestPosRankAnalysis:
    def make_lex(self):
        return {
            "का": "PSP", "है": "VM", "वह": "PRP", "में": "PSP", "कर": "VM",
            "और": "CC", "नहीं": "NEG", "एक": "QC",
        }

    def test_absent_group_flagged(self):
        lists = {"s": ranked_from({"का": 5, "है": 4, "वह": 3, "कर": 2})}
        report = pos_rank_analysis(lists, self.make_lex())
        sym = next(s for s in report["summaries"] if s["group"] == "SYM")
        assert sym["mean_r"] is None
        assert sym["flagged_sources"] == ["s"]

    def test_front_loaded_group_strongly_negative(self):
        # all PSP/PRP items at the best ranks
        counts = {"का": 90, "वह": 80, "में": 70}
        counts.update({f"w{i}": 60 - i for i in range(12)})
        report = pos_rank_analysis({"s": ranked_from(counts)}, self.make_lex())
        cell = next(c for c in report["cells"] if c["group"] == "PSP/PRP")
        membership = [1, 1, 1] + [0] * 12
        ranks = [float(i + 1) for i in range(15)]
        pearson = np.corrcoef(membership, ranks)[0, 1]
        assert cell["r"] == pytest.approx(pearson, abs=1e-12)
        assert cell["r"] < -0.5

    def test_use_frequency_correlates_counts(self):
        counts = {"का": 90, "है": 41, "वह": 40, "घर": 12, "कर": 7, "में": 3, "राम": 1}
        ranked = ranked_from(counts)
        lex = self.make_lex()
        report = pos_rank_analysis({"s": ranked}, lex, use_frequency=True)
        defined = [c for c in report["cells"] if c["r"] is not None]
        assert defined
        values = [float(c) for _, c in ranked.entries]
        for cell in defined:
            membership = [1 if lex.get(item) in DEFAULT_GROUPS[cell["group"]] else 0
                          for item, _ in ranked.entries]
            assert (cell["r"], cell["p"]) == point_biserial(membership, values)

    def test_constant_membership_is_flagged_before_the_variance_is_checked(self):
        entries = tuple((f"w{i}", (4 - i) * 10**200) for i in range(4))  # squares overflow
        report = pos_rank_analysis({"s": RankedList(entries)}, {}, use_frequency=True)
        assert {c["error"] for c in report["cells"]} == {"membership is constant"}
        with pytest.raises(ValueError, match="source s: count too large"):
            pos_rank_analysis({"s": RankedList(entries)}, {"w0": "VM"}, use_frequency=True)
        equal = RankedList(tuple((f"w{i}", 5) for i in range(4)))
        report = pos_rank_analysis({"s": equal}, {"w0": "VM"}, use_frequency=True)
        assert {c["group"]: c["error"] for c in report["cells"] if c["group"] in ("VM", "CC")} == {
            "VM": "counts have zero variance", "CC": "membership is constant"}

    def test_aggregation_arithmetic(self):
        mean, sd, hi, lo = descriptive_stats([-0.1, -0.04])
        assert mean == pytest.approx(-0.07)
        assert hi == -0.04 and lo == -0.1

    def test_depth_limits_window(self):
        counts = {f"w{i}": 100 - i for i in range(20)}
        counts["का"] = 200
        report = pos_rank_analysis({"s": ranked_from(counts)}, self.make_lex(), depth=5)
        assert report["depth"] == 5
        cell = next(c for c in report["cells"] if c["group"] == "PSP/PRP")
        assert cell["n1"] + cell["n0"] == 5

    @pytest.mark.parametrize("depth", [0, -3])
    def test_depth_below_one_rejected(self, depth):
        counts = {f"w{i}": 100 - i for i in range(20)}
        with pytest.raises(ValueError, match=f"depth must be >= 1, got {depth}"):
            pos_rank_analysis({"s": ranked_from(counts)}, self.make_lex(), depth=depth)

    def test_hypothesis_threshold(self):
        lists = {"s": ranked_from({"का": 5, "है": 4, "वह": 3, "कर": 2, "घर": 1})}
        report = pos_rank_analysis(lists, self.make_lex())
        assert reject_pos_hypothesis(report, threshold=1.0)
        assert not reject_pos_hypothesis(report, threshold=0.0)


def test_load_pos_lexicon(tmp_path):
    path = tmp_path / "pos.tsv"
    path.write_text("का\tPSP\n# c\nहै\tVM\n", encoding="utf-8")
    assert load_pos_lexicon(path) == {"का": "PSP", "है": "VM"}


def test_default_groups_cover_the_expected_tags():
    assert list(DEFAULT_GROUPS) == ["NN/NNP/NNPC", "PSP/PRP", "SYM", "VM", "QC/QF/QO", "NEG", "CC"]


def test_default_groups_are_disjoint():
    # pos_rank_analysis tags each entry with at most one group
    names = list(DEFAULT_GROUPS)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert not DEFAULT_GROUPS[a] & DEFAULT_GROUPS[b], (a, b)


def reference_cell(group, sid, r, p, n1, n0, error=None):
    return {"group": group, "source_id": sid, "r": r, "p": p, "n1": n1, "n0": n0, "error": error}


def reference_analysis(lists, lex, depth, use_frequency=False):
    """pos_rank_analysis cell by cell: point_biserial over 0/1 membership and the ranks or counts."""
    cells, summaries = [], []
    for group, members in DEFAULT_GROUPS.items():
        row = []
        for sid, ranked in lists.items():
            entries = ranked.entries[:depth]
            membership = [1 if lex.get(item) in members else 0 for item, _ in entries]
            n1, n0 = sum(membership), len(entries) - sum(membership)
            if len(entries) < 3:
                row.append(reference_cell(group, sid, None, None, 0, 0, "fewer than 3 entries"))
                continue
            values = [float(count) if use_frequency else float(rank)
                      for rank, (_, count) in enumerate(entries, start=1)]
            try:
                r, p = point_biserial(membership, values)
            except UndefinedCorrelationError as exc:
                row.append(reference_cell(group, sid, None, None, n1, n0, str(exc)))
                continue
            row.append(reference_cell(group, sid, r, p, n1, n0))
        cells += row
        defined = [c for c in row if c["error"] is None]
        mean_r = sd_r = max_r = min_r = mean_p = sd_p = None
        if defined:
            mean_r, sd_r, max_r, min_r = descriptive_stats([c["r"] for c in defined])
            mean_p, sd_p, _, _ = descriptive_stats([c["p"] for c in defined])
        summaries.append({
            "group": group, "mean_r": mean_r, "sd_r": sd_r, "max_r": max_r, "min_r": min_r,
            "mean_p": mean_p, "sd_p": sd_p, "defined_sources": len(defined),
            "flagged_sources": [c["source_id"] for c in row if c["error"] is not None],
        })
    return cells, summaries


_ITEMS = [f"w{i}" for i in range(100)]
_TAGS = sorted({tag for members in DEFAULT_GROUPS.values() for tag in members}) + ["JJ", "RB", "other"]
# at most 80 entries a list, so the counts of one list total less than 2**53
_COUNT = st.integers(0, 3) | st.integers(0, 2**53 // 80)


@settings(max_examples=300, deadline=None)
@given(
    # each item has a tag in a group, a tag in none, or no tag
    tags=st.lists(st.sampled_from([*_TAGS, None]), min_size=len(_ITEMS), max_size=len(_ITEMS)),
    orders=st.lists(st.tuples(st.integers(0, 80), st.permutations(_ITEMS)).map(lambda t: t[1][:t[0]]),
                    min_size=1, max_size=4),
    counts=st.lists(_COUNT, min_size=80, max_size=80),
    depth=st.none() | st.integers(1, 90),
    use_frequency=st.booleans(),
)
def test_rank_path_equals_point_biserial_per_cell(tags, orders, counts, depth, use_frequency):
    lex = {item: tag for item, tag in zip(_ITEMS, tags) if tag}
    # counts in any order: pos_rank_analysis takes a list's order as given
    lists = {f"s{i}": RankedList(tuple(zip(order, counts))) for i, order in enumerate(orders)}
    report = pos_rank_analysis(lists, lex, depth=depth, use_frequency=use_frequency)
    cells, summaries = reference_analysis(lists, lex, depth, use_frequency)
    # == on r and p: below 2**53 the exact integer sums give point_biserial's very floats
    longest = max(map(len, lists.values()))
    assert report == {"cells": cells, "summaries": summaries, "depth": min(depth or longest, longest)}


def test_counts_beyond_two_to_the_53_stay_close_to_point_biserial():
    # the totals pass 2**53, so the means are the correctly rounded ones and
    # point_biserial's in-order float sums may differ from them in the last bits
    counts = [2**62 // (i + 1) + 3 * i for i in range(60)]
    order = [f"w{i}" for i in range(60)]
    lex = {f"w{i}": "PSP" if i % 3 == 0 else "VM" for i in range(0, 60, 2)}
    report = pos_rank_analysis({"s": RankedList(tuple(zip(order, counts)))}, lex, use_frequency=True)
    defined = [c for c in report["cells"] if c["error"] is None]
    assert [c["group"] for c in defined] == ["PSP/PRP", "VM"]
    values = [float(c) for c in counts]
    for cell in defined:
        r, p = point_biserial([1 if lex.get(item) in DEFAULT_GROUPS[cell["group"]] else 0
                               for item in order], values)
        assert cell["r"] == pytest.approx(r, rel=1e-12)
        assert cell["p"] == pytest.approx(p, rel=1e-12)

