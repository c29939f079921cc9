import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stoplemma.freq import FrequencyTable, rank_items, read_ranked_tsv
from stoplemma.stats import (
    DEFAULT_GROUPS,
    PosLexicon,
    TagGroup,
    UndefinedCorrelationError,
    descriptive_stats,
    load_pos_lexicon,
    point_biserial,
    pos_rank_analysis,
    reject_pos_hypothesis,
    top_k_overlap,
)


def ranked_from(counts):
    return rank_items(FrequencyTable("lemma", counts, "t"))


class TestTopKOverlap:
    def test_identical_lists(self):
        a = ranked_from({"का": 3, "है": 2, "जा": 1})
        report = top_k_overlap([a, a], k=3)
        assert report.unique_items == 3
        assert set(report.counts.values()) == {2}

    def test_disjoint_lists(self):
        a = ranked_from({"का": 3, "है": 2, "जा": 1})
        b = ranked_from({"घर": 3, "राम": 2, "नदी": 1})
        report = top_k_overlap([a, b], k=3)
        assert report.unique_items == 6
        assert set(report.counts.values()) == {1}

    def test_table3_rows(self, table3_paths):
        lists = [read_ranked_tsv(p) for p in table3_paths]
        report = top_k_overlap(lists, k=10)
        assert report.source_count == 8
        assert report.max_count == 8
        assert report.unique_items == 18
        # the lemmas present in all eight sources
        everywhere = {item for item, n in report.counts.items() if n == 8}
        assert everywhere == {"का", "है", "कर", "में", "यह"}

    def test_sum_law_when_lists_long_enough(self):
        rng = random.Random(5)
        lists = [
            ranked_from({f"w{i}": rng.randint(1, 99) for i in range(10)})
            for _ in range(4)
        ]
        report = top_k_overlap(lists, k=7)
        assert sum(report.counts.values()) == 7 * 4
        assert not report.short_sources

    def test_short_list_flagged(self):
        a = ranked_from({"का": 2, "है": 1})
        b = ranked_from({"का": 1})
        report = top_k_overlap([a, b], k=2, source_ids=["a", "b"])
        assert report.short_sources == ("b",)

    def test_needs_two_lists(self):
        with pytest.raises(ValueError):
            top_k_overlap([ranked_from({"का": 1})], k=1)


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
        return PosLexicon(tags={
            "का": "PSP", "है": "VM", "वह": "PRP", "में": "PSP", "कर": "VM",
            "और": "CC", "नहीं": "NEG", "एक": "QC",
        })

    def test_absent_group_flagged(self):
        lists = [ranked_from({"का": 5, "है": 4, "वह": 3, "कर": 2})]
        report = pos_rank_analysis(lists, self.make_lex(), source_ids=["s"])
        sym = next(s for s in report.summaries if s.group == "SYM")
        assert sym.mean_r is None
        assert sym.flagged_sources == ("s",)

    def test_front_loaded_group_strongly_negative(self):
        # all PSP/PRP items at the best ranks
        counts = {"का": 90, "वह": 80, "में": 70}
        counts.update({f"w{i}": 60 - i for i in range(12)})
        report = pos_rank_analysis([ranked_from(counts)], self.make_lex())
        cell = next(c for c in report.cells if c.group == "PSP/PRP")
        membership = [1, 1, 1] + [0] * 12
        ranks = [float(i + 1) for i in range(15)]
        pearson = np.corrcoef(membership, ranks)[0, 1]
        assert cell.r == pytest.approx(pearson, abs=1e-12)
        assert cell.r < -0.5

    def test_use_frequency_correlates_counts(self):
        counts = {"का": 90, "है": 41, "वह": 40, "घर": 12, "कर": 7, "में": 3, "राम": 1}
        ranked = ranked_from(counts)
        lex = self.make_lex()
        report = pos_rank_analysis([ranked], lex, use_frequency=True)
        defined = [c for c in report.cells if c.r is not None]
        assert defined
        values = [float(c) for _, c in ranked.entries]
        for cell in defined:
            group = next(g for g in DEFAULT_GROUPS if g.name == cell.group)
            membership = [1 if lex.tag_of(item) in group.members else 0
                          for item, _ in ranked.entries]
            assert (cell.r, cell.p) == point_biserial(membership, values)

    def test_aggregation_arithmetic(self):
        mean, sd, hi, lo = descriptive_stats([-0.1, -0.04])
        assert mean == pytest.approx(-0.07)
        assert hi == -0.04 and lo == -0.1

    def test_depth_limits_window(self):
        counts = {f"w{i}": 100 - i for i in range(20)}
        counts["का"] = 200
        report = pos_rank_analysis([ranked_from(counts)], self.make_lex(), depth=5)
        assert report.depth == 5
        cell = next(c for c in report.cells if c.group == "PSP/PRP")
        assert cell.n1 + cell.n0 == 5

    @pytest.mark.parametrize("depth", [0, -3])
    def test_depth_below_one_rejected(self, depth):
        counts = {f"w{i}": 100 - i for i in range(20)}
        with pytest.raises(ValueError, match=f"depth must be >= 1, got {depth}"):
            pos_rank_analysis([ranked_from(counts)], self.make_lex(), depth=depth)

    def test_hypothesis_threshold(self):
        lists = [ranked_from({"का": 5, "है": 4, "वह": 3, "कर": 2, "घर": 1})]
        report = pos_rank_analysis(lists, self.make_lex())
        assert reject_pos_hypothesis(report, threshold=1.0)
        assert not reject_pos_hypothesis(report, threshold=0.0)


def test_load_pos_lexicon(tmp_path):
    path = tmp_path / "pos.tsv"
    path.write_text("का\tPSP\n# c\nहै\tVM\n", encoding="utf-8")
    lex = load_pos_lexicon(path)
    assert lex.tag_of("का") == "PSP"
    assert lex.tag_of("घर") == "other"


def test_default_groups_cover_the_expected_tags():
    names = [g.name for g in DEFAULT_GROUPS]
    assert names == ["NN/NNP/NNPC", "PSP/PRP", "SYM", "VM", "QC/QF/QO", "NEG", "CC"]
