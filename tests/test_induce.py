import random

import pytest

from stoplemma import data_path
from stoplemma.freq import FrequencyTable, rank_items
from stoplemma.induce import (
    InductionError,
    StopWordList,
    aggregate_lemma_counts,
    build_final_list,
    build_set_a,
    build_set_b,
    dedup_across_lists,
    induction_report,
    load_reference_list,
    load_stopword_list,
    write_stoplemma_list,
)
from stoplemma.lemma import EMPTY_LEXICON, LemmaLexicon


def write_list(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def ranked_from(counts):
    return rank_items(FrequencyTable("lemma", counts, "t"))


class TestLoadStopwordList:
    def test_dedup_logged(self, tmp_path):
        sl = load_stopword_list(write_list(tmp_path, "l.txt", ["का", "का", "है"]), "s1")
        assert sl.entries == ("का", "है")
        assert sl.duplicates_removed == 1

    def test_comment_only_file_is_empty_error(self, tmp_path):
        with pytest.raises(InductionError, match="empty"):
            load_stopword_list(write_list(tmp_path, "l.txt", ["# comment"]), "s1")

    def test_three_list_cross_dedup(self, tmp_path):
        # 30 raw entries over 3 lists reduce to 24 distinct
        l1 = ["का", "है", "में", "से", "को", "और", "यह", "वह", "ने", "पर"]
        l2 = ["का", "है", "एक", "हो", "नहीं", "मैं", "आप", "जो", "कर", "भी"]
        l3 = ["का", "और", "से", "तो", "ही", "था", "थे", "गया", "कुछ", "यह"]
        lists = [
            load_stopword_list(write_list(tmp_path, f"{i}.txt", l), f"s{i}")
            for i, l in enumerate([l1, l2, l3])
        ]
        raw, deduped = dedup_across_lists(lists)
        assert raw == 30
        assert deduped == len(set(l1) | set(l2) | set(l3)) == 24


class TestBuildSetA:
    def test_single_element(self):
        lists = [StopWordList("s1", ("गया",))]
        lex = LemmaLexicon(entries={"गया": "जा"})
        assert build_set_a(lists, lex, k=100) == {"जा"}

    def test_disjoint_union(self):
        lists = [StopWordList("s1", ("का", "है")), StopWordList("s2", ("घर", "जा"))]
        assert build_set_a(lists, EMPTY_LEXICON, k=100) == {"का", "है", "घर", "जा"}

    def test_overlapping_morphology_collapses(self):
        lex = LemmaLexicon(entries={
            "गया": "जा", "जाता": "जा", "किया": "कर", "करते": "कर", "हैं": "है",
        })
        lists = [
            StopWordList("s1", ("गया", "जाता", "किया", "का")),
            StopWordList("s2", ("करते", "हैं", "है", "गया")),
            StopWordList("s3", ("घर", "राम", "जाता", "किया")),
        ]
        # brute force: union of per-list lemma images
        expected = set()
        for sl in lists:
            expected |= {lex.lemma_of(w) for w in sl.entries}
        result = build_set_a(lists, lex, k=100)
        assert result == expected == {"जा", "कर", "का", "है", "घर", "राम"}

    def test_k_truncates_each_list(self):
        lists = [StopWordList("s1", ("का", "है", "घर"))]
        assert build_set_a(lists, EMPTY_LEXICON, k=2) == {"का", "है"}

    def test_multiword_entries_lemmatized_tokenwise(self):
        lex = LemmaLexicon(entries={"की": "का"})
        lists = [StopWordList("s1", ("की तरह",))]
        assert build_set_a(lists, lex, k=10) == {"का तरह"}


class TestBuildSetB:
    def test_single_source(self):
        ranked = ranked_from({"का": 9, "है": 5, "घर": 1})
        assert build_set_b([ranked], k=2) == {"का", "है"}

    def test_saturation(self):
        lists = [ranked_from({"का": 2, "है": 1}), ranked_from({"घर": 4})]
        assert build_set_b(lists, k=100) == {"का", "है", "घर"}

    def test_monotone_in_k(self):
        rng = random.Random(3)
        lists = [
            ranked_from({f"w{i}": rng.randint(1, 30) for i in range(rng.randint(1, 15))})
            for _ in range(4)
        ]
        for k in range(1, 15):
            assert build_set_b(lists, k) <= build_set_b(lists, k + 1)


class TestBuildFinalList:
    def test_intersection(self):
        final = build_final_list({"x", "y"}, {"y", "z"}, {"y": 7})
        assert final.lemmas == (("y", 7),)

    def test_disjoint_inputs(self):
        final = build_final_list({"x"}, {"z"}, {})
        assert len(final) == 0

    def test_missing_count_is_error(self):
        with pytest.raises(InductionError, match="aggregate count"):
            build_final_list({"y"}, {"y"}, {})

    def test_order_and_tie_break(self):
        final = build_final_list(
            {"का", "जा", "है"}, {"का", "जा", "है"},
            {"का": 9, "जा": 3, "है": 3},
        )
        assert [l for l, _ in final.lemmas] == ["का", "जा", "है"]

    def test_small_fixture_against_brute_force(self):
        set_a = {"का", "है", "जा", "कर", "घर", "राम"}
        set_b = {"का", "है", "जा", "नदी", "पेड़"}
        counts = {"का": 50, "है": 40, "जा": 10, "नदी": 5, "पेड़": 2}
        final = build_final_list(set_a, set_b, counts)
        expected = sorted(set_a & set_b, key=lambda l: (-counts[l], l))
        assert [l for l, _ in final.lemmas] == expected
        assert {l for l, _ in final.lemmas} <= set_a & set_b
        assert len(final) <= min(len(set_a), len(set_b))


def test_induction_report_counts(tmp_path):
    lists = [
        load_stopword_list(write_list(tmp_path, "a.txt", ["का", "का", "है"]), "a"),
        load_stopword_list(write_list(tmp_path, "b.txt", ["का", "घर"]), "b"),
    ]
    set_a = build_set_a(lists, EMPTY_LEXICON, k=10)
    set_b = {"का", "घर", "जा"}
    final = build_final_list(set_a, set_b, {"का": 3, "घर": 1})
    report = induction_report(lists, set_a, set_b, final)
    assert report.raw_word_total == 5
    assert report.deduped_word_total == 3
    assert report.set_a_size == 3
    assert report.set_b_size == 3
    assert report.final_size == 2


def test_list_export_roundtrip(tmp_path):
    final = build_final_list({"का", "है"}, {"का", "है"}, {"का": 2, "है": 1})
    out = tmp_path / "list.txt"
    write_stoplemma_list(final, out)
    assert load_reference_list(out) == ("का", "है")


class TestReferenceList:
    def test_bundled_list_facts(self, table5_path):
        lemmas = load_reference_list(table5_path)
        assert len(lemmas) == 311
        assert lemmas[0] == "का"
        assert "है" in lemmas
        assert "जरूर" not in lemmas
        assert len(set(lemmas)) == 311

    def test_read_as_a_stop_word_list(self, tmp_path):
        path = write_list(tmp_path, "ref.txt", ["का  है", "# comment", "घर", "का है", " घर "])
        assert load_reference_list(path) == load_stopword_list(path, "ref").entries == ("का है", "घर")

    def test_empty_reference_list_rejected(self, tmp_path):
        with pytest.raises(InductionError, match="empty"):
            load_reference_list(write_list(tmp_path, "ref.txt", ["# comment"]))
