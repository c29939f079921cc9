import random
from collections import Counter

import pytest

from stoplemma import data_path
from stoplemma.freq import RankedList, rank_items
from stoplemma.induce import (
    aggregate_lemma_counts,
    build_final_list,
    build_set_a,
    build_set_b,
    induction_report,
    load_stopword_list,
    write_stoplemma_list,
)
from stoplemma.lemma import EMPTY_LEXICON, LemmaLexicon, lemmatize_phrase


def write_list(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadStopwordList:
    def test_dedup_logged(self, tmp_path):
        sl = load_stopword_list(write_list(tmp_path, "l.txt", ["का", "का", "है"]))
        assert list(sl) == ["का", "है"]
        assert sl == {"का": 2, "है": 1}

    def test_comment_only_file_is_empty_error(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            load_stopword_list(write_list(tmp_path, "l.txt", ["# comment"]))

    def test_three_list_cross_dedup(self, tmp_path):
        # 30 raw entries over 3 lists reduce to 24 distinct
        l1 = ["का", "है", "में", "से", "को", "और", "यह", "वह", "ने", "पर"]
        l2 = ["का", "है", "एक", "हो", "नहीं", "मैं", "आप", "जो", "कर", "भी"]
        l3 = ["का", "और", "से", "तो", "ही", "था", "थे", "गया", "कुछ", "यह"]
        lists = [
            load_stopword_list(write_list(tmp_path, f"{i}.txt", l))
            for i, l in enumerate([l1, l2, l3])
        ]
        report = induction_report(lists, set(), set(), rank_items({}))
        assert report["raw_word_total"] == 30
        assert report["deduped_word_total"] == len(set(l1) | set(l2) | set(l3)) == 24


class TestBuildSetA:
    def test_single_element(self):
        lists = [Counter(["गया"])]
        lex = LemmaLexicon(entries={"गया": "जा"})
        assert build_set_a(lists, lex, k=100) == {"जा"}

    def test_disjoint_union(self):
        lists = [Counter(["का", "है"]), Counter(["घर", "जा"])]
        assert build_set_a(lists, EMPTY_LEXICON, k=100) == {"का", "है", "घर", "जा"}

    def test_overlapping_morphology_collapses(self):
        lex = LemmaLexicon(entries={
            "गया": "जा", "जाता": "जा", "किया": "कर", "करते": "कर", "हैं": "है",
        })
        lists = [
            Counter(["गया", "जाता", "किया", "का"]),
            Counter(["करते", "हैं", "है", "गया"]),
            Counter(["घर", "राम", "जाता", "किया"]),
        ]
        # brute force: union of per-list lemma images
        expected = set()
        for sl in lists:
            expected |= {lemmatize_phrase(w, lex) for w in sl}
        result = build_set_a(lists, lex, k=100)
        assert result == expected == {"जा", "कर", "का", "है", "घर", "राम"}

    def test_k_truncates_each_list(self):
        lists = [Counter(["का", "है", "घर"])]
        assert build_set_a(lists, EMPTY_LEXICON, k=2) == {"का", "है"}

    def test_multiword_entries_lemmatized_tokenwise(self):
        lex = LemmaLexicon(entries={"की": "का"})
        lists = [Counter(["की तरह"])]
        assert build_set_a(lists, lex, k=10) == {"का तरह"}

    def test_no_stop_word_list_is_an_error(self):
        with pytest.raises(ValueError, match="at least one stop word list"):
            build_set_a([], EMPTY_LEXICON)

    def test_k_below_one_is_an_error(self):
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            build_set_a([Counter(["का"])], EMPTY_LEXICON, k=0)


class TestBuildSetB:
    def test_single_source(self):
        assert build_set_b([{"का": 9, "है": 5, "घर": 1}], k=2) == {"का", "है"}

    def test_saturation(self):
        tables = [{"का": 2, "है": 1}, {"घर": 4}]
        assert build_set_b(tables, k=100) == {"का", "है", "घर"}

    def test_monotone_in_k(self):
        rng = random.Random(3)
        tables = [
            {f"w{i}": rng.randint(1, 30) for i in range(rng.randint(1, 15))}
            for _ in range(4)
        ]
        for k in range(1, 15):
            assert build_set_b(tables, k) <= build_set_b(tables, k + 1)

    def test_an_iterator_gives_what_its_list_gives(self):
        tables = [{"का": 2, "है": 1}, {"घर": 4, "है": 3}]
        for k in (1, 2, 3):
            assert build_set_b(iter(tables), k) == build_set_b(tables, k)

    @pytest.mark.parametrize("lists", [[], iter([])], ids=["list", "iterator"])
    def test_no_ranked_list_is_an_error(self, lists):
        with pytest.raises(ValueError, match="at least one lemma table"):
            build_set_b(lists)


class TestBuildFinalList:
    def test_intersection(self):
        final = build_final_list({"x", "y"}, {"y", "z"}, [{"y": 7}])
        assert final == RankedList((("y", 7),))

    def test_disjoint_inputs(self):
        final = build_final_list({"x"}, {"z"}, [{}])
        assert len(final) == 0

    def test_missing_count_is_error(self):
        with pytest.raises(ValueError, match="aggregate count"):
            build_final_list({"y"}, {"y"}, [{}])

    def test_order_and_tie_break(self):
        final = build_final_list(
            {"का", "जा", "है"}, {"का", "जा", "है"},
            [{"का": 9, "जा": 3, "है": 3}],
        )
        assert [l for l, _ in final.entries] == ["का", "जा", "है"]

    def test_small_fixture_against_brute_force(self):
        set_a = {"का", "है", "जा", "कर", "घर", "राम"}
        set_b = {"का", "है", "जा", "नदी", "पेड़"}
        counts = {"का": 50, "है": 40, "जा": 10, "नदी": 5, "पेड़": 2}
        final = build_final_list(set_a, set_b, [counts])
        expected = sorted(set_a & set_b, key=lambda l: (-counts[l], l))
        assert [l for l, _ in final.entries] == expected
        assert {l for l, _ in final.entries} <= set_a & set_b
        assert len(final) <= min(len(set_a), len(set_b))


def test_induction_report_counts(tmp_path):
    lists = [
        load_stopword_list(write_list(tmp_path, "a.txt", ["का", "का", "है"])),
        load_stopword_list(write_list(tmp_path, "b.txt", ["का", "घर"])),
    ]
    set_a = build_set_a(lists, EMPTY_LEXICON, k=10)
    set_b = {"का", "घर", "जा"}
    final = build_final_list(set_a, set_b, [{"का": 3, "घर": 1}])
    assert induction_report(lists, set_a, set_b, final) == {
        "raw_word_total": 5,
        "deduped_word_total": 3,
        "set_a_size": 3,
        "set_b_size": 3,
        "final_size": 2,
    }


def test_list_export_roundtrip(tmp_path):
    final = build_final_list({"का", "है"}, {"का", "है"}, [{"का": 2, "है": 1}])
    out = tmp_path / "list.txt"
    write_stoplemma_list(final, out)
    assert list(load_stopword_list(out)) == ["का", "है"]


class TestReferenceList:
    def test_bundled_list_facts(self, table5_path):
        lemmas = list(load_stopword_list(table5_path))
        assert len(lemmas) == 311
        assert lemmas[0] == "का"
        assert "है" in lemmas
        assert "जरूर" not in lemmas
        assert len(set(lemmas)) == 311

    def test_read_as_a_stop_word_list(self, tmp_path):
        path = write_list(tmp_path, "ref.txt", ["का  है", "# comment", "घर", "का है", " घर "])
        assert list(load_stopword_list(path)) == ["का है", "घर"]
