import pytest

from stoplemma.assess import (
    assess_coverage,
    coverage_summary,
    format_summary,
    load_mapping,
)
from stoplemma.lemma import EMPTY_LEXICON, LemmaLexicon, load_lexicon
from stoplemma.induce import load_stopword_list


def write_mapping(tmp_path, content):
    path = tmp_path / "map.tsv"
    path.write_text(content, encoding="utf-8")
    return path


class TestLoadMapping:
    def test_single_target(self, tmp_path):
        mapping = load_mapping(write_mapping(tmp_path, "must\tजरूर\n"))
        assert mapping == {"must": ("जरूर",)}

    def test_untranslatable(self, tmp_path):
        mapping = load_mapping(write_mapping(tmp_path, "being\t!\n"))
        assert mapping == {"being": ()}
        summary = coverage_summary(mapping, EMPTY_LEXICON, set())
        assert (summary["external_total"], summary["untranslatable_count"]) == (1, 1)

    def test_multi_target(self, tmp_path):
        mapping = load_mapping(write_mapping(tmp_path, "the\tवह,यह\n"))
        assert mapping["the"] == ("वह", "यह")

    def test_conflicting_duplicate(self, tmp_path):
        with pytest.raises(ValueError, match="conflicting"):
            load_mapping(write_mapping(tmp_path, "a\tवह\na\tयह\n"))

    def test_mapped_and_untranslatable_conflict(self, tmp_path):
        with pytest.raises(ValueError, match="conflicting"):
            load_mapping(write_mapping(tmp_path, "a\tवह\na\t!\n"))

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ValueError):
            load_mapping(write_mapping(tmp_path, "notab\n"))


class TestAssessCoverage:
    def test_partial_coverage(self):
        mapping = {"a": ("का",), "b": ("है",), "c": ("घर",)}
        report = assess_coverage(mapping, EMPTY_LEXICON, {"का", "है"})
        assert report.hits == {"का", "है"}
        summary = coverage_summary(mapping, EMPTY_LEXICON, {"का", "है"})
        assert summary["misses"] == ["घर"]
        assert summary["coverage_ratio"] == pytest.approx(2 / 3)

    def test_empty_mapping(self):
        summary = coverage_summary({}, EMPTY_LEXICON, {"का"})
        assert summary["coverage_ratio"] is None
        assert summary["external_total"] == 0
        assert format_summary(summary).endswith("coverage: undefined")

    def test_forms_lemmatized_before_membership(self):
        mapping = {"went": ("गया",)}
        lex = LemmaLexicon(entries={"गया": "जा"})
        report = assess_coverage(mapping, lex, {"जा"})
        assert report.hits == {"जा"}

    def test_self_coverage_is_one(self):
        lemmas = {"का", "है", "घर"}
        mapping = {l: (l,) for l in lemmas}
        assert coverage_summary(mapping, EMPTY_LEXICON, lemmas)["coverage_ratio"] == 1.0

    def test_adding_lemma_never_decreases_coverage(self):
        mapping = {"a": ("का",), "b": ("घर",)}
        small = coverage_summary(mapping, EMPTY_LEXICON, {"का"})
        large = coverage_summary(mapping, EMPTY_LEXICON, {"का", "घर"})
        assert large["coverage_ratio"] >= small["coverage_ratio"]

    def test_misses_are_set_difference(self):
        mapping = {"a": ("का", "घर"), "b": ("है",)}
        stop = {"का"}
        report = assess_coverage(mapping, EMPTY_LEXICON, stop)
        misses = set(coverage_summary(mapping, EMPTY_LEXICON, stop)["misses"])
        assert misses == report.mapped_lemma_set - stop
        assert report.hits | misses == report.mapped_lemma_set
        assert not report.hits & misses


class TestBundledMappingFixture:
    def test_english_replay(self, data_dir, demo_lexicon_path, table5_path):
        mapping = load_mapping(data_dir / "english_hindi_mapping.tsv")
        lex = load_lexicon(demo_lexicon_path)
        stop = set(load_stopword_list(table5_path))
        summary = coverage_summary(mapping, lex, stop)
        assert summary["external_total"] == 179
        assert summary["untranslatable_count"] == 3
        assert summary["mapped_lemma_count"] == 74
        assert summary["misses"] == ["जरूर"]
        assert summary["coverage_ratio"] == pytest.approx(73 / 74)
