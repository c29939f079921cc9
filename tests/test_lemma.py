import pytest
from hypothesis import given, strategies as st

from stoplemma.lemma import (
    EMPTY_LEXICON,
    LemmaLexicon,
    gen_lemma,
    lemmatize_phrase,
    load_lexicon,
)


def write_lexicon(tmp_path, content):
    path = tmp_path / "lex.tsv"
    path.write_text(content, encoding="utf-8")
    return path


class TestLoadLexicon:
    def test_basic_parse(self, tmp_path):
        lex = load_lexicon(write_lexicon(tmp_path, "गया\tजा\nहै\tहै\n"))
        assert lex.entry_count == 2
        assert lemmatize_phrase("गया", lex) == "जा"

    def test_identical_duplicate_is_fine(self, tmp_path):
        lex = load_lexicon(write_lexicon(tmp_path, "गया\tजा\nगया\tजा\n"))
        assert lex.entry_count == 1

    def test_conflicting_duplicate_raises(self, tmp_path):
        with pytest.raises(ValueError, match=":2:"):
            load_lexicon(write_lexicon(tmp_path, "गया\tजा\nगया\tगा\n"))

    def test_comments_and_blanks_skipped(self, tmp_path):
        lex = load_lexicon(write_lexicon(tmp_path, "# c\n\nगया\tजा\n"))
        assert lex.entry_count == 1

    def test_malformed_line_reports_number(self, tmp_path):
        with pytest.raises(ValueError, match=":3:"):
            load_lexicon(write_lexicon(tmp_path, "# c\nगया\tजा\nnotab\n"))

    def test_entries_nfc_normalized_on_load(self, tmp_path):
        # ka+nukta in decomposed and (excluded) precomposed forms must land
        # on one key
        lex = load_lexicon(write_lexicon(tmp_path, "क़\tक\n"))
        assert lemmatize_phrase("क़", lex) == "क"


class TestLemmatize:
    def test_direct_lookup(self):
        lex = LemmaLexicon(entries={"गया": "जा"})
        assert lemmatize_phrase("गया", lex) == "जा"

    def test_identity_fallback(self):
        assert lemmatize_phrase("घर", EMPTY_LEXICON) == "घर"

    def test_self_mapping(self):
        lex = LemmaLexicon(entries={"का": "का"})
        assert lemmatize_phrase("का", lex) == "का"

    def test_phrase_lemmatized_tokenwise(self):
        lex = LemmaLexicon(entries={"गया": "जा", "की": "का"})
        assert lemmatize_phrase("गया  की", lex) == "जा का"

    def test_blank_phrase(self):
        with pytest.raises(ValueError, match="empty phrase"):
            lemmatize_phrase("   ", EMPTY_LEXICON)


class TestGenLemma:
    def test_empty_set(self):
        assert gen_lemma(set(), EMPTY_LEXICON) == set()

    def test_collapse(self):
        lex = LemmaLexicon(entries={"गया": "जा", "जाना": "जा"})
        assert gen_lemma({"गया", "जाना"}, lex) == {"जा"}

    def test_ten_words_six_classes(self):
        lex = LemmaLexicon(entries={
            "गया": "जा", "जाना": "जा", "किया": "कर", "करना": "कर",
            "हैं": "है", "थी": "था", "थे": "था",
        })
        words = {"गया", "जाना", "किया", "करना", "हैं", "थी", "थे", "घर", "राम", "है"}
        assert gen_lemma(words, lex) == {"जा", "कर", "है", "था", "घर", "राम"}

    @given(st.sets(st.text(alphabet="कखगघचछज", min_size=1, max_size=4), max_size=30),
           st.dictionaries(st.text(alphabet="कखगघचछज", min_size=1, max_size=4),
                           st.text(alphabet="कखगघचछज", min_size=1, max_size=4), max_size=20))
    def test_image_never_larger(self, words, mapping):
        lex = LemmaLexicon(entries=mapping)
        assert len(gen_lemma(words, lex)) <= len(words)

    def test_idempotent_for_lookup_stable_lexicon(self):
        lex = LemmaLexicon(entries={"गया": "जा", "जा": "जा"})
        once = gen_lemma({"गया", "जा", "घर"}, lex)
        assert gen_lemma(once, lex) == once
