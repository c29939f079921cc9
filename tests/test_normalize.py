import io
import itertools
import re
import unicodedata

import pytest
from hypothesis import given, settings, strategies as st

from stoplemma.assess import load_mapping
from stoplemma.corpus import load_corpus
from stoplemma.freq import count_words, read_ranked_tsv
from stoplemma.induce import load_stopword_list
from stoplemma.lemma import load_lexicon
from stoplemma.normalize import (
    PLAIN_WORD,
    _WORD_RUN,
    FilterPolicy,
    TokenKind,
    classify,
    filter_tokens,
    normalize_text,
    read_records,
    read_text,
    split_lines,
    tokenize,
)
from stoplemma.stats import load_pos_lexicon

DEVANAGARI_LETTERS = [chr(c) for c in range(0x0905, 0x0939 + 1)]
DEVANAGARI_MATRAS = [chr(c) for c in range(0x093E, 0x094C + 1)]
LATIN_ALNUM = re.compile(r"[A-Za-z0-9]")


class TestNormalizeText:
    def test_nukta_forms_unify(self):
        # U+0958 is composition-excluded, so NFC settles both the precomposed
        # qa and ka + nukta on the decomposed pair
        assert normalize_text("क़") == normalize_text("क़")
        assert normalize_text("क़") == "क़"

    def test_no_break_space_collapses(self):
        assert normalize_text("अ ब") == "अ ब"

    def test_whitespace_run_collapses_to_one_space(self):
        assert normalize_text("अ \t\n ब") == "अ ब"

    def test_idempotent_on_nfc_text(self):
        text = normalize_text("राम घर गया।")
        assert normalize_text(text) == text

    @given(st.text(max_size=200))
    def test_idempotent(self, raw):
        once = normalize_text(raw)
        assert normalize_text(once) == once


class TestTokenize:
    def test_whitespace_split(self):
        tokens = tokenize("राम घर गया")
        assert [t.surface for t in tokens] == ["राम", "घर", "गया"]
        assert all(t.kind is TokenKind.DEVANAGARI_WORD for t in tokens)

    def test_joined_words_not_segmented(self):
        tokens = tokenize("रामघर")
        assert [t.surface for t in tokens] == ["रामघर"]

    def test_mixed_kinds(self):
        kinds = [(t.surface, t.kind) for t in tokenize("abc १२ 45 ।")]
        assert kinds == [
            ("abc", TokenKind.LATIN_WORD),
            ("१२", TokenKind.DEVANAGARI_NUMBER),
            ("45", TokenKind.LATIN_NUMBER),
            ("।", TokenKind.SYMBOL),
        ]

    def test_punctuation_becomes_symbol_tokens(self):
        tokens = tokenize("क-ख")
        assert [t.kind for t in tokens] == [
            TokenKind.DEVANAGARI_WORD,
            TokenKind.SYMBOL,
            TokenKind.DEVANAGARI_WORD,
        ]

    @given(st.text(alphabet=DEVANAGARI_LETTERS + DEVANAGARI_MATRAS + ["्"],
                   min_size=1, max_size=30))
    def test_devanagari_run_is_one_token(self, word):
        tokens = tokenize(word)
        assert len(tokens) == 1
        assert tokens[0].surface == word

    @given(st.lists(st.text(alphabet=DEVANAGARI_LETTERS, min_size=1, max_size=8),
                    min_size=1, max_size=20))
    def test_retokenizing_surfaces_is_a_fixpoint(self, words):
        text = " ".join(words)
        surfaces = [t.surface for t in tokenize(text)]
        again = [t.surface for t in tokenize(" ".join(surfaces))]
        assert surfaces == again


def previous_classify(surface):
    """The regex-and-loop rule for the kind of a word run: a reference for ``classify``."""
    if re.fullmatch(r"[0-9]+", surface):
        return TokenKind.LATIN_NUMBER
    if re.fullmatch(r"[०-९]+", surface):
        return TokenKind.DEVANAGARI_NUMBER
    if not re.search(r"[A-Za-z]", surface):
        if all(ch in "\u200c\u200d" or 0x0900 <= ord(ch) <= 0x097F for ch in surface):
            return TokenKind.DEVANAGARI_WORD
        if re.search(r"[0-9०-९]", surface) and re.search(r"[A-Za-z0-9]", surface):
            return TokenKind.LATIN_NUMBER
        return TokenKind.SYMBOL
    return TokenKind.LATIN_WORD


# the Devanagari block and its edges, digits of four scripts, Latin letters,
# ZWJ/ZWNJ/ZWSP, Cyrillic, CJK and punctuation
CLASSIFY_ALPHABET = st.one_of(
    st.characters(min_codepoint=0x08FF, max_codepoint=0x0980),
    st.sampled_from("0123456789٠٣৩৪aZ\u200b\u200c\u200dд中.#-!"),
    st.characters(),
)


@settings(max_examples=300)
@given(st.text(alphabet=CLASSIFY_ALPHABET, max_size=8))
def test_classify_matches_the_previous_rule(surface):
    expected = previous_classify(surface) if _WORD_RUN.fullmatch(surface) else TokenKind.SYMBOL
    assert classify(surface) is expected


@pytest.mark.parametrize("surface", ["", "a-b", "घर।", "1.5", " "])
def test_a_string_that_is_not_one_token_is_a_symbol(surface):
    assert classify(surface) is TokenKind.SYMBOL


# the plain Devanagari class that counting takes without NFC, scan or
# classify, listed here from its definition rather than from PLAIN_WORD
PLAIN_CLASS = [chr(c) for lo, hi in [(0x0900, 0x093B), (0x093D, 0x0950), (0x0955, 0x0957),
                                     (0x0960, 0x0963), (0x0970, 0x097F), (0x200C, 0x200D)]
               for c in range(lo, hi + 1)]


class TestPlainWord:
    def test_pattern_matches_exactly_the_class(self):
        assert len(PLAIN_CLASS) == 105
        matched = [chr(c) for c in range(0x110000) if PLAIN_WORD.fullmatch(chr(c))]
        assert matched == PLAIN_CLASS

    def test_every_code_point_and_ordered_pair_is_nfc(self):
        for a in PLAIN_CLASS:
            assert unicodedata.normalize("NFC", a) == a
        for a, b in itertools.product(PLAIN_CLASS, repeat=2):
            assert unicodedata.normalize("NFC", a + b) == a + b, (a, b)

    def test_every_code_point_is_one_kept_devanagari_word(self):
        for ch in PLAIN_CLASS:
            assert _WORD_RUN.fullmatch(ch), hex(ord(ch))
            assert classify(ch) is TokenKind.DEVANAGARI_WORD, hex(ord(ch))

    @pytest.mark.parametrize("flags", list(itertools.product([True, False], repeat=4)))
    def test_every_policy_keeps_devanagari_words(self, flags):
        names = ("keep_symbols", "keep_latin_words", "keep_latin_numbers", "drop_devanagari_digits")
        assert FilterPolicy(**dict(zip(names, flags))).keeps(TokenKind.DEVANAGARI_WORD)


@given(st.text(alphabet=PLAIN_CLASS, min_size=1, max_size=12))
def test_plain_strings_are_nfc_devanagari_words(s):
    assert PLAIN_WORD.fullmatch(s)
    assert unicodedata.is_normalized("NFC", s)
    assert classify(s) is TokenKind.DEVANAGARI_WORD


class TestFilterTokens:
    def test_default_policy(self):
        tokens = tokenize("घर house 123 ।")
        kept = filter_tokens(tokens)
        assert [t.surface for t in kept] == ["घर"]

    def test_empty(self):
        assert filter_tokens([]) == []

    def test_drop_devanagari_digits_flag(self):
        tokens = tokenize("१२ घर")
        kept = filter_tokens(tokens, FilterPolicy(drop_devanagari_digits=True))
        assert [t.surface for t in kept] == ["घर"]

    def test_devanagari_digits_kept_by_default(self):
        kept = filter_tokens(tokenize("१२ घर"))
        assert [t.surface for t in kept] == ["१२", "घर"]

    @given(st.text(max_size=200))
    def test_no_latin_alnum_survives_default_policy(self, raw):
        text = normalize_text(raw)
        for token in filter_tokens(tokenize(text)):
            assert not LATIN_ALNUM.search(token.surface)


class TestReadRecords:
    def test_skips_blank_and_tab_free_comment_lines(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("# comment\n\n  \n#\t3\nन\u093c\t1\n", encoding="utf-8")
        assert list(read_records(path, 2)) == [(4, ["#", "3"]), (5, ["\u0929", "1"])]

    def test_one_field_records_keep_inner_spaces(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text(" के  लिए \n", encoding="utf-8")
        assert list(read_records(path, 1)) == [(1, ["के  लिए"])]

    @pytest.mark.parametrize("line", ["a", "a\tb\tc", "a\t\tb", "#\tb\tc"])
    def test_malformed_line_raises_callers_error_with_path_and_line(self, tmp_path, line):
        path = tmp_path / "r.tsv"
        path.write_text("ok\t1\n" + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2:")):
            list(read_records(path, 2))

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_invalid_utf8_raises_callers_error_with_path_and_line(self, tmp_path, newline):
        path = tmp_path / "r.tsv"
        path.write_bytes(newline.join([b"# c", "का\t1".encode(), b"\xff\t2", b""]))
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: invalid UTF-8")):
            list(read_records(path, 2))

    @pytest.mark.parametrize("padding", [10, 20000])
    def test_bad_utf8_is_reported_before_any_record_whatever_the_file_size(self, tmp_path, padding):
        # line 2 is malformed, but the bad byte below it is the reported error
        head = "a\t1\nmalformed\n" + "b\t2\n" * padding
        path = tmp_path / "r.tsv"
        path.write_bytes(head.encode() + b"\xff\t3\n")
        message = f"{path}:{padding + 3}: invalid UTF-8 at byte offset {len(head.encode())}"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            list(read_records(path, 2))

    @pytest.mark.parametrize("data", [b"a\r\n\r\xff", b"a\r\r\n\xff"], ids=["after-cr", "after-crlf"])
    def test_a_bad_byte_right_after_a_break_is_on_the_next_line(self, tmp_path, data):
        path = tmp_path / "r.txt"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: invalid UTF-8 at byte offset 4") + "$"):
            read_text(path)


# the three breaks, five more that str.splitlines breaks at, a space and two letters
@settings(max_examples=500)
@given(st.text(alphabet="\r\n\x0b\x0c\x1c\x85\u2028\u2029 ab", max_size=30))
def test_split_lines_equals_a_universal_newline_reader(text):
    assert split_lines(text) == io.StringIO(text, newline=None).read().split("\n")


LOADERS = {
    # a corpus document is decoded as it is counted
    "load_corpus": lambda path: count_words(load_corpus(path.parent)),
    "load_lexicon": load_lexicon,
    "load_stopword_list": load_stopword_list,
    "load_mapping": load_mapping,
    "load_pos_lexicon": load_pos_lexicon,
    "read_ranked_tsv": read_ranked_tsv,
    "read_text": read_text,
}


@pytest.mark.parametrize("loader", LOADERS)
def test_every_loader_raises_a_plain_value_error_for_invalid_utf8(tmp_path, loader):
    path = tmp_path / "in.txt"
    path.write_bytes(b"# comment\n\xff\t1\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: invalid UTF-8 at byte offset 10") + "$") as info:
        LOADERS[loader](path)
    assert type(info.value) is ValueError
