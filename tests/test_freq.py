import itertools
import re
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from stoplemma import freq
from stoplemma.corpus import CorpusSource, Document
from stoplemma.freq import (
    FrequencyTable,
    count_document_words,
    count_lemmas,
    count_words,
    lemma_table,
    merge_counts,
    rank_items,
    read_ranked_tsv,
    top_k,
    write_tsv,
)
from stoplemma.lemma import EMPTY_LEXICON, LemmaLexicon
from stoplemma.normalize import FilterPolicy, filter_tokens, normalize_text, tokenize

VOCAB = ["घर", "गया", "जा", "का", "है", "राम", "नदी", "पेड़"]


def corpus_of(*texts, id="t"):
    docs = tuple(Document(path=f"{i}.txt", raw_text=t) for i, t in enumerate(texts))
    return CorpusSource(id=id, name=id, domain_label="", documents=docs)


def random_corpus(rng, max_docs=5, max_tokens=200):
    texts = []
    for _ in range(rng.randint(1, max_docs)):
        tokens = rng.choices(VOCAB, k=rng.randint(0, max_tokens))
        texts.append(" ".join(tokens))
    return corpus_of(*texts)


def random_lexicon(rng):
    return LemmaLexicon(entries={w: rng.choice(VOCAB) for w in rng.sample(VOCAB, rng.randint(0, len(VOCAB)))})


class TestCountWords:
    def test_hand_count(self):
        table = count_words(corpus_of("घर घर गया।"))
        assert table.counts == {"घर": 2, "गया": 1}
        assert table.total_tokens == 3
        assert table.unique_count == 2

    def test_all_tokens_filtered(self):
        table = count_words(corpus_of("abc 123"))
        assert table.counts == {}
        assert table.total_tokens == 0

    def test_additivity_over_documents(self):
        rng = random.Random(11)
        for _ in range(10):
            corpus = random_corpus(rng)
            whole = count_words(corpus)
            merged = merge_counts(count_document_words(d) for d in corpus.documents)
            assert whole.counts == dict(merged)


class TestCountLemmas:
    def test_collapse(self):
        lex = LemmaLexicon(entries={"गया": "जा", "जाना": "जा"})
        table = count_lemmas(corpus_of("गया जाना"), lex=lex)
        assert table.counts == {"जा": 2}

    def test_empty_lexicon_equals_word_counts(self):
        corpus = corpus_of("घर गया घर।")
        assert count_lemmas(corpus).counts == count_words(corpus).counts

    def test_conservation_on_random_inputs(self):
        rng = random.Random(23)
        for _ in range(20):
            corpus = random_corpus(rng)
            lex = random_lexicon(rng)
            words = count_words(corpus)
            lemmas = count_lemmas(corpus, lex=lex)
            assert lemmas.total_tokens == words.total_tokens
            assert lemmas.unique_count <= words.unique_count


class TestRankItems:
    def test_strict_order(self):
        ranked = rank_items(FrequencyTable("word", {"का": 5, "है": 3}, "t"))
        assert ranked.entries == (("का", 5), ("है", 3))

    def test_tie_broken_by_codepoint(self):
        ranked = rank_items(FrequencyTable("word", {"का": 5, "जा": 3, "है": 3}, "t"))
        assert ranked.entries == (("का", 5), ("जा", 3), ("है", 3))

    def test_empty(self):
        assert rank_items(FrequencyTable("word", {}, "t")).entries == ()

    @given(st.dictionaries(st.sampled_from(VOCAB), st.integers(1, 50), max_size=8))
    def test_ranking_is_a_permutation(self, counts):
        ranked = rank_items(FrequencyTable("word", counts, "t"))
        assert sorted(ranked.entries) == sorted(counts.items())
        assert list(ranked.entries) == sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        by_rank = [count for _, count in ranked.entries]
        assert by_rank == sorted(by_rank, reverse=True)


class TestTopK:
    def test_prefix_property(self):
        ranked = rank_items(FrequencyTable("word", {w: i + 1 for i, w in enumerate(VOCAB)}, "t"))
        for k in range(1, len(VOCAB)):
            assert top_k(ranked, k) == top_k(ranked, k + 1)[:k]

    def test_k_larger_than_list(self):
        ranked = rank_items(FrequencyTable("word", {"का": 2, "है": 1}, "t"))
        assert top_k(ranked, 10) == ["का", "है"]

    def test_k_one(self):
        ranked = rank_items(FrequencyTable("word", {"का": 2, "है": 1}, "t"))
        assert top_k(ranked, 1) == ["का"]

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            top_k(rank_items(FrequencyTable("word", {}, "t")), 0)

    def test_table3_style_row(self, table3_paths):
        lr12 = next(p for p in table3_paths if p.stem == "LR12")
        ranked = read_ranked_tsv(lr12)
        assert top_k(ranked, 10) == "का है वह हो में कर था जा यह और".split()


def test_tsv_roundtrip(tmp_path):
    ranked = rank_items(FrequencyTable("word", {"का": 5, "जा": 3}, "t"))
    path = tmp_path / "out.tsv"
    write_tsv(ranked, path)
    assert read_ranked_tsv(path) == ranked


@pytest.mark.parametrize("count", ["abc", "-5", "+5", "1.0", "1e3", "٣"])
def test_ranked_tsv_count_must_be_ascii_digits(tmp_path, count):
    path = tmp_path / "r.tsv"
    path.write_text(f"का\t7\nहै\t{count}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: count must be a non-negative integer")):
        read_ranked_tsv(path)


def test_ranked_tsv_repeated_item_rejected(tmp_path):
    # the NFD spelling of ऩ is the same item once normalized
    path = tmp_path / "r.tsv"
    path.write_text("\u0929\t7\nहै\t3\nन\u093c\t1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: repeated item")):
        read_ranked_tsv(path)


def test_policy_flags_respected():
    text = "घर abc 45 १२ ।"
    table = count_words(corpus_of(text), FilterPolicy(drop_latin_words=False))
    assert set(table.counts) == {"घर", "abc", "१२"}
    table = count_words(corpus_of(text), FilterPolicy(drop_devanagari_digits=True))
    assert set(table.counts) == {"घर"}


# Devanagari letters, matras, virama, nukta (alone and in precomposed and
# composition-excluded forms), danda, digits of three scripts, NBSP, ZWJ,
# ZWNJ, Latin letters and a combining accent, punctuation and whitespace:
# ASCII, U+2000 and U+2001 (which NFC maps onto other spaces), NEL, the file
# separator U+001C and the ideographic space.
COUNTING_ALPHABET = (
    "कनखाि\u094d\u093c\u0929\u0958।॥०१२\u09e7"
    "\u00a0\u200c\u200d aZ09\u0301#,.-\t\n"
    "\u2000\u2001\u0085\u001c\u3000"
)


POLICY_FLAGS = list(itertools.product([True, False], repeat=4))


@pytest.mark.parametrize("chunk_chars", [freq._CHUNK_CHARS, 3], ids=["default-chunks", "3-char-chunks"])
@pytest.mark.parametrize("flags", POLICY_FLAGS, ids=[
    "drop-" + ("".join(n for n, drop in zip("SWND", f) if drop) or "none") for f in POLICY_FLAGS])
@settings(max_examples=40, deadline=None)
@given(raw=st.text(alphabet=COUNTING_ALPHABET, max_size=60))
# with 3-char chunks the first cut falls inside the whitespace run; the
# second document has no whitespace, so it is one chunk of one token
@example(raw="घर \u2000\u3000\t\u0085  \u0301a, है")
@example(raw="क\u093cि।१2#a\u0301,घर" * 4)
def test_counting_matches_tokenize_pipeline(flags, chunk_chars, raw):
    policy = FilterPolicy(*flags)
    expected = Counter(t.surface for t in filter_tokens(tokenize(normalize_text(raw)), policy))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(freq, "_CHUNK_CHARS", chunk_chars)
        assert count_document_words(Document(path="d.txt", raw_text=raw), policy) == expected


def test_chunking_never_cuts_a_run(monkeypatch):
    monkeypatch.setattr(freq, "_CHUNK_CHARS", 8)
    doc = Document(path="d.txt", raw_text="घर " + "क" * 20 + " है")
    assert count_document_words(doc) == {"घर": 1, "क" * 20: 1, "है": 1}


@settings(max_examples=100, deadline=None)
@given(raw=st.text(alphabet=COUNTING_ALPHABET, max_size=80))
def test_written_tsv_reads_back_with_every_kind_kept(tmp_path_factory, raw):
    keep_all = FilterPolicy(False, False, False, False)
    table = count_words(corpus_of(raw, "# #, a"), keep_all)
    path = tmp_path_factory.mktemp("tsv") / "words.tsv"
    write_tsv(rank_items(table), path)
    assert read_ranked_tsv(path) == rank_items(table)
