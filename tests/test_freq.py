import hashlib
import itertools
import re
import random
import sys
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from reference import word_counts
from stoplemma import freq
from stoplemma.corpus import CorpusSource, Document, load_corpus
from stoplemma.freq import (
    count_document_words,
    count_words,
    lemma_table,
    merge_counts,
    rank_items,
    read_ranked_tsv,
    top_k,
    write_tsv,
)
from stoplemma.lemma import EMPTY_LEXICON, LemmaLexicon
from stoplemma.normalize import FilterPolicy

VOCAB = ["घर", "गया", "जा", "का", "है", "राम", "नदी", "पेड़"]


def corpus_of(root, *texts):
    """A corpus of the files ``root/i.txt``, each the UTF-8 of ``texts[i]``, which replace any files of those names."""
    root.mkdir(parents=True, exist_ok=True)
    docs = []
    for i, text in enumerate(texts):
        (root / f"{i}.txt").write_bytes(text.encode())
        docs.append(Document(path=f"{i}.txt", file=root / f"{i}.txt"))
    return CorpusSource(documents=tuple(docs))


@pytest.fixture(scope="module")
def docs_dir(tmp_path_factory):
    """A folder that each example of a property test writes its documents into, replacing the last one's."""
    return tmp_path_factory.mktemp("docs")


def random_corpus(rng, root, max_docs=5, max_tokens=200):
    texts = []
    for _ in range(rng.randint(1, max_docs)):
        tokens = rng.choices(VOCAB, k=rng.randint(0, max_tokens))
        texts.append(" ".join(tokens))
    return corpus_of(root, *texts)


def random_lexicon(rng):
    return LemmaLexicon(entries={w: rng.choice(VOCAB) for w in rng.sample(VOCAB, rng.randint(0, len(VOCAB)))})


class TestCountWords:
    def test_hand_count(self, tmp_path):
        table = count_words(corpus_of(tmp_path, "घर घर गया।"))
        assert table.counts == {"घर": 2, "गया": 1}
        assert table.total_tokens == 3
        assert table.unique_count == 2

    def test_all_tokens_filtered(self, tmp_path):
        table = count_words(corpus_of(tmp_path, "abc 123"))
        assert table.counts == {}
        assert table.total_tokens == 0

    def test_additivity_over_documents(self, tmp_path):
        rng = random.Random(11)
        for _ in range(10):
            corpus = random_corpus(rng, tmp_path)
            whole = count_words(corpus)
            merged = merge_counts(count_document_words([d]) for d in corpus.documents)
            assert whole.counts == dict(merged)


class TestCountLemmas:
    def test_collapse(self, tmp_path):
        lex = LemmaLexicon(entries={"गया": "जा", "जाना": "जा"})
        table = lemma_table(count_words(corpus_of(tmp_path, "गया जाना")), lex)
        assert table.counts == {"जा": 2}

    def test_empty_lexicon_equals_word_counts(self, tmp_path):
        corpus = corpus_of(tmp_path, "घर गया घर।")
        words = count_words(corpus)
        assert lemma_table(words, EMPTY_LEXICON).counts == words.counts

    def test_conservation_on_random_inputs(self, tmp_path):
        rng = random.Random(23)
        for _ in range(20):
            corpus = random_corpus(rng, tmp_path)
            lex = random_lexicon(rng)
            words = count_words(corpus)
            lemmas = lemma_table(words, lex)
            assert lemmas.total_tokens == words.total_tokens
            assert lemmas.unique_count <= words.unique_count


class TestRankItems:
    def test_strict_order(self):
        ranked = rank_items({"का": 5, "है": 3})
        assert ranked.entries == (("का", 5), ("है", 3))

    def test_tie_broken_by_codepoint(self):
        ranked = rank_items({"का": 5, "जा": 3, "है": 3})
        assert ranked.entries == (("का", 5), ("जा", 3), ("है", 3))

    def test_empty(self):
        assert rank_items({}).entries == ()

    def test_length_is_the_entry_count(self):
        assert len(rank_items({"का": 5, "जा": 3, "है": 3})) == 3
        assert len(rank_items({})) == 0

    @given(st.dictionaries(st.sampled_from(VOCAB), st.integers(1, 50), max_size=8))
    def test_ranking_is_a_permutation(self, counts):
        ranked = rank_items(counts)
        assert sorted(ranked.entries) == sorted(counts.items())
        assert list(ranked.entries) == sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        by_rank = [count for _, count in ranked.entries]
        assert by_rank == sorted(by_rank, reverse=True)

    # Devanagari, Latin upper and lower case, ASCII digits and one non-BMP character
    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.text(alphabet="कखगाि्AaZz09\U00011000", max_size=3),
                           st.sampled_from([0, 1, 2]) | st.integers(min_value=2**64 + 1),
                           max_size=200))
    def test_ranking_equals_the_sort_key_reference_under_heavy_ties(self, counts):
        assert rank_items(counts).entries == tuple(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


class TestTopK:
    def test_prefix_property(self):
        ranked = rank_items({w: i + 1 for i, w in enumerate(VOCAB)})
        for k in range(1, len(VOCAB)):
            assert top_k(ranked, k) == top_k(ranked, k + 1)[:k]

    def test_k_larger_than_list(self):
        ranked = rank_items({"का": 2, "है": 1})
        assert top_k(ranked, 10) == ["का", "है"]

    def test_k_one(self):
        ranked = rank_items({"का": 2, "है": 1})
        assert top_k(ranked, 1) == ["का"]

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            top_k(rank_items({}), 0)

    def test_table3_style_row(self, table3_paths):
        lr12 = next(p for p in table3_paths if p.stem == "LR12")
        ranked = read_ranked_tsv(lr12)
        assert top_k(ranked, 10) == "का है वह हो में कर था जा यह और".split()


@pytest.mark.parametrize("counts", [
    {"का": 5, "है": 3, "जा": 1},  # every count group one row
    {f"क{i:04}": 1 for i in range(1000)},  # one run of 1000 ties
    {},  # an empty file
    {"का": 10**40 + 7, "है": 10**40},  # counts with 41 digits
], ids=["single-row-groups", "long-tie-run", "empty", "many-digits"])
def test_tsv_bytes_are_one_row_per_entry(tmp_path, counts):
    ranked = rank_items(counts)
    path = tmp_path / "out.tsv"
    write_tsv(ranked, path)
    expected = "".join(f"{item}\t{count}\n" for item, count in ranked.entries)
    assert path.read_bytes() == expected.encode("utf-8")


def test_tsv_roundtrip(tmp_path):
    ranked = rank_items({"का": 5, "जा": 3})
    path = tmp_path / "out.tsv"
    write_tsv(ranked, path)
    assert read_ranked_tsv(path) == ranked


@pytest.mark.parametrize("count", ["abc", "-5", "+5", "1.0", "1e3", "٣"])
def test_ranked_tsv_count_must_be_ascii_digits(tmp_path, count):
    path = tmp_path / "r.tsv"
    path.write_text(f"का\t7\nहै\t{count}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: count must be a non-negative integer")):
        read_ranked_tsv(path)


def test_ranked_tsv_count_beyond_a_lowered_int_digit_limit_names_its_line(tmp_path):
    # PYTHONINTMAXSTRDIGITS can lower the limit below its default of 4300
    path = tmp_path / "r.tsv"
    path.write_text(f"का\t5\nहै\t{'9' * 700}\n", encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: count has 700 digits, more than int() accepts") + "$"):
            read_ranked_tsv(path)
    finally:
        sys.set_int_max_str_digits(limit)


def test_ranked_tsv_repeated_item_rejected(tmp_path):
    # the NFD spelling of ऩ is the same item once normalized
    path = tmp_path / "r.tsv"
    path.write_text("\u0929\t7\nहै\t3\nन\u093c\t1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: repeated item")):
        read_ranked_tsv(path)


@pytest.mark.parametrize("rows", [
    "का\t9\nहै\t5\nवह\t7\n",  # a count above the one before
    "का\t9\nहै\t5\nघर\t5\n",  # a tie with an item of a lower code point after it
], ids=["count", "tie"])
def test_ranked_tsv_out_of_rank_order_rejected(tmp_path, rows):
    path = tmp_path / "r.tsv"
    path.write_text(rows, encoding="utf-8")
    line = len(rows.splitlines())
    with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: ") + ".* out of rank order"):
        read_ranked_tsv(path)


def test_policy_flags_respected(tmp_path):
    text = "घर abc 45 १२ ।"
    table = count_words(corpus_of(tmp_path, text), FilterPolicy(keep_latin_words=True))
    assert set(table.counts) == {"घर", "abc", "१२"}
    table = count_words(corpus_of(tmp_path, text), FilterPolicy(drop_devanagari_digits=True))
    assert set(table.counts) == {"घर"}


# Devanagari letters, matras, virama, nukta (alone and in precomposed and
# composition-excluded forms), danda, digits of three scripts, NBSP, ZWJ,
# ZWNJ, Latin letters and a combining accent, punctuation and whitespace:
# ASCII, U+2000 and U+2001 (which NFC maps onto other spaces), NEL, the file
# separator U+001C and the ideographic space.  The third line holds the edges
# of normalize.PLAIN_WORD's class, inside it and just outside it, so one
# document mixes tokens that skip NFC, scan and classify with tokens that do
# not.
COUNTING_ALPHABET = (
    "कनखाि\u094d\u093c\u0929\u0958।॥०१२\u09e7"
    "\u00a0\u200c\u200d aZ09\u0301#,.-\t\n"
    "\u0900\u093b\u093d\u0950\u0951\u0954\u0955\u0957\u095f\u0960\u0963\u0970\u097f\u0931\u0934"
    "\u2000\u2001\u0085\u001c\u3000"
)


# whether to drop symbols, Latin words, Latin numbers and Devanagari digits (S, W, N, D)
POLICY_FLAGS = list(itertools.product([True, False], repeat=4))


def policy_of(flags):
    symbols, latin_words, latin_numbers, devanagari_digits = flags
    return FilterPolicy(keep_symbols=not symbols, keep_latin_words=not latin_words,
                        keep_latin_numbers=not latin_numbers, drop_devanagari_digits=devanagari_digits)


@pytest.mark.parametrize("block_bytes", [freq._BLOCK_BYTES, 3], ids=["default-chunks", "3-char-chunks"])
@pytest.mark.parametrize("flags", POLICY_FLAGS, ids=[
    "drop-" + ("".join(n for n, drop in zip("SWND", f) if drop) or "none") for f in POLICY_FLAGS])
@settings(max_examples=40, deadline=None)
@given(raws=st.lists(st.text(alphabet=COUNTING_ALPHABET, max_size=60), min_size=1, max_size=3))
# with 3-byte blocks the first cut falls inside the whitespace run; the
# second example has no whitespace, so it is one carry of one token
@example(raws=["घर \u2000\u3000\t\u0085  \u0301a, है"])
@example(raws=["क\u093cि।१2#a\u0301,घर" * 4])
# one surface reached through different tokens in different documents, a
# plain token in one and a token that is not plain in another: an NFD nukta
# letter against U+0929, the composition exclusion U+0958 against its NFC
# spelling next to a plain क, a stress mark before the virama next to a
# plain क्, an attached danda and an NBSP between two words
@example(raws=["\u0929 घर", "\u0928\u093c"])
@example(raws=["\u0915\u093c क", "\u0958"])
@example(raws=["\u0915\u094d\u0951 क्", "\u0915\u0951\u094d"])
@example(raws=["घर है", "घर। है॥", "।घर"])
@example(raws=["घर\u00a0\u0929", "\u0928\u093c\u00a0घर"])
def test_counting_matches_tokenize_pipeline(docs_dir, flags, block_bytes, raws):
    policy = policy_of(flags)
    expected = word_counts(raws, policy)
    docs = corpus_of(docs_dir, *raws).documents
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(freq, "_BLOCK_BYTES", block_bytes)
        assert count_document_words(docs, policy) == expected


def test_plain_and_normalized_tokens_meet_in_one_surface(tmp_path):
    # the precomposed letter is plain; its NFD spelling is normalized onto it
    docs = corpus_of(tmp_path, "\u0929 \u0928\u093c").documents
    assert count_document_words(docs) == {"\u0929": 2}


def test_reordered_stress_mark_is_normalized(tmp_path):
    # NFC puts the virama (class 9) before the stress mark (class 230)
    docs = corpus_of(tmp_path, "\u0915\u0951\u094d").documents
    assert count_document_words(docs) == {"\u0915\u094d\u0951": 1}


def test_chunking_never_cuts_a_run(tmp_path, monkeypatch):
    monkeypatch.setattr(freq, "_BLOCK_BYTES", 8)
    docs = corpus_of(tmp_path, "घर " + "क" * 20 + " है").documents
    assert count_document_words(docs) == {"घर": 1, "क" * 20: 1, "है": 1}


# every character that str.split() cuts at
ISSPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
# The pieces of a document file: every whitespace character and CRLF;
# Devanagari letters, a matra, the virama, the nukta, a precomposed nukta
# letter and a composition exclusion, a danda and a digit; ZWNJ and ZWJ;
# curly quotes and dashes; a Latin letter, an ASCII digit and a sign.
FILE_PIECES = [*ISSPACE, "\r\n", "क", "न", "ि", "\u094d", "\u093c", "\u0929", "\u0958", "।", "१",
               "\u200c", "\u200d", "\u2018", "\u2019", "\u201c", "\u201d", "\u2013", "\u2014", "a", "7", "#"]


@settings(max_examples=150, deadline=None)
@given(docs=st.lists(st.tuples(st.booleans(), st.lists(st.sampled_from(FILE_PIECES), max_size=40).map("".join)),
                     min_size=1, max_size=3),
       block_bytes=st.integers(1, 8) | st.just(freq._BLOCK_BYTES),
       flags=st.sampled_from(POLICY_FLAGS),
       decode_tokens=st.sampled_from([freq._DECODE_TOKENS, 1, 3]))
# a token of 90 bytes, many blocks long
@example(docs=[(False, "घर " + "क" * 30 + " है")], block_bytes=4, flags=POLICY_FLAGS[-1],
         decode_tokens=freq._DECODE_TOKENS)
# no ASCII whitespace at all, and a BOM that two blocks split
@example(docs=[(True, "घर\u3000है\u00a0क\u2028\u201cख\u201d\x1c\u0928\u093c")], block_bytes=2,
         flags=POLICY_FLAGS[0], decode_tokens=freq._DECODE_TOKENS)
# after the first read of a BOM's length: a file that is only a BOM, one
# shorter than a BOM and one whose BOM is followed at once by whitespace
@example(docs=[(True, ""), (False, "a"), (True, "\nघर\u00a0है")], block_bytes=1, flags=POLICY_FLAGS[-1],
         decode_tokens=freq._DECODE_TOKENS)
@example(docs=[(True, ""), (False, "a"), (True, "\nघर\u00a0है")], block_bytes=2, flags=POLICY_FLAGS[-1],
         decode_tokens=freq._DECODE_TOKENS)
# the distinct tokens decoded one at a time and three at a time, plain and
# not plain ones mixed, with one surface reached from tokens in two batches
@example(docs=[(False, "घर \u0929 क\u093c a, है\u00a0घर"), (True, "\u0928\u093c १ 7 क")], block_bytes=3,
         flags=POLICY_FLAGS[0], decode_tokens=1)
@example(docs=[(False, "घर \u0929 क\u093c a, है\u00a0घर"), (True, "\u0928\u093c १ 7 क")], block_bytes=3,
         flags=POLICY_FLAGS[-1], decode_tokens=3)
def test_counting_files_in_blocks_matches_tokenize_pipeline(tmp_path_factory, docs, block_bytes, flags,
                                                            decode_tokens):
    # each (bom, text) is a file of text's UTF-8 bytes, after a BOM if bom is true
    root = tmp_path_factory.mktemp("corpus")
    for i, (bom, text) in enumerate(docs):
        (root / f"{i}.txt").write_bytes(b"\xef\xbb\xbf" * bom + text.encode())
    policy = policy_of(flags)
    scanned, corpus_hash = [], hashlib.sha256()

    class ScanCounter(Counter):  # records the token lists that counting hands to update
        def update(self, iterable=None, /, **kwds):
            if isinstance(iterable, list):
                scanned.extend(iterable)
            super().update(iterable, **kwds)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(freq, "_BLOCK_BYTES", block_bytes)
        mp.setattr(freq, "_DECODE_TOKENS", decode_tokens)
        mp.setattr(freq, "Counter", ScanCounter)
        assert count_document_words(load_corpus(root).documents, policy, corpus_hash) == \
            word_counts([text for _, text in docs], policy)
    # the scanned tokens are those of str.split(), so a count of them is exact
    assert scanned == [token.encode() for _, text in docs for token in text.split()]
    # the corpus hash: each file's name, then the hex SHA-256 of its bytes, in sorted order
    expected = hashlib.sha256()
    for p in sorted(root.glob("*.txt")):
        expected.update(p.name.encode())
        expected.update(hashlib.sha256(p.read_bytes()).hexdigest().encode())
    assert corpus_hash.hexdigest() == expected.hexdigest()


@pytest.mark.parametrize("decode_tokens", [freq._DECODE_TOKENS, 1, 3])
def test_a_batch_that_fails_to_decode_names_the_first_document_that_is_not_utf8(tmp_path, monkeypatch,
                                                                               decode_tokens):
    # the bad tokens come after five good ones, so small batches decode some before one fails
    monkeypatch.setattr(freq, "_DECODE_TOKENS", decode_tokens)
    (tmp_path / "a.txt").write_text("घर है क ख ग\n", encoding="utf-8")
    (tmp_path / "b.txt").write_bytes("नदी\n".encode() + b"\xff\n")
    (tmp_path / "c.txt").write_bytes(b"\xfe \xe0\xa4")
    message = f"{tmp_path / 'b.txt'}:2: invalid UTF-8 at byte offset 10"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        count_document_words(load_corpus(tmp_path).documents)


def test_a_token_longer_than_many_blocks_costs_its_length(tmp_path, monkeypatch):
    # The carry grows by appending: 65536 blocks of a 8 MiB token take well
    # under a second.  Copying the carry for every block would copy 256 GiB.
    monkeypatch.setattr(freq, "_BLOCK_BYTES", 128)
    (tmp_path / "a.txt").write_bytes(b"a" * (8 << 20) + b" b")
    keep_latin = FilterPolicy(keep_latin_words=True)
    start = time.perf_counter()
    counts = count_document_words(load_corpus(tmp_path).documents, keep_latin)
    assert time.perf_counter() - start < 10
    assert counts == {"a" * (8 << 20): 1, "b": 1}


@settings(max_examples=100, deadline=None)
@given(raw=st.text(alphabet=COUNTING_ALPHABET, max_size=80))
def test_written_tsv_reads_back_with_every_kind_kept(tmp_path_factory, raw):
    keep_all = FilterPolicy(keep_symbols=True, keep_latin_words=True, keep_latin_numbers=True)
    root = tmp_path_factory.mktemp("tsv")
    table = count_words(corpus_of(root / "corpus", raw, "# #, a"), keep_all)
    path = root / "words.tsv"
    write_tsv(rank_items(table.counts), path)
    assert read_ranked_tsv(path) == rank_items(table.counts)
