"""Whole output trees of ``freq``, ``induce``, ``overlap`` and ``assess`` against the reference model.

The model is in ``reference.py``.
"""

import os
from dataclasses import fields

import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from stoplemma import freq
from stoplemma.cli import main
from stoplemma.normalize import FilterPolicy
from test_freq import COUNTING_ALPHABET, ISSPACE, POLICY_FLAGS, policy_of

# NFC words that the lexicons and stop lists are made of and that documents
# hold whole or in pieces, so that the three meet
WORDS = ["क", "कन", "खा", "नि", "ऩ", "घर", "है", "का"]
# a document is a run of pieces, each a word, a space, or one character of
# the counting alphabet, one that str.split() cuts at or CRLF
pieces = st.sampled_from(WORDS) | st.just(" ") | st.sampled_from([*COUNTING_ALPHABET, *ISSPACE, "\r\n"])
documents = st.tuples(st.booleans(), st.lists(pieces, max_size=30).map("".join))
# 1–3 corpora of 1–3 documents, each (whether it starts with a BOM, its text)
corpora_st = st.lists(st.lists(documents, min_size=1, max_size=3), min_size=1, max_size=3)
# keys and values from one set of words, so that entries chain: a lemma may be another entry's surface
lexicons = st.dictionaries(st.sampled_from(WORDS), st.sampled_from(WORDS), max_size=6)
phrases = st.builds(lambda lead, words, gap: lead + gap.join(words), st.sampled_from(["", " "]),
                    st.lists(st.sampled_from(WORDS), min_size=1, max_size=2), st.sampled_from([" ", "  ", "\u00a0"]))
noise = st.sampled_from(["", "  ", "# टिप्पणी", "#घर"])
# each stop list holds at least one entry; (BOM, CRLF line ends, lines)
stoplists_st = st.lists(st.tuples(
    st.booleans(), st.booleans(),
    st.builds(lambda before, entry, after: [*before, entry, *after],
              st.lists(noise, max_size=1), phrases, st.lists(phrases | noise, max_size=4))),
    min_size=1, max_size=3)


def write_corpora(root, corpora):
    """The ``--corpus`` arguments of ``corpora`` written under ``root``, and each corpus's texts."""
    args, texts = [], {}
    for i, docs in enumerate(corpora):
        folder = root / f"c{i}"
        folder.mkdir()
        for j, (bom, text) in enumerate(docs):
            (folder / f"{j}.txt").write_bytes(b"\xef\xbb\xbf" * bom + text.encode())
        args += ["--corpus", f"c{i}={folder}"]
        texts[f"c{i}"] = [text for _, text in docs]
    return args, texts


def outputs(out):
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "provenance.json"}


@pytest.mark.parametrize("block_bytes", [freq._BLOCK_BYTES, 3], ids=["default-blocks", "3-byte-blocks"])
@settings(max_examples=60, deadline=None)
@given(corpora=corpora_st, lexicon=lexicons, stoplists=stoplists_st, flags=st.sampled_from(POLICY_FLAGS),
       k_a=st.integers(1, 4), k_b=st.integers(1, 4), cpus=st.sampled_from([1, 2]))
# a chain of entries: the lemma of कन is क, which is itself an entry, yet a
# word is looked up once; two corpora, counted by two workers
@example(corpora=[[(True, "कन क\r\nखा\u3000कन")], [(False, "क क\u0085कन"), (True, "")]],
         lexicon={"कन": "क", "क": "खा"}, stoplists=[(False, True, ["# सूची", "कन  क", "खा", "", "क"])],
         flags=POLICY_FLAGS[0], k_a=2, k_b=2, cpus=2)
def test_freq_and_induce_trees_equal_the_reference_model(tmp_path_factory, block_bytes, corpora, lexicon,
                                                         stoplists, flags, k_a, k_b, cpus):
    root = tmp_path_factory.mktemp("run")
    corpus_args, texts = write_corpora(root, corpora)
    lex = root / "lexicon.tsv"
    lex.write_text("".join(f"{surface}\t{lemma}\n" for surface, lemma in lexicon.items()), encoding="utf-8")
    stoplist_args = []
    for i, (bom, crlf, lines) in enumerate(stoplists):
        path = root / f"list{i}.txt"
        path.write_bytes(b"\xef\xbb\xbf" * bom + ("\r\n" if crlf else "\n").join(lines).encode())
        stoplist_args += ["--stoplist", f"l{i}={path}"]
    policy = policy_of(flags)
    switches = [f"--{f.name.replace('_', '-')}" for f in fields(policy) if getattr(policy, f.name)]
    common = [*corpus_args, "--lexicon", str(lex), *switches]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(freq, "_BLOCK_BYTES", block_bytes)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert main(["freq", *common, "--out", str(root / "freq")]) == 0
        assert main(["induce", *stoplist_args, *common, "--k-a", str(k_a), "--k-b", str(k_b),
                     "--out", str(root / "induce")]) == 0

    assert outputs(root / "freq") == reference.freq_outputs(texts, lexicon, policy)
    assert outputs(root / "induce") == reference.induce_outputs(
        [lines for _, _, lines in stoplists], list(texts.values()), lexicon, policy, k_a, k_b)


# a ranked list is either a table that the reference ranks, or freq's word
# table of a corpus of 1–2 documents
ranked_sources = st.lists(
    st.dictionaries(st.sampled_from([*WORDS, "#", "a", "7"]), st.integers(0, 5), max_size=6)
    | st.lists(documents, min_size=1, max_size=2),
    min_size=2, max_size=4)


@settings(max_examples=60, deadline=None)
@given(sources=ranked_sources, k=st.integers(1, 4))
# a list shorter than k, an empty one and one that freq wrote, which meet in क and घर
@example(sources=[{"क": 3, "घर": 1}, {}, [(True, "घर क\r\nक खा")]], k=3)
def test_overlap_tree_equals_the_reference_model(tmp_path_factory, sources, k):
    root = tmp_path_factory.mktemp("run")
    ranked_args, lists = [], {}
    for i, source in enumerate(sources):
        folder = root / f"r{i}"
        folder.mkdir()
        if isinstance(source, dict):
            path, counts = folder / "ranked.tsv", source
            path.write_bytes(reference.tsv(source))
        else:
            corpus_args, texts = write_corpora(folder, [source])
            assert main(["freq", *corpus_args, "--out", str(folder / "freq")]) == 0
            path, counts = folder / "freq" / "words_c0.tsv", reference.word_counts(texts["c0"], FilterPolicy())
        ranked_args += ["--ranked", f"r{i}={path}"]
        lists[f"r{i}"] = [item for item, _ in reference.ranked(counts)]

    assert main(["overlap", *ranked_args, "--k", str(k), "--out", str(root / "overlap")]) == 0
    assert outputs(root / "overlap") == reference.overlap_outputs(lists, k)


# each external word's target phrases, or None for a `!` line
mappings = st.dictionaries(st.sampled_from(["the", "a", "of", "is"]),
                           st.none() | st.lists(phrases, min_size=1, max_size=3), max_size=4)


@settings(max_examples=60, deadline=None)
@given(mapping=mappings, lexicon=lexicons, reference_list=stoplists_st.map(lambda lists: lists[0]),
       sep=st.sampled_from([",", ", ", " ,"]), before=noise, repeat=st.booleans())
# a `!` line, a multi-target line lemmatized through a chain of entries (the
# lemma of कन is क, itself an entry, yet a word is looked up once), and a
# target whose words an NBSP separates
@example(mapping={"the": None, "of": ["कन", "घर\u00a0है", "खा"], "is": ["क"]},
         lexicon={"कन": "क", "क": "खा"}, reference_list=(True, False, ["क", "# सूची", "घर है"]),
         sep=", ", before="", repeat=True)
def test_assess_tree_equals_the_reference_model(tmp_path_factory, mapping, lexicon, reference_list, sep,
                                                before, repeat):
    root = tmp_path_factory.mktemp("run")
    lex = root / "lexicon.tsv"
    lex.write_text("".join(f"{surface}\t{lemma}\n" for surface, lemma in lexicon.items()), encoding="utf-8")
    lines = [before, *(f"{word}\t{'!' if targets is None else sep.join(targets)}"
                       for word, targets in mapping.items())]
    if repeat:  # an identical line may repeat
        lines.append(lines[-1])
    (root / "mapping.tsv").write_text("\n".join(lines), encoding="utf-8")
    bom, crlf, list_lines = reference_list
    (root / "list.txt").write_bytes(b"\xef\xbb\xbf" * bom + ("\r\n" if crlf else "\n").join(list_lines).encode())

    assert main(["assess", "--mapping", str(root / "mapping.tsv"), "--list", str(root / "list.txt"),
                 "--lexicon", str(lex), "--out", str(root / "assess")]) == 0
    assert outputs(root / "assess") == reference.assess_outputs(mapping, list_lines, lexicon)
