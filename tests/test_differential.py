"""Whole output trees of ``freq`` and ``induce`` against the reference model in ``reference.py``."""

import os
from dataclasses import fields

import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from stoplemma import freq
from stoplemma.cli import main
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
