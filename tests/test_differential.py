"""Every subcommand's output tree against the reference model.

The model is in ``reference.py``.  ``posstats``' floats are compared at a
tolerance, its other outputs exactly.
"""

import json
import math
import os
import re

import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from stoplemma import freq
from stoplemma.cli import main
from stoplemma.normalize import FilterPolicy
from stoplemma.stats import DEFAULT_GROUPS
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
    switches = [f"--{name.replace('_', '-')}" for name in policy._fields if getattr(policy, name)]
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


# the items of the ranked lists
RANKED_ITEMS = [*WORDS, "#", "a", "7"]
# a ranked list is either a table that the reference ranks, or freq's word
# table of a corpus of 1–2 documents
ranked_source = (st.dictionaries(st.sampled_from(RANKED_ITEMS), st.integers(0, 5), max_size=6)
                 | st.lists(documents, min_size=1, max_size=2))


def write_ranked(root, sources):
    """The ``--ranked`` arguments of ``sources`` written under ``root``, and each list's (item, count) entries."""
    args, lists = [], {}
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
        args += ["--ranked", f"r{i}={path}"]
        lists[f"r{i}"] = reference.ranked(counts)
    return args, lists


@settings(max_examples=60, deadline=None)
@given(sources=st.lists(ranked_source, min_size=2, max_size=4), k=st.integers(1, 4))
# a list shorter than k, an empty one and one that freq wrote, which meet in क and घर
@example(sources=[{"क": 3, "घर": 1}, {}, [(True, "घर क\r\nक खा")]], k=3)
def test_overlap_tree_equals_the_reference_model(tmp_path_factory, sources, k):
    root = tmp_path_factory.mktemp("run")
    ranked_args, lists = write_ranked(root, sources)

    assert main(["overlap", *ranked_args, "--k", str(k), "--out", str(root / "overlap")]) == 0
    assert outputs(root / "overlap") == reference.overlap_outputs(
        {ident: [item for item, _ in entries] for ident, entries in lists.items()}, k)


# A POS tag of each group, and one of none
POS_TAGS = [*sorted(set().union(*DEFAULT_GROUPS.values())), "JJ"]


def close(got, want, rel):
    """Both None, or ``got`` within ``rel`` of ``want`` relative, or 1e-15 absolute, as a sum near 0 allows."""
    if want is None:
        return got is None
    return got is not None and math.isclose(got, float(want), rel_tol=rel, abs_tol=1e-15)


@settings(max_examples=60, deadline=None)
@given(sources=st.lists(ranked_source, min_size=1, max_size=3),
       tags=st.dictionaries(st.sampled_from(RANKED_ITEMS), st.sampled_from(POS_TAGS)),
       depth=st.none() | st.integers(1, 6), use_frequency=st.booleans(),
       threshold=st.sampled_from([0.0, 0.25, 0.5, 1.0]))
# a list that freq wrote and one with tied counts, cut to 4 entries
@example(sources=[[(False, "घर क है का क\nघर क खा")], {"क": 3, "घर": 2, "है": 2, "a": 1, "7": 1}],
         tags={"क": "PSP", "घर": "NN", "है": "VM", "a": "SYM", "खा": "VM"}, depth=4, use_frequency=False,
         threshold=0.5)
# by count: a group split by two counts, whose exact r is ±1, and a list of
# equal counts, where only groups with members and others meet the variance
@example(sources=[{"क": 5, "घर": 5, "है": 3}, {"क": 2, "घर": 2, "है": 2, "का": 2}],
         tags={"क": "PSP", "घर": "PRP", "है": "VM"}, depth=None, use_frequency=True, threshold=1.0)
# by count: two values, the lower of which a group holds, so its exact r is -1
# where the float r is -1 + 2**-52
@example(sources=[{"क": 5, "घर": 5, "है": 5, "का": 4, "a": 4}], tags={"का": "VM", "a": "VM", "क": "NN"},
         depth=None, use_frequency=True, threshold=0.5)
# no cell has a defined r, and the run fails
@example(sources=[{"क": 1, "घर": 1}, {}], tags={"क": "PSP"}, depth=None, use_frequency=False, threshold=0.5)
def test_posstats_tree_equals_the_reference_model(tmp_path_factory, sources, tags, depth, use_frequency,
                                                  threshold):
    root = tmp_path_factory.mktemp("run")
    ranked_args, lists = write_ranked(root, sources)
    (root / "pos.tsv").write_text("".join(f"{item}\t{tag}\n" for item, tag in tags.items()), encoding="utf-8")
    out = root / "posstats"
    argv = ["posstats", *ranked_args, "--pos-lexicon", str(root / "pos.tsv"), "--threshold", str(threshold),
            *(["--depth", str(depth)] if depth else []), *(["--use-frequency"] if use_frequency else []),
            "--out", str(out)]
    code = main(argv)

    cells = reference.posstats_cells(lists, tags, depth, use_frequency)
    if all(c["error"] for c in cells):  # no r is defined: a compute error
        assert code == 2 and not out.exists()
        return
    assert code == 0
    report = json.loads((out / "posstats.json").read_text(encoding="utf-8"))
    assert len(report["cells"]) == len(cells)
    for got, want in zip(report["cells"], cells):
        assert {**got, "r": None, "p": None} == {**want, "r": None, "p": None}
        assert close(got["r"], want["r"], 1e-12)
        assert close(got["p"], want["p"], 1e-9)
    expected = reference.posstats_outputs(cells, lists, depth, threshold)
    assert report["depth"] == expected["posstats.json"]["depth"]
    assert len(report["summaries"]) == len(expected["posstats.json"]["summaries"])
    for got, want in zip(report["summaries"], expected["posstats.json"]["summaries"]):
        assert (got["group"], got["defined_sources"], got["flagged_sources"]) == \
            (want["group"], want["defined_sources"], want["flagged_sources"])
        for key in ("mean_r", "sd_r", "max_r", "min_r", "mean_p", "sd_p"):
            assert close(got[key], want[key], 1e-9 if key.endswith("p") else 1e-12), key

    header, *rows = (out / "posstats.tsv").read_text(encoding="utf-8").splitlines()
    assert header == "Part of Speech\tMean\tSD\tMax\tMin\tP Mean\tP SD"
    assert len(rows) == len(expected["posstats.tsv"])
    for line, (group, *values) in zip(rows, expected["posstats.tsv"]):
        fields = line.split("\t")
        assert fields[0] == group and len(fields) == 1 + len(values)
        for field, value in zip(fields[1:], values):
            if value is None:
                assert field == ""
            else:  # the value printed to 4 decimals
                assert re.fullmatch(r"-?\d+\.\d{4}", field) and abs(float(field) - value) <= 0.5e-4 + 1e-12

    verdict = json.loads((out / "hypothesis.json").read_text(encoding="utf-8"))
    # a mean |r| at the threshold, as ±1 at 1.0, compares either way in float
    if all(s["mean_r"] is None or abs(abs(s["mean_r"]) - threshold) > 1e-12
           for s in expected["posstats.json"]["summaries"]):
        assert verdict == expected["hypothesis.json"]
    else:
        assert verdict["threshold"] == threshold


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
