"""Golden output hashes: every subcommand on the bundled data.

The commands run from a temporary working directory with relative paths, so
``provenance.json`` (which names its inputs by path) is stable as well. Each
constant is the SHA-256 of one whole ``--out`` tree. A constant changes only
when an output is meant to change; a refactor must leave every one intact.
"""

import hashlib
import itertools
import shutil

import pytest

from stoplemma import data_path
from stoplemma.cli import main

_RANKED = [f"LR{n}=data/table3_top10/LR{n}.tsv" for n in range(12, 20)]
_STOPLISTS = [f"l{i}=data/demo_stoplists/list{i}.txt" for i in (1, 2, 3)]
_LEXICON = ["--lexicon", "data/demo_lexicon.tsv"]
_CORPUS = ["--corpus", "demo=data/demo_corpus"]

COMMANDS = {
    "freq": ["freq", *_CORPUS, *_LEXICON],
    "freq-symbols": ["freq", *_CORPUS, *_LEXICON, "--keep-symbols", "--keep-latin-words"],
    "induce": ["induce", *[a for s in _STOPLISTS for a in ("--stoplist", s)],
               *_CORPUS, *_LEXICON, "--k-a", "20", "--k-b", "20"],
    "overlap": ["overlap", *[a for r in _RANKED for a in ("--ranked", r)], "--k", "10"],
    "posstats": ["posstats", *[a for r in _RANKED for a in ("--ranked", r)],
                 "--pos-lexicon", "data/demo_pos_lexicon.tsv"],
    "posstats-frequency": ["posstats", *[a for r in _RANKED for a in ("--ranked", r)],
                           "--pos-lexicon", "data/demo_pos_lexicon.tsv", "--use-frequency"],
    "assess": ["assess", "--mapping", "data/english_hindi_mapping.tsv", *_LEXICON,
               "--list", "data/table5_stoplemmas.txt"],
}

GOLDEN = {
    "assess": "a390e82052824ba58e91520fb2428e1f30969ff71273d732cfc834778a1dcb3d",
    "freq": "cde0af3743594971e2148349ece506d987d290ba634b960367bef3ca4cb7c643",
    "freq-symbols": "c9a85ecbc20f686d0587bbecc4e25a2fe32ea975222eac695bd0d2109a8d07b4",
    "induce": "d5b060080b7e33132b2f12c381604dce4f14a5f2554bb6108d57e41d4c036710",
    "overlap": "d02b6453554f0ecab2d5d5299846b5e4c3f19b6ff5888436a8b8386c73ef6606",
    "posstats": "a34b41943e7188746591111db70b989ac02041b2000755e766285582fc3ebd5d",
    "posstats-frequency": "8401777423d20d6825cc50d219adaa99e10d160c3a1d202f9f8e3e160c032449",
}


def tree_digest(root):
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_tree_matches_golden_hash(name, tmp_path, monkeypatch):
    shutil.copytree(data_path(), tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    assert main([*COMMANDS[name], "--out", name]) == 0
    assert tree_digest(tmp_path / name) == GOLDEN[name]


# A document that the bundled corpus does not resemble: Latin words, ASCII,
# Devanagari and mixed digit runs, a nukta letter in NFC and in NFD, ZWJ,
# dandas and punctuation.  Each of the four kind flags changes its word table.
MIXED_DOCUMENT = (
    "राम ने घर में खाना खाया। Ram ate food at home.\n"
    "2024 में १२ लोग आए; 12३ x१ a1 abc-def ₹10 (कुल) !\n"
    "\u0958िला \u0915\u093cिला \u0929 \u0928\u093c क\u094d\u200dष ॥ ० 0\n"
)
KIND_FLAGS = ("--keep-symbols", "--keep-latin-words", "--keep-latin-numbers", "--drop-devanagari-digits")
# SHA-256 over the 16 tree digests, flag combinations in itertools.product order
MIXED_GOLDEN = "76515871c9d883bf5da3fce7237ec9ba5eccbb6816d3a4170eb2e09567e20cf5"


def test_kind_filters_on_a_mixed_script_document(tmp_path, monkeypatch):
    (tmp_path / "mixed").mkdir()
    (tmp_path / "mixed" / "doc.txt").write_text(MIXED_DOCUMENT, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    tables = set()
    for n, chosen in enumerate(itertools.product((False, True), repeat=len(KIND_FLAGS))):
        flags = [flag for flag, on in zip(KIND_FLAGS, chosen) if on]
        assert main(["freq", "--corpus", "mixed=mixed", *flags, "--out", f"out{n}"]) == 0
        h.update(tree_digest(tmp_path / f"out{n}").encode())
        tables.add((tmp_path / f"out{n}" / "words_mixed.tsv").read_bytes())
    assert len(tables) == 16
    assert h.hexdigest() == MIXED_GOLDEN
