"""Malformed input files never escape ``main`` as a traceback.

One input file at a time is replaced by arbitrary bytes; every other input of
the command stays valid.  ``main`` must return 0, 1 or 2, and a nonzero return
must leave no ``--out`` tree behind.  ``metadata.tsv``, which no subcommand
reads, is fuzzed through ``load_metadata`` instead.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from stoplemma.cli import main
from stoplemma.corpus import CorpusError, load_metadata

VALID = {
    "doc": "राम घर गया। वह घर में है। abc 12 १२\n",
    "lexicon": "गया\tजा\nहै\tहो\n",
    "stoplist": "का\nहै\nमें\n",
    "ranked": "घर\t9\nहै\t7\nका\t5\nमें\t3\nवह\t1\n",
    "pos": "का\tPSP\nहै\tVM\nघर\tNN\n",
    "mapping": "the\tवह\nis\tहै\nbeing\t!\n",
    "list": "का\nहै\nघर\n",
    "config": json.dumps({"k": 3}),
}

FILES = {
    "doc": "corpus/doc.txt",
    "lexicon": "lexicon.tsv",
    "stoplist": "stop.txt",
    "ranked": "a.tsv",
    "pos": "pos.tsv",
    "mapping": "map.tsv",
    "list": "list.txt",
    "config": "config.json",
}


def commands(d: Path) -> dict:
    """The command that reads each input kind, by kind."""
    ranked = ["--ranked", f"a={d / 'a.tsv'}", "--ranked", f"b={d / 'b.tsv'}"]
    corpus = ["--corpus", f"c={d / 'corpus'}", "--lexicon", d / "lexicon.tsv"]
    return {
        "doc": ["induce", "--stoplist", f"s={d / 'stop.txt'}", *corpus, "--k-b", "3"],
        "lexicon": ["freq", *corpus],
        "stoplist": ["induce", "--stoplist", f"s={d / 'stop.txt'}", *corpus],
        "ranked": ["posstats", *ranked, "--pos-lexicon", d / "pos.tsv"],
        "pos": ["posstats", *ranked, "--pos-lexicon", d / "pos.tsv", "--depth", "4"],
        "mapping": ["assess", "--mapping", d / "map.tsv", "--list", d / "list.txt",
                    "--lexicon", d / "lexicon.tsv"],
        "list": ["assess", "--mapping", d / "map.tsv", "--list", d / "list.txt"],
        "config": ["--config", d / "config.json", "overlap", *ranked],
    }


# near-valid text as well as raw bytes: tabs, line breaks, comments, digits of
# two scripts, signs, the mapping's marks, Devanagari, ZWJ, NBSP and a BOM
TEXT = st.text(alphabet="\t\n\r #!,-.=0179०१कघरहैा़्‍ ﻿aZ{}[]\":", max_size=200)
CONFIG = st.dictionaries(
    st.sampled_from(["k", "depth", "ranked", "out", "threshold", "keep-symbols", "command", "func"]),
    st.one_of(st.integers(-5, 5), st.floats(allow_nan=True), st.booleans(), st.text(max_size=5),
              st.lists(st.text(max_size=5), max_size=2)),
).map(json.dumps)
CONTENT = st.one_of(st.binary(max_size=200), (TEXT | CONFIG).map(lambda s: s.encode("utf-8")))
METADATA = st.one_of(
    st.binary(max_size=200),
    TEXT.map(lambda s: s.encode("utf-8")),
    TEXT.map(lambda s: ("file\ttitle\tauthor\tgender\tstate\tyear\n" + s).encode("utf-8")),
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(sorted(FILES)), content=CONTENT)
def test_any_single_input_file_ends_in_an_exit_code(kind, content):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "corpus").mkdir()
        for name, rel in FILES.items():
            (d / rel).write_text(VALID[name], encoding="utf-8")
        (d / "b.tsv").write_text(VALID["ranked"], encoding="utf-8")
        (d / FILES[kind]).write_bytes(content)
        out = d / "out"
        rc = main([str(a) for a in (*commands(d)[kind], "--out", out)])
        assert rc in (0, 1, 2)
        if rc:
            assert not out.exists()


@settings(max_examples=200, deadline=None)
@given(content=METADATA)
def test_load_metadata_returns_a_dict_or_raises_corpus_error(content):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "metadata.tsv").write_bytes(content)
        try:
            metas = load_metadata(tmp)
        except CorpusError:
            return
        assert isinstance(metas, dict)
