"""Malformed input files never escape ``main`` as a traceback.

One input file at a time is replaced by arbitrary bytes; every other input of
the command stays valid.  ``main`` must return 0, 1 or 2, and a nonzero return
must leave no ``--out`` tree behind; the same holds for any list of ``ID=PATH``
specs.  A replaced file that is not UTF-8 must exit 1, naming the file, the bad
byte's line and its offset, whichever kind of input it is.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from stoplemma.cli import main

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


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(kind="doc", content="राम\r\nघर\r".encode() + b"\xff")
@example(kind="config", content=b'{"k":\n 3}\xff')
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
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([str(a) for a in (*commands(d)[kind], "--out", out)])
        assert rc in (0, 1, 2)
        if rc:
            assert not out.exists()
        try:
            content.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the line of the bad byte: one plus the line breaks before it
            line = len(re.split(r"\r\n|\r|\n", content[:exc.start].decode("utf-8")))
            message = f"{d / FILES[kind]}:{line}: invalid UTF-8 at byte offset {exc.start}\n"
            assert rc == 1
            assert message in err.getvalue()


# ID=PATH specs: IDs empty, dotted, holding "/", "=" or NUL, or 300 characters
# long; paths valid, empty, missing, an empty file or folder, holding NUL or
# too long for a file name; or a spec with no "=" at all
SPEC_IDS = st.one_of(
    st.sampled_from(["", ".", "..", "a", "b", "a/b", "../a", "a=b", "a\0b"]),
    st.just("x" * 300),
    st.text(alphabet="ab./=\0", max_size=4),
)
SPEC_PATHS = st.one_of(st.just("valid"), st.sampled_from(
    ["", "missing", "empty-file", "empty-folder", "nul", "long", "no-equals"]))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(option="corpus", specs=[("a", "valid"), ("x" * 300, "valid")])
@given(option=st.sampled_from(["corpus", "stoplist", "ranked"]),
       specs=st.lists(st.tuples(SPEC_IDS, SPEC_PATHS), min_size=1, max_size=3))
def test_any_id_path_spec_ends_in_an_exit_code(option, specs):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "corpus").mkdir()
        (d / "empty-folder").mkdir()
        for name, rel in FILES.items():
            (d / rel).write_text(VALID[name], encoding="utf-8")
        (d / "empty-file").write_bytes(b"")
        paths = {
            "valid": d / {"corpus": "corpus", "stoplist": "stop.txt", "ranked": "a.tsv"}[option],
            "": "",
            "missing": d / "missing",
            "empty-file": d / "empty-file",
            "empty-folder": d / "empty-folder",
            "nul": d / "a\0b",
            "long": d / ("y" * 300),
        }
        argv = {"corpus": ["freq"], "stoplist": ["induce", "--corpus", f"c={d / 'corpus'}"],
                "ranked": ["overlap"]}[option]
        for ident, where in specs:
            argv += [f"--{option}", ident if where == "no-equals" else f"{ident}={paths[where]}"]
        out = d / "out"
        rc = main([*argv, "--out", str(out)])
        assert rc in (0, 1, 2)
        if rc:
            assert not out.exists()
