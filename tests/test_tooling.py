import ast
import builtins
import importlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = PYPROJECT.parent / "src" / "stoplemma"
BENCHMARK = PYPROJECT.parent / "BENCHMARK.json"
BENCH = PYPROJECT.parent / "bench"

# per-layer names that bench/run.py derives from other figures, not from one src/ function
DERIVED_LAYERS = re.compile(r"\w+\.self_s|cli\.cpu_s|\w+\.import_s|stats\.write_s")

# Public names that need no caller in src/, each with the reason it stays.
NO_SRC_CALLER = {
    "__init__.data_path": "bundled-data API",
    "stats.point_biserial": "criterion-2 reference",
}

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != 0
"""

PASSING = """
def test_passes():
    assert True
"""


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # On a failing example the hypothesis plugin imports libcst, which warns;
    # the project's warnings-as-errors setting must not turn that into an
    # INTERNALERROR that ends the session before the other tests run.
    (tmp_path / "test_a_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    (tmp_path / "test_b_plain.py").write_text(PASSING, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_a_property.py", "test_b_plain.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout


def defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return {node.target.id}
    return set()


def referenced_names(node):
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
    return names


def test_every_public_name_has_a_src_caller():
    # A module-level public function, class or constant that nothing in src/
    # refers to, outside its own definition, is a dead path.
    public, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = defined_names(node)
            public |= {(path.stem, name) for name in own if not name.startswith("_")}
            used |= referenced_names(node) - own
    dead = {f"{module}.{name}" for module, name in public if name not in used}
    assert dead == set(NO_SRC_CALLER)


def test_every_error_class_is_caught_by_name():
    # An exception class earns its place only where src/ tells it apart: in
    # an except clause or an isinstance check.  Any other invalid input is a
    # plain ValueError.
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    classes = [n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    errors = {name for name, obj in vars(builtins).items()
              if isinstance(obj, type) and issubclass(obj, BaseException)}
    defined = set()  # the src/ classes that derive from an exception, found base first
    new = True
    while new:
        new = {c.name for c in classes if any(referenced_names(b) & errors for b in c.bases)} - defined
        defined |= new
        errors |= new
    caught = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.ExceptHandler) and n.type is not None:
                caught |= referenced_names(n.type)
            elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "isinstance":
                caught |= referenced_names(n.args[1])
    assert defined - caught == set()
    assert {"ComputeError", "UndefinedCorrelationError"} <= defined


def test_the_rewritten_whitespace_is_what_str_split_cuts_at_and_bytes_split_does_not():
    # freq counts bytes.split() tokens after rewriting these to b" ", so a
    # Python whose str.isspace() grows fails here instead of miscounting
    from stoplemma import freq

    wide = {chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()} - set(" \t\n\v\f\r")
    assert freq._WIDE_SPACES == {c.encode() for c in wide}
    assert [b for b in range(256) if len(bytes([97, b, 97]).split()) == 2] == sorted(b" \t\n\v\f\r")


def test_no_unused_import_in_src():
    # A module-level import whose bound name the module never loads is left
    # over from deleted code.
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = {alias.asname or alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = {alias.asname or alias.name for alias in node.names}
            else:
                continue
            unused |= {f"{path.stem}.{name}" for name in bound - loaded}
    assert unused == set()


def test_readme_names_every_cli_flag():
    from stoplemma.cli import COMMANDS

    readme = (PYPROJECT.parent / "README.md").read_text(encoding="utf-8")
    flags = {flag for _, _, options in COMMANDS.values() for flag, *_ in options}
    assert {flag for flag in flags if not re.search(rf"{flag}(?![\w-])", readme)} == set()


def test_readme_names_every_output(tmp_path):
    from stoplemma import data_path
    from stoplemma.cli import main

    # the corpus ID is ID, as README writes it in the names of freq's files
    corpus, lexicon = f"ID={data_path('demo_corpus')}", str(data_path("demo_lexicon.tsv"))
    stoplists = [a for i in (1, 2, 3)
                 for a in ("--stoplist", f"l{i}={data_path('demo_stoplists', f'list{i}.txt')}")]
    ranked = [a for p in sorted(data_path("table3_top10").glob("*.tsv")) for a in ("--ranked", f"{p.stem}={p}")]
    runs = {
        "freq": ["--corpus", corpus, "--lexicon", lexicon],
        "induce": [*stoplists, "--corpus", corpus, "--lexicon", lexicon],
        "overlap": ranked,
        "posstats": [*ranked, "--pos-lexicon", str(data_path("demo_pos_lexicon.tsv"))],
        "assess": ["--mapping", str(data_path("english_hindi_mapping.tsv")), "--lexicon", lexicon,
                   "--list", str(data_path("table5_stoplemmas.txt"))],
    }
    for command, argv in runs.items():
        assert main([command, *argv, "--out", str(tmp_path / command)]) == 0, command
    names, keys = set(), set()
    for path in tmp_path.glob("*/*"):  # each output file, in its subcommand's --out
        names.add(path.name)
        if path.suffix == ".json":
            data = json.loads(path.read_text(encoding="utf-8"))
            # freq_report.json is a list of rows; posstats.json nests its cells and summaries
            rows = data if isinstance(data, list) else [data, *data.get("cells", []), *data.get("summaries", [])]
            keys |= {key for row in rows for key in row}
    readme = (PYPROJECT.parent / "README.md").read_text(encoding="utf-8")
    outputs = readme.split("\n### Outputs\n", 1)[1].split("\n## ", 1)[0]
    assert {name for name in names | keys if f"`{name}`" not in outputs} == set()


def test_bench_layer_names_exist_in_src():
    # A traced bench run times each M.F_s layer around the function F of
    # module M; if F is gone the run fails with "metrics not measured".
    modules, timed = set(), set()
    for path in SRC.glob("*.py"):
        modules.add(path.stem)
        timed |= {f"{path.stem}.{n.name}_s" for n in ast.parse(path.read_text(encoding="utf-8")).body
                  if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")}
    layers = [m["name"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]]
    pinned = {name for name in layers if name.partition(".")[0] in modules
              and name.endswith("_s") and not DERIVED_LAYERS.fullmatch(name)}
    assert pinned
    assert pinned - timed == set()


def test_every_function_the_bench_hooks_is_wrapped(monkeypatch):
    # A count hook runs only around the src/ function it is keyed by, and an
    # EXTRA name is wrapped only if src/ defines it; a renamed target would
    # leave its count reading 0 instead of failing the run.
    monkeypatch.syspath_prepend(str(BENCH))
    import inproc

    modules = {m: importlib.import_module(f"stoplemma.{m}") for m in inproc.MODULES}
    tracer = inproc.Tracer(modules)
    tracer.install()
    tracer.uninstall()
    hooked = set(tracer.hooks) | inproc.EXTRA
    assert {"cli._sha256", "freq.count_words"} <= hooked
    assert hooked - tracer.wrapped == set()


def test_bench_self_tests_pass():
    # The bench hooks read src/ attributes and argument names, so a change
    # that breaks one shows here rather than only in a benchmark run.
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "bench"],
        cwd=PYPROJECT.parent, env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]


@pytest.mark.parametrize("name", ["induce-zipf", "analyze-ranked"])
def test_traced_bench_runs_of_induce_and_analyze_are_correct(name, tmp_path, monkeypatch):
    # pytest -q bench traces only freq-longtail, so a src/ attribute that only
    # the induce or assess hooks read (as CoverageReport.mapped_lemma_set) shows here.
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.chdir(PYPROJECT.parent)  # workload paths are relative to the checkout
    import inproc
    import test_bench

    wl = test_bench.small(name)
    wl.generate(random.Random(4), tmp_path)
    argvs = wl.commands(tmp_path)
    modules = {m: importlib.import_module(f"stoplemma.{m}") for m in inproc.MODULES}
    tracer = inproc.Tracer(modules)
    tracer.install()
    try:
        _, codes = inproc.run_pass(modules["cli"], argvs, tmp_path / "out")
    finally:
        tracer.uninstall()
    assert codes == [0] * len(argvs)
    assert wl.check(tmp_path) == []
