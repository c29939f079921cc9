"""Tests of the benchmark itself: seeded inputs, the oracle, self time, the tracer.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

import pytest

import inproc
import run
import spans
import workloads

REPO = Path(__file__).resolve().parent.parent


def small(name: str) -> workloads.Workload:
    """A copy of a workload with inputs small enough for a unit test."""
    wl = type(workloads.WORKLOADS[name])()
    sizes = {
        "induce-zipf": {"tokens_per_doc": 3000},
        "freq-longtail": {"tokens_per_doc": 4000, "tail_types": 6000},
        "analyze-ranked": {"lists": 4, "entries": 800, "shared_types": 3000, "overlap_k": 200},
    }[name]
    for attr, value in sizes.items():
        setattr(wl, attr, value)
    return wl


@pytest.fixture(autouse=True)
def at_repo_root(monkeypatch):
    # workload paths, like the CLI arguments they become, are relative to the checkout
    monkeypatch.chdir(REPO)


def generate(wl, seed, root):
    wl.generate(random.Random(seed), root)
    return workloads.tree_digest(root)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_and_tallies(name, tmp_path):
    wl = small(name)
    first = generate(wl, 7, tmp_path / "a")
    assert generate(wl, 7, tmp_path / "b") == first
    assert generate(wl, 8, tmp_path / "c") != first
    assert any((tmp_path / "a" / "expected").iterdir())


def run_cli(wl, root):
    from stoplemma.cli import main

    shutil.rmtree(root / "out", ignore_errors=True)
    for argv in wl.commands(root):
        assert main(argv) == 0


def swap_lines(path: Path, i: int, j: int) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[i], lines[j] = lines[j], lines[i]
    path.write_text("".join(lines), encoding="utf-8")


def drop_line(path: Path, i: int) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    del lines[i]
    path.write_text("".join(lines), encoding="utf-8")


def bump_posstats(kind: str, key: str, factor: float):
    """Scale one defined value of posstats.json, as a wrong statistic would."""
    def corrupt(path: Path) -> None:
        report = json.loads(path.read_text(encoding="utf-8"))
        row = next(row for row in report[kind] if row[key])
        row[key] *= factor
        path.write_text(json.dumps(report), encoding="utf-8")
    return corrupt


def edit_text(old: str, new: str):
    def corrupt(path: Path) -> None:
        text = path.read_text(encoding="utf-8")
        assert old in text
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
    return corrupt


def bump_tsv_number(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[1].split("\t")
    fields[1] = f"{float(fields[1]) + 0.001:.4f}"
    lines[1] = "\t".join(fields)
    path.write_text("".join(lines), encoding="utf-8")


CORRUPTIONS = [
    ("induce-zipf", "induce/stoplemmas.txt", lambda p: drop_line(p, 0)),
    ("induce-zipf", "induce/stoplemmas.txt", lambda p: swap_lines(p, 0, 1)),
    ("freq-longtail", "freq/words_c0.tsv", lambda p: drop_line(p, 5)),
    ("freq-longtail", "freq/lemmas_c1.tsv", lambda p: swap_lines(p, 0, 1)),
    ("freq-longtail", "freq/freq_report.json", lambda p: p.write_text("[]", encoding="utf-8")),
    ("analyze-ranked", "overlap/overlap.tsv", lambda p: swap_lines(p, 0, -1)),
    ("analyze-ranked", "posstats/posstats.json", bump_posstats("cells", "r", 1 + 1e-6)),
    ("analyze-ranked", "posstats/posstats.json", bump_posstats("cells", "p", 1.001)),
    ("analyze-ranked", "posstats/posstats.json", bump_posstats("summaries", "sd_r", 1.001)),
    ("analyze-ranked", "posstats/posstats.json", bump_posstats("summaries", "mean_p", 1.001)),
    ("analyze-ranked", "posstats/posstats.tsv", bump_tsv_number),
    ("analyze-ranked", "posstats/hypothesis.json", edit_text("true", "false")),
    ("analyze-ranked", "assess/coverage.txt", edit_text("coverage: ", "coverage: 1")),
    ("analyze-ranked", "assess/coverage.json", lambda p: p.unlink()),
]


@pytest.mark.parametrize("name,target,corrupt", CORRUPTIONS)
def test_oracle_accepts_program_output_and_rejects_corruption(name, target, corrupt, tmp_path):
    wl = small(name)
    wl.generate(random.Random(3), tmp_path)
    run_cli(wl, tmp_path)
    assert wl.check(tmp_path) == []
    corrupt(tmp_path / "out" / target)
    assert wl.check(tmp_path) != []


def test_self_time_on_hand_built_tree():
    #  0 root [0, 100]
    #  1 ├ a [10, 40]
    #  2 │ └ c [20, 25]
    #  3 ├ b [40, 60]
    #  4 └ d [90, 100]
    starts = [0, 10, 20, 40, 90]
    ends = [100, 40, 25, 60, 100]
    parents = [-1, 0, 1, 0, 0]
    times = spans.self_times(starts, ends, parents)
    assert times == [40, 25, 5, 20, 10]
    assert sum(times) == 100
    by_name = spans.self_time_by_name(["root", "x", "c", "x", "d"], starts, ends, parents)
    assert by_name == {"root": 40, "x": 45, "c": 5, "d": 10}


def test_span_file_round_trip(tmp_path):
    from array import array

    columns = {"name": array("i", [0, 1]), "parent": array("i", [-1, 0]), "run": array("i", [0, 0]),
               "start": array("q", [5, 2**40]), "end": array("q", [9, 2**40 + 1])}
    spans.write_spans(tmp_path / "t.spans", columns)
    assert spans.read_spans(tmp_path / "t.spans", 2) == columns
    columns["start"] = array("d", [5.0, 6.0])
    with pytest.raises(ValueError):
        spans.write_spans(tmp_path / "u.spans", columns)


def test_tracer_accounts_for_the_traced_wall(tmp_path):
    wl = small("freq-longtail")
    wl.generate(random.Random(4), tmp_path)
    import importlib

    modules = {m: importlib.import_module(f"stoplemma.{m}") for m in inproc.MODULES}
    tracer = inproc.Tracer(modules)
    tracer.install()
    try:
        wall, codes = inproc.run_pass(modules["cli"], wl.commands(tmp_path), tmp_path / "out")
    finally:
        tracer.uninstall()
    assert codes == [0]
    assert wl.check(tmp_path) == []
    assert modules["normalize"].classify.__name__ == "classify"
    assert not hasattr(modules["normalize"].classify, "__wrapped__")

    trace = {
        "names": tracer.names,
        "wrapped": sorted(tracer.wrapped),
        "passes": [{"spans": [0, len(tracer.start)], "counts": dict(tracer.counts),
                    "traced": {"wall_s": wall}, "untraced": {"wall_s": wall}}],
        "span": {"name": list(tracer.name), "start": list(tracer.start),
                 "end": list(tracer.end), "parent": list(tracer.parent)},
    }
    m = run.layer_metrics(trace, 0)
    assert 0.95 <= m["trace.accounted_share"] <= 1.0
    assert m["normalize.classify_calls"] > 0
    kept = sum(json.loads(p.read_text(encoding="utf-8"))["word"][0]
               for p in (tmp_path / "expected").glob("totals_*.json"))
    assert 0 < m["freq.kept_token_ratio"] < 1
    assert round(m["freq.tokens_scanned"] * m["freq.kept_token_ratio"]) == kept
    assert m["freq.rows_written"] == sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (tmp_path / "out" / "freq").glob("*.tsv"))
    assert m["corpus.documents"] == wl.corpora * wl.docs
    assert m["stats.point_biserial_calls"] == 0

    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    measured_elsewhere = {"cli.cpu_s", "cli.import_s", "stats.import_s", "trace.overhead_s"}
    assert {p["name"] for p in spec["per_layer"]} - measured_elsewhere <= set(m)

