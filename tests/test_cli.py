import errno
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import stoplemma
from stoplemma import data_path
from stoplemma import freq as freq_mod
from stoplemma.cli import main


def run(argv):
    return main([str(a) for a in argv])


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.fixture
def demo_args():
    return {
        "corpus": f"demo={data_path('demo_corpus')}",
        "lexicon": data_path("demo_lexicon.tsv"),
        "stoplists": [
            f"l{i}={data_path('demo_stoplists', f'list{i}.txt')}" for i in (1, 2, 3)
        ],
        "ranked": [
            f"{p.stem}={p}" for p in sorted(data_path("table3_top10").glob("*.tsv"))
        ],
    }


class TestFreqCommand:
    def test_first_line_is_most_frequent(self, tmp_path, demo_args):
        out = tmp_path / "out"
        assert run(["freq", "--corpus", demo_args["corpus"],
                    "--lexicon", demo_args["lexicon"], "--out", out]) == 0
        lines = (out / "lemmas_demo.tsv").read_text(encoding="utf-8").splitlines()
        counts = [int(l.split("\t")[1]) for l in lines]
        assert counts == sorted(counts, reverse=True)
        report = json.loads((out / "freq_report.json").read_text())
        kinds = {row["item_kind"] for row in report}
        assert kinds == {"word", "lemma"}

    def test_missing_lexicon_fails_without_partial_output(self, tmp_path, demo_args):
        out = tmp_path / "out"
        rc = run(["freq", "--corpus", demo_args["corpus"],
                  "--lexicon", tmp_path / "missing.tsv", "--out", out])
        assert rc == 1
        assert not out.exists()

    def test_ranked_tsvs_read_back(self, tmp_path, demo_args):
        from stoplemma.corpus import load_corpus
        from stoplemma.freq import count_words, lemma_table, rank_items, read_ranked_tsv
        from stoplemma.lemma import load_lexicon
        from stoplemma.normalize import FilterPolicy

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.txt").write_text("# घर # है, #टैग abc # ।\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["freq", "--corpus", f"hash={corpus}", "--corpus", demo_args["corpus"],
                    "--lexicon", demo_args["lexicon"], "--keep-symbols",
                    "--keep-latin-words", "--out", out]) == 0
        policy = FilterPolicy(drop_symbols=False, drop_latin_words=False)
        lex = load_lexicon(demo_args["lexicon"])
        for ident, root in [("hash", corpus), ("demo", data_path("demo_corpus"))]:
            words = count_words(load_corpus(root, id=ident), policy)
            assert read_ranked_tsv(out / f"words_{ident}.tsv") == rank_items(words)
            assert read_ranked_tsv(out / f"lemmas_{ident}.tsv") == rank_items(lemma_table(words, lex))
        assert "#\t4" in (out / "words_hash.tsv").read_text(encoding="utf-8").splitlines()

    def test_deterministic(self, tmp_path, demo_args):
        import shutil

        out = tmp_path / "out"
        outs = []
        for _ in range(2):
            assert run(["freq", "--corpus", demo_args["corpus"],
                        "--lexicon", demo_args["lexicon"], "--out", out]) == 0
            outs.append(tree_bytes(out))
            shutil.rmtree(out)
        assert outs[0] == outs[1]


class TestInduceCommand:
    def test_matches_library_oracle(self, tmp_path, demo_args):
        from stoplemma.corpus import load_corpus
        from stoplemma.freq import count_lemmas, rank_items
        from stoplemma.induce import (
            aggregate_lemma_counts, build_final_list, build_set_a, build_set_b,
            load_stopword_list,
        )
        from stoplemma.lemma import load_lexicon

        out = tmp_path / "out"
        argv = ["induce"]
        for spec in demo_args["stoplists"]:
            argv += ["--stoplist", spec]
        argv += ["--corpus", demo_args["corpus"], "--lexicon", demo_args["lexicon"],
                 "--k-a", "20", "--k-b", "20", "--out", out]
        assert run(argv) == 0

        lex = load_lexicon(demo_args["lexicon"])
        lists = [
            load_stopword_list(data_path("demo_stoplists", f"list{i}.txt"), f"l{i}")
            for i in (1, 2, 3)
        ]
        table = count_lemmas(load_corpus(data_path("demo_corpus"), id="demo"), lex=lex)
        set_a = build_set_a(lists, lex, k=20)
        set_b = build_set_b([rank_items(table)], k=20)
        expected = build_final_list(set_a, set_b, aggregate_lemma_counts([table.counts]))
        got = (out / "stoplemmas.txt").read_text(encoding="utf-8").split()
        assert got == [l for l, _ in expected.lemmas]

    def test_report_sizes_consistent(self, tmp_path, demo_args):
        out = tmp_path / "out"
        argv = ["induce"]
        for spec in demo_args["stoplists"]:
            argv += ["--stoplist", spec]
        argv += ["--corpus", demo_args["corpus"], "--lexicon", demo_args["lexicon"],
                 "--out", out]
        assert run(argv) == 0
        report = json.loads((out / "induction_report.json").read_text())
        assert report["final_size"] <= min(report["set_a_size"], report["set_b_size"])
        assert report["deduped_word_total"] <= report["raw_word_total"]


class TestOverlapCommand:
    def test_table3_replay(self, tmp_path, demo_args):
        out = tmp_path / "out"
        argv = ["overlap"]
        for spec in demo_args["ranked"]:
            argv += ["--ranked", spec]
        argv += ["--k", "10", "--out", out]
        assert run(argv) == 0
        report = json.loads((out / "overlap_report.json").read_text())
        assert report["max_count"] == 8
        assert report["unique_items"] == 18
        first = (out / "overlap.tsv").read_text(encoding="utf-8").splitlines()[0]
        item, count = first.split("\t")
        assert int(count) == 8

    def test_count_beyond_the_int_digit_limit_names_the_line(self, tmp_path, capsys, demo_args):
        ranked = tmp_path / "r.tsv"
        ranked.write_text(f"का\t{'9' * 5000}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["overlap", "--ranked", demo_args["ranked"][0], "--ranked", f"big={ranked}",
                    "--out", out]) == 1
        assert f"{ranked}:1: count has 5000 digits" in capsys.readouterr().err
        assert not out.exists()


def test_nfd_and_nfc_ranked_items_are_one_item(tmp_path):
    # न + nukta (NFD) in one list, precomposed ऩ (NFC) in the other
    (tmp_path / "a.tsv").write_text("न\u093cा\t5\nघर\t3\nहै\t1\n", encoding="utf-8")
    (tmp_path / "b.tsv").write_text("\u0929ा\t4\nघर\t2\nथा\t1\n", encoding="utf-8")
    (tmp_path / "pos.tsv").write_text("\u0929ा\tPSP\n", encoding="utf-8")
    ranked = ["--ranked", f"a={tmp_path / 'a.tsv'}", "--ranked", f"b={tmp_path / 'b.tsv'}"]

    assert run(["overlap", *ranked, "--k", "3", "--out", tmp_path / "overlap"]) == 0
    rows = (tmp_path / "overlap" / "overlap.tsv").read_text(encoding="utf-8").splitlines()
    assert "\u0929ा\t2" in rows
    assert len(rows) == 4

    assert run(["posstats", *ranked, "--pos-lexicon", tmp_path / "pos.tsv",
                "--out", tmp_path / "posstats"]) == 0
    cells = json.loads((tmp_path / "posstats" / "posstats.json").read_text())["cells"]
    psp = {c["source_id"]: c for c in cells if c["group"] == "PSP/PRP"}
    assert psp["a"]["n1"] == psp["b"]["n1"] == 1


class TestPosstatsCommand:
    def test_runs_and_reports(self, tmp_path, demo_args):
        out = tmp_path / "out"
        argv = ["posstats"]
        for spec in demo_args["ranked"]:
            argv += ["--ranked", spec]
        argv += ["--pos-lexicon", data_path("demo_pos_lexicon.tsv"), "--out", out]
        assert run(argv) == 0
        payload = json.loads((out / "posstats.json").read_text())
        groups = [s["group"] for s in payload["summaries"]]
        assert groups == ["NN/NNP/NNPC", "PSP/PRP", "SYM", "VM", "QC/QF/QO", "NEG", "CC"]
        verdict = json.loads((out / "hypothesis.json").read_text())
        assert set(verdict) == {"reject_pos_hypothesis", "threshold"}

    def test_all_cells_undefined_is_compute_error(self, tmp_path):
        ranked = tmp_path / "r.tsv"
        # two entries only: every cell fails the n >= 3 precondition
        ranked.write_text("का\t2\nहै\t1\n", encoding="utf-8")
        pos = tmp_path / "pos.tsv"
        pos.write_text("का\tPSP\n", encoding="utf-8")
        rc = run(["posstats", "--ranked", f"a={ranked}", "--pos-lexicon", pos,
                  "--out", tmp_path / "out"])
        assert rc == 2

    @pytest.mark.parametrize("depth", ["0", "-3"])
    def test_depth_below_one_exits_1(self, tmp_path, capsys, demo_args, depth):
        out = tmp_path / "out"
        assert run(["posstats", "--ranked", demo_args["ranked"][0], "--depth", depth,
                    "--pos-lexicon", data_path("demo_pos_lexicon.tsv"), "--out", out]) == 1
        assert f"depth must be >= 1, got {depth}" in capsys.readouterr().err
        assert not out.exists()

    def test_use_frequency_runs(self, tmp_path, demo_args):
        argv = ["posstats", *[a for r in demo_args["ranked"] for a in ("--ranked", r)],
                "--pos-lexicon", data_path("demo_pos_lexicon.tsv"), "--use-frequency",
                "--out", tmp_path / "out"]
        assert run(argv) == 0

    @pytest.mark.parametrize("counts", [
        ["9" * 200, "5", "3", "1"],  # its square overflows
        ["9" * 400, "5", "3", "1"],  # no float holds it
        ["9" + "0" * 307] * 3 + ["1"],  # each fits, their sum is inf
    ])
    def test_count_too_large_for_use_frequency_exits_1(self, tmp_path, capsys, counts):
        ranked = tmp_path / "r.tsv"
        ranked.write_text("".join(f"{item}\t{c}\n" for item, c in zip("abcd", counts)),
                          encoding="utf-8")
        pos = tmp_path / "pos.tsv"
        pos.write_text("a\tNN\nd\tVM\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["posstats", "--ranked", f"huge={ranked}", "--pos-lexicon", pos,
                    "--use-frequency", "--out", out]) == 1
        assert "source huge:" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_flag_exits_1(self, tmp_path, capsys, demo_args, value):
        out = tmp_path / "out"
        assert run(["posstats", "--ranked", demo_args["ranked"][0], f"--threshold={value}",
                    "--pos-lexicon", data_path("demo_pos_lexicon.tsv"), "--out", out]) == 1
        assert "--threshold must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_threshold_from_config_exits_1(self, tmp_path, capsys, demo_args, literal):
        config = tmp_path / "cfg.json"
        config.write_text(f'{{"threshold": {literal}}}', encoding="utf-8")
        out = tmp_path / "out"
        assert run(["--config", config, "posstats", "--ranked", demo_args["ranked"][0],
                    "--pos-lexicon", data_path("demo_pos_lexicon.tsv"), "--out", out]) == 1
        assert "--threshold must be a finite number" in capsys.readouterr().err
        assert not out.exists()


class TestAssessCommand:
    def test_self_mapping_full_coverage(self, tmp_path, demo_args):
        mapping = tmp_path / "map.tsv"
        mapping.write_text("a\tका\nb\tहै\n", encoding="utf-8")
        listfile = tmp_path / "list.txt"
        listfile.write_text("का\nहै\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["assess", "--mapping", mapping, "--list", listfile,
                    "--out", out]) == 0
        payload = json.loads((out / "coverage.json").read_text())
        assert payload["coverage_ratio"] == 1.0

    def test_bundled_replay(self, tmp_path):
        out = tmp_path / "out"
        assert run(["assess",
                    "--mapping", data_path("english_hindi_mapping.tsv"),
                    "--lexicon", data_path("demo_lexicon.tsv"),
                    "--list", data_path("table5_stoplemmas.txt"),
                    "--out", out]) == 0
        payload = json.loads((out / "coverage.json").read_text())
        assert payload["mapped_lemma_count"] == 74
        assert payload["misses"] == ["जरूर"]

    def test_list_entries_collapse_inner_whitespace(self, tmp_path):
        mapping = tmp_path / "map.tsv"
        mapping.write_text("of the\tका है\n", encoding="utf-8")
        listfile = tmp_path / "list.txt"
        listfile.write_text("का  है\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["assess", "--mapping", mapping, "--list", listfile, "--out", out]) == 0
        assert json.loads((out / "coverage.json").read_text())["hit_count"] == 1


class TestConfigFile:
    def test_config_supplies_options_and_flags_win(self, tmp_path, demo_args):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "corpus": [demo_args["corpus"]],
            "lexicon": str(demo_args["lexicon"]),
            "out": str(tmp_path / "from_config"),
        }), encoding="utf-8")
        assert run(["--config", config, "freq"]) == 0
        assert (tmp_path / "from_config" / "lemmas_demo.tsv").exists()

        # an explicit --out beats the config value
        assert run(["--config", config, "freq", "--out", tmp_path / "cli_wins"]) == 0
        assert (tmp_path / "cli_wins" / "lemmas_demo.tsv").exists()

    def test_missing_required_option_reports_error(self, tmp_path):
        assert run(["freq", "--out", tmp_path / "out"]) == 1

    def test_string_values_go_through_the_option_type(self, tmp_path, demo_args):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"k": "3", "ranked": demo_args["ranked"]}),
                          encoding="utf-8")
        out = tmp_path / "out"
        assert run(["--config", config, "overlap", "--out", out]) == 0
        assert json.loads((out / "overlap_report.json").read_text())["k"] == 3
        assert json.loads((out / "provenance.json").read_text())["parameters"]["k"] == 3

    def test_bool_flag_from_config(self, tmp_path, demo_args):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"keep-symbols": True}), encoding="utf-8")
        out = tmp_path / "out"
        assert run(["--config", config, "freq", "--corpus", demo_args["corpus"],
                    "--out", out]) == 0
        assert json.loads((out / "provenance.json").read_text())["parameters"]["keep_symbols"]

    @pytest.mark.parametrize("key, value", [
        ("depth", "three"),
        ("depth", 2.5),
        ("depth", True),
        ("threshold", "high"),
        ("use_frequency", "yes"),
        ("ranked", "a=a.tsv"),
        ("ranked", [1, 2]),
        ("out", 7),
        ("pos_lexicon", 7),  # --pos-lexicon is given as a flag too
    ])
    def test_bad_value_exits_1_naming_the_key(self, tmp_path, capsys, demo_args, key, value):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        # every other option comes as a flag; a flag does not excuse a bad config value
        flags = {"ranked": demo_args["ranked"][:3], "out": [tmp_path / "out"],
                 "pos-lexicon": [data_path("demo_pos_lexicon.tsv")]}
        flags.pop(key, None)
        argv = [a for name, values in flags.items() for v in values for a in ("--" + name, v)]
        assert run(["--config", config, "posstats", *argv]) == 1
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_a_repeatable_flag_replaces_the_config_list(self, tmp_path, demo_args):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"ranked": demo_args["ranked"][:2]}), encoding="utf-8")
        out = tmp_path / "out"
        given = demo_args["ranked"][2:4]
        assert run(["--config", config, "overlap", "--ranked", given[0], "--ranked", given[1],
                    "--out", out]) == 0
        assert json.loads((out / "provenance.json").read_text())["parameters"]["ranked"] == given


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["freq", "--bogus"],
        [],
        ["overlap", "--k", "abc"],
    ], ids=["unknown-flag", "no-subcommand", "non-int-k"])
    def test_exit_1_with_an_error_line(self, capsys, argv):
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("error: stoplemma")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        assert "usage: stoplemma" in capsys.readouterr().out


class TestIdPathSpecs:
    def test_repeated_id_exits_1(self, tmp_path, capsys, demo_args):
        other = tmp_path / "corpus"
        other.mkdir()
        (other / "a.txt").write_text("घर", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["freq", "--corpus", demo_args["corpus"].replace("demo=", "a="),
                    "--corpus", f"a={other}", "--out", out]) == 1
        assert "--corpus ID 'a' is given more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ident", ["a/b", ".", "..", "../up", "a\0b"])
    def test_id_that_is_not_a_plain_file_name_exits_1(self, tmp_path, capsys, demo_args, ident):
        corpus = demo_args["corpus"].partition("=")[2]
        out = tmp_path / "out"
        assert run(["freq", "--corpus", f"x={corpus}", "--corpus", f"{ident}={corpus}",
                    "--out", out]) == 1
        assert f"--corpus ID must be a plain file name, got {ident!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["ranked-repeated", "stoplist-slash"])
    def test_every_id_path_option_is_checked(self, tmp_path, capsys, demo_args, kind):
        ranked, stoplist = demo_args["ranked"][0], demo_args["stoplists"][0]
        argv = {
            "ranked-repeated": ["overlap", "--ranked", ranked, "--ranked", ranked],
            "stoplist-slash": ["induce", "--stoplist", "s/" + stoplist,
                               "--corpus", demo_args["corpus"]],
        }[kind]
        assert run([*argv, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err.startswith(f"error: --{kind.split('-')[0]} ID")
        assert not (tmp_path / "out").exists()


class TestNoPartialOutput:
    def test_an_id_too_long_for_a_file_name_leaves_no_out(self, tmp_path, capsys, demo_args):
        corpus = demo_args["corpus"].partition("=")[2]
        assert run(["freq", "--corpus", f"ok={corpus}", "--corpus", f"{'x' * 250}={corpus}",
                    "--out", tmp_path / "out"]) == 1
        assert "File name too long" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_a_failing_writer_changes_no_out(self, tmp_path, monkeypatch, demo_args):
        out = tmp_path / "out"
        argv = ["freq", "--corpus", demo_args["corpus"], "--out", out]

        def full_disk(tables, path):
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        monkeypatch.setattr(freq_mod, "write_report", full_disk)
        assert run(argv) == 1
        assert list(tmp_path.iterdir()) == []
        # an existing --out keeps every file a run does not write; a failed run changes none
        out.mkdir()
        (out / "keep.txt").write_text("keep", encoding="utf-8")
        (out / "words_demo.tsv").write_text("stale", encoding="utf-8")
        assert run(argv) == 1
        assert tree_bytes(out) == {"keep.txt": b"keep", "words_demo.tsv": b"stale"}
        assert len(list(out.iterdir())) == 2
        monkeypatch.undo()
        assert run(argv) == 0
        tree = tree_bytes(out)
        assert tree["keep.txt"] == b"keep"
        assert tree["words_demo.tsv"] != b"stale"
        assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("option, source", [
    *((option, source) for option in ("lexicon", "out", "pos-lexicon", "mapping", "list")
      for source in ("flag", "config")),
    ("config", "flag"),
])
def test_an_empty_path_exits_1_naming_the_option(tmp_path, monkeypatch, capsys, demo_args,
                                                 option, source):
    ranked = ["--ranked", demo_args["ranked"][0]]
    argv = {
        "lexicon": ["freq", "--corpus", demo_args["corpus"]],
        "out": ["overlap", *ranked],
        "pos-lexicon": ["posstats", *ranked],
        "mapping": ["assess", "--list", data_path("table5_stoplemmas.txt")],
        "list": ["assess", "--mapping", data_path("english_hindi_mapping.tsv")],
        "config": ["freq", "--corpus", demo_args["corpus"]],
    }[option]
    if option != "out":
        argv += ["--out", tmp_path / "out"]
    if source == "flag":
        argv = [f"--{option}", "", *argv] if option == "config" else [*argv, f"--{option}", ""]
        named = f"--{option}"
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({option: ""}), encoding="utf-8")
        argv = ["--config", tmp_path / "cfg.json", *argv]
        named = repr(option)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert run(argv) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert list(cwd.iterdir()) == []


class TestUnreadableInputs:
    def test_out_names_an_existing_file(self, tmp_path, capsys, demo_args):
        out = tmp_path / "out"
        out.write_text("keep", encoding="utf-8")
        assert run(["overlap", "--ranked", demo_args["ranked"][0],
                    "--ranked", demo_args["ranked"][1], "--out", out]) == 1
        assert str(out) in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == "keep"

    @pytest.mark.parametrize("option", ["--lexicon", "--config"])
    def test_directory_as_input_file(self, tmp_path, capsys, demo_args, option):
        folder = tmp_path / "folder"
        folder.mkdir()
        argv = ["freq", "--corpus", demo_args["corpus"], "--out", tmp_path / "out"]
        argv = [*argv, option, folder] if option == "--lexicon" else [option, folder, *argv]
        assert run(argv) == 1
        assert str(folder) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["lexicon", "stoplist", "ranked", "pos-lexicon",
                                      "mapping", "list"])
    def test_invalid_utf8_names_path_and_line(self, tmp_path, capsys, demo_args, kind):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"# comment\n\xff\t1\n")
        ranked = ["--ranked", demo_args["ranked"][0]]
        argv = {
            "lexicon": ["freq", "--corpus", demo_args["corpus"], "--lexicon", bad],
            "stoplist": ["induce", "--stoplist", f"s={bad}", "--corpus", demo_args["corpus"]],
            "ranked": ["overlap", *ranked, "--ranked", f"bad={bad}"],
            "pos-lexicon": ["posstats", *ranked, "--pos-lexicon", bad],
            "mapping": ["assess", "--mapping", bad, "--list", data_path("table5_stoplemmas.txt")],
            "list": ["assess", "--mapping", data_path("english_hindi_mapping.tsv"), "--list", bad],
        }[kind]
        assert run([*argv, "--out", tmp_path / "out"]) == 1
        assert f"{bad}:2: invalid UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def outputs_but_provenance(out):
    return {name: data for name, data in tree_bytes(out).items() if name != "provenance.json"}


@pytest.mark.parametrize("command", ["freq", "induce"])
@pytest.mark.parametrize("sidecar", [
    b"file\ttitle\na.txt\tx\n",
    "file\ttitle\tauthor\tgender\tstate\tyear\n"
    f"a.txt\t{'क' * 131073}\tलेखक\tfemale\tराज्य\t1950\n".encode(),
    b"file\ttitle\tauthor\tgender\tstate\tyear\na.txt\t\xff\t\tmale\t\t\n",
], ids=["bad-header", "oversized-cell", "invalid-utf8"])
def test_freq_and_induce_ignore_a_malformed_metadata_tsv(tmp_path, demo_args, command, sidecar):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_text("राम घर गया। वह घर में है।", encoding="utf-8")
    argv = [command, "--corpus", f"c={corpus}", "--lexicon", demo_args["lexicon"]]
    if command == "induce":
        argv += ["--stoplist", demo_args["stoplists"][0]]
    assert run([*argv, "--out", tmp_path / "plain"]) == 0
    (corpus / "metadata.tsv").write_bytes(sidecar)
    assert run([*argv, "--out", tmp_path / "with_sidecar"]) == 0
    assert outputs_but_provenance(tmp_path / "with_sidecar") == \
        outputs_but_provenance(tmp_path / "plain")


def _with_note(name, lead):
    """A bundled record file's records, with a ``#`` line first or after the first record."""
    records = [line for line in data_path(name).read_text(encoding="utf-8").splitlines()
               if not line.startswith("#")]
    records.insert(0 if lead == "comment" else 1, "# note")
    return "\n".join(records) + "\n"


def _bom_inputs(path, demo_args, lead):
    """Each input kind: its text without a BOM, and argv of a command reading it from ``path``."""
    ranked = [a for r in demo_args["ranked"] for a in ("--ranked", r)]
    corpus = ["--corpus", demo_args["corpus"]]
    lexicon = ["--lexicon", demo_args["lexicon"]]
    return {
        "lexicon": (_with_note("demo_lexicon.tsv", lead), ["freq", *corpus, "--lexicon", path]),
        "stoplist": (_with_note("demo_stoplists/list1.txt", lead),
                     ["induce", "--stoplist", f"s={path}", *corpus, *lexicon]),
        "list": (_with_note("table5_stoplemmas.txt", lead),
                 ["assess", "--mapping", data_path("english_hindi_mapping.tsv"), "--list", path,
                  *lexicon]),
        "mapping": (_with_note("english_hindi_mapping.tsv", lead),
                    ["assess", "--mapping", path, "--list", data_path("table5_stoplemmas.txt"),
                     *lexicon]),
        "pos-lexicon": (_with_note("demo_pos_lexicon.tsv", lead),
                        ["posstats", *ranked, "--pos-lexicon", path]),
        "ranked": (_with_note("table3_top10/LR12.tsv", lead),
                   ["overlap", "--ranked", f"first={path}", *ranked[2:], "--k", "3"]),
        "config": (json.dumps({"k": 3}), ["--config", path, "overlap", *ranked]),
    }


@pytest.mark.parametrize("kind, lead", [
    *((kind, lead) for kind in ("lexicon", "stoplist", "list", "mapping", "pos-lexicon", "ranked")
      for lead in ("comment", "record")),
    ("config", "json"),
])
def test_leading_bom_changes_no_output(tmp_path, demo_args, kind, lead):
    """A BOM before the first line, a comment or a record, is dropped from every input file."""
    text, argv = _bom_inputs(tmp_path / "input", demo_args, lead)[kind]
    trees = []
    for prefix in ("", "\ufeff"):
        (tmp_path / "input").write_text(prefix + text, encoding="utf-8")
        out = tmp_path / f"out{len(trees)}"
        assert run([*argv, "--out", out]) == 0
        trees.append(outputs_but_provenance(out))
    assert trees[0] == trees[1]


def test_pos_lexicon_giving_an_item_two_tags_exits_1(tmp_path, capsys, demo_args):
    pos = tmp_path / "pos.tsv"
    pos.write_text("का\tPSP\nका\tNN\n", encoding="utf-8")
    assert run(["posstats", *[a for r in demo_args["ranked"] for a in ("--ranked", r)],
                "--pos-lexicon", pos, "--out", tmp_path / "out"]) == 1
    assert f"{pos}:2:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_corpus_hash_covers_only_its_documents(tmp_path):
    corpus = tmp_path / "c"
    shutil.copytree(data_path("demo_corpus"), corpus)
    out = corpus / "out"  # from the second run on, the corpus folder holds --out

    def provenance():
        assert run(["freq", "--corpus", f"d={corpus}", "--out", out]) == 0
        return (out / "provenance.json").read_bytes()

    first = provenance()
    assert provenance() == first
    (corpus / "notes.md").write_text("not a document\n", encoding="utf-8")
    assert json.loads(provenance())["inputs"] == json.loads(first)["inputs"]
    (corpus / "extra.txt").write_text("घर\n", encoding="utf-8")
    assert json.loads(provenance())["inputs"] != json.loads(first)["inputs"]


@pytest.mark.parametrize("inner", ["out", ".", "docs/../out"])
def test_induce_out_inside_a_corpus_exits_1(tmp_path, capsys, demo_args, inner):
    corpus = tmp_path / "c"
    shutil.copytree(data_path("demo_corpus"), corpus)
    before = tree_bytes(corpus)
    stoplists = [a for s in demo_args["stoplists"] for a in ("--stoplist", s)]
    assert run(["induce", *stoplists, "--corpus", f"c={corpus}",
                "--out", f"{corpus}/{inner}"]) == 1
    assert "--out" in capsys.readouterr().err
    assert tree_bytes(corpus) == before


def test_provenance_names_inputs(tmp_path, demo_args):
    out = tmp_path / "out"
    assert run(["freq", "--corpus", demo_args["corpus"],
                "--lexicon", demo_args["lexicon"], "--out", out]) == 0
    block = json.loads((out / "provenance.json").read_text())
    assert block["command"] == "freq"
    assert str(demo_args["lexicon"]) in block["inputs"]
    for digest in block["inputs"].values():
        assert len(digest) == 64


# Run in a fresh interpreter: this process may have imported scipy already.
_NO_SCIPY_SCRIPT = """
import sys
from pathlib import Path
from stoplemma import data_path
from stoplemma.cli import main

out = Path(sys.argv[1])
corpus = f"demo={data_path('demo_corpus')}"
lexicon = str(data_path("demo_lexicon.tsv"))
ranked = [a for p in sorted(data_path("table3_top10").glob("*.tsv"))
          for a in ("--ranked", f"{p.stem}={p}")]
stoplists = [a for i in (1, 2, 3)
             for a in ("--stoplist", f"l{i}={data_path('demo_stoplists', f'list{i}.txt')}")]
codes = [
    main(["freq", "--corpus", corpus, "--lexicon", lexicon, "--out", str(out / "freq")]),
    main(["induce", *stoplists, "--corpus", corpus, "--lexicon", lexicon,
          "--out", str(out / "induce")]),
    main(["overlap", *ranked, "--out", str(out / "overlap")]),
    main(["assess", "--mapping", str(data_path("english_hindi_mapping.tsv")),
          "--lexicon", lexicon, "--list", str(data_path("table5_stoplemmas.txt")),
          "--out", str(out / "assess")]),
]
assert codes == [0, 0, 0, 0], codes
assert "scipy" not in sys.modules, "scipy was imported"
"""


def test_only_posstats_imports_scipy(tmp_path):
    src = Path(stoplemma.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert {p.name for p in tmp_path.iterdir()} == {"freq", "induce", "overlap", "assess"}
