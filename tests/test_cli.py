import ast
import builtins
import errno
import gc
import hashlib
import io
import json
import os
import pickle
import random
import re
import shutil
import subprocess
import sys
import threading
from collections import Counter
from itertools import accumulate
from pathlib import Path

import pytest

import stoplemma
from stoplemma import cli
from stoplemma import corpus as corpus_mod
from stoplemma import data_path
from stoplemma import freq as freq_mod
from stoplemma import induce as induce_mod
from stoplemma import lemma as lemma_mod
from stoplemma.cli import COMMANDS, IDS, REQUIRED, SWITCH, main
from test_golden import COMMANDS as GOLDEN_COMMANDS, GOLDEN
from test_golden import tree_digest as golden_digest


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
        policy = FilterPolicy(keep_symbols=True, keep_latin_words=True)
        lex = load_lexicon(demo_args["lexicon"])
        for ident, root in [("hash", corpus), ("demo", data_path("demo_corpus"))]:
            words = count_words(load_corpus(root), policy)
            assert read_ranked_tsv(out / f"words_{ident}.tsv") == rank_items(words.counts)
            assert read_ranked_tsv(out / f"lemmas_{ident}.tsv") == rank_items(lemma_table(words, lex).counts)
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
        from stoplemma.freq import count_words, lemma_table
        from stoplemma.induce import build_final_list, build_set_a, build_set_b, load_stopword_list
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
            load_stopword_list(data_path("demo_stoplists", f"list{i}.txt"))
            for i in (1, 2, 3)
        ]
        table = lemma_table(count_words(load_corpus(data_path("demo_corpus"))), lex)
        set_a = build_set_a(lists, lex, k=20)
        set_b = build_set_b([table.counts], k=20)
        expected = build_final_list(set_a, set_b, [table.counts])
        got = (out / "stoplemmas.txt").read_text(encoding="utf-8").split()
        assert got == [l for l, _ in expected.entries]

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

    def test_report_totals_count_lines_and_distinct_entries(self, tmp_path, demo_args):
        # raw counts every entry line, in-file duplicates too; deduped counts the
        # distinct whitespace-normalized entries of all lists
        first = tmp_path / "first.txt"
        first.write_text("का\nकी  तरह\nका\nकी तरह\nहै\n", encoding="utf-8")
        second = tmp_path / "second.txt"
        second.write_text("है\nघर\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["induce", "--stoplist", f"a={first}", "--stoplist", f"b={second}",
                    "--corpus", demo_args["corpus"], "--out", out]) == 0
        report = json.loads((out / "induction_report.json").read_text())
        assert (report["raw_word_total"], report["deduped_word_total"]) == (7, 4)


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
        assert report["short_sources"] == []
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

    def test_a_list_in_reverse_rank_order_exits_1_naming_the_line(self, tmp_path, capsys):
        up, down = tmp_path / "up.tsv", tmp_path / "down.tsv"
        up.write_text("a\t1\nb\t5\nc\t9\n", encoding="utf-8")
        down.write_text("a\t9\nb\t5\nc\t1\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["overlap", "--ranked", f"up={up}", "--ranked", f"down={down}",
                    "--k", "1", "--out", out]) == 1
        assert f"{up}:2: 'b' is out of rank order" in capsys.readouterr().err
        assert not out.exists()

    def test_a_list_shorter_than_k_is_named_in_short_sources(self, tmp_path, demo_args):
        short = tmp_path / "short.tsv"
        short.write_text("का\t2\nहै\t1\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["overlap", "--ranked", demo_args["ranked"][0], "--ranked", f"short={short}",
                    "--k", "5", "--out", out]) == 0
        report = json.loads((out / "overlap_report.json").read_text())
        assert report["short_sources"] == ["short"]


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
        assert f"argument --depth: must be >= 1, got {depth}" in capsys.readouterr().err
        assert not out.exists()

    def test_depth_past_every_list_is_recorded_as_the_longest_list(self, tmp_path, demo_args):
        # posstats.json's depth is the entries correlated per source, not the --depth given
        argv = ["posstats", *[a for r in demo_args["ranked"] for a in ("--ranked", r)],
                "--pos-lexicon", data_path("demo_pos_lexicon.tsv")]
        assert run([*argv, "--out", tmp_path / "all"]) == 0
        assert run([*argv, "--depth", "1000", "--out", tmp_path / "deep"]) == 0
        assert (tmp_path / "deep" / "posstats.json").read_bytes() == (tmp_path / "all" / "posstats.json").read_bytes()

    def test_use_frequency_runs(self, tmp_path, demo_args):
        argv = ["posstats", *[a for r in demo_args["ranked"] for a in ("--ranked", r)],
                "--pos-lexicon", data_path("demo_pos_lexicon.tsv"), "--use-frequency",
                "--out", tmp_path / "out"]
        assert run(argv) == 0

    def test_a_group_that_splits_the_counts_has_r_1_and_p_0(self, tmp_path):
        ranked = tmp_path / "r.tsv"
        ranked.write_text("क\t5\nख\t5\nग\t1\nघ\t1\n", encoding="utf-8")
        pos = tmp_path / "pos.tsv"
        pos.write_text("क\tNN\nख\tNN\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["posstats", "--ranked", f"s={ranked}", "--pos-lexicon", pos, "--use-frequency",
                    "--out", out]) == 0
        cells = json.loads((out / "posstats.json").read_text())["cells"]
        assert [(c["r"], c["p"]) for c in cells if c["group"] == "NN/NNP/NNPC"] == [(1.0, 0.0)]

    @pytest.mark.parametrize("counts, pos_lexicon", [
        (["9" * 200, "5", "3", "1"], "a\tNN\nd\tVM\n"),  # its square overflows
        (["9" * 400, "5", "3", "1"], "a\tNN\nd\tVM\n"),  # no float holds it
        (["9" + "0" * 307] * 3 + ["1"], "a\tNN\nd\tVM\n"),  # each fits, their sum is inf
        # no float holds it, and no entry is tagged: the count fails before any
        # cell is flagged for constant membership
        (["9" * 400, "5", "3", "1"], "z\tNN\n"),
    ], ids=["counts0", "counts1", "counts2", "counts1-untagged"])
    def test_count_too_large_for_use_frequency_exits_1(self, tmp_path, capsys, counts,
                                                        pos_lexicon):
        ranked = tmp_path / "r.tsv"
        ranked.write_text("".join(f"{item}\t{c}\n" for item, c in zip("abcd", counts)),
                          encoding="utf-8")
        pos = tmp_path / "pos.tsv"
        pos.write_text(pos_lexicon, encoding="utf-8")
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

    def test_no_mapped_lemma_leaves_the_ratio_undefined(self, tmp_path):
        mapping = tmp_path / "map.tsv"
        mapping.write_text("being\t!\nthereof\t!\n", encoding="utf-8")
        listfile = tmp_path / "list.txt"
        listfile.write_text("का\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["assess", "--mapping", mapping, "--list", listfile, "--out", out]) == 0
        payload = json.loads((out / "coverage.json").read_text())
        assert payload["coverage_ratio"] is None
        assert payload["mapped_lemma_count"] == 0
        assert payload["misses"] == []
        assert (out / "coverage.txt").read_text(encoding="utf-8").endswith("coverage: undefined\n")

    def test_a_repeated_line_counts_its_word_once(self, tmp_path):
        mapping = tmp_path / "map.tsv"
        mapping.write_text("being\t!\nmust\tजरूर\nbeing\t!\nmust\tजरूर\n", encoding="utf-8")
        listfile = tmp_path / "list.txt"
        listfile.write_text("जरूर\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["assess", "--mapping", mapping, "--list", listfile, "--out", out]) == 0
        payload = json.loads((out / "coverage.json").read_text())
        assert (payload["external_total"], payload["untranslatable_count"]) == (2, 1)

    def test_a_word_with_no_targets_exits_1(self, tmp_path, capsys):
        mapping = tmp_path / "map.tsv"
        mapping.write_text("the\t, ,\n", encoding="utf-8")
        listfile = tmp_path / "list.txt"
        listfile.write_text("का\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["assess", "--mapping", mapping, "--list", listfile, "--out", out]) == 1
        assert f"{mapping}:1: no targets for 'the'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lines", ["a\tवह\na\t!\n", "a\t!\na\tवह\n"],
                             ids=["mapped-first", "untranslatable-first"])
    def test_a_word_both_mapped_and_untranslatable_exits_1(self, tmp_path, capsys, lines):
        mapping = tmp_path / "map.tsv"
        mapping.write_text(lines, encoding="utf-8")
        listfile = tmp_path / "list.txt"
        listfile.write_text("वह\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["assess", "--mapping", mapping, "--list", listfile, "--out", out]) == 1
        assert f"{mapping}:2:" in capsys.readouterr().err
        assert not out.exists()


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
        assert f"{config}: config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_a_key_of_no_subcommand_exits_1(self, tmp_path, capsys, demo_args):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"lexcon": str(demo_args["lexicon"])}), encoding="utf-8")
        out = tmp_path / "out"
        assert run(["--config", config, "freq", "--corpus", demo_args["corpus"], "--out", out]) == 1
        err = capsys.readouterr().err
        assert f"{config}: config key 'lexcon'" in err
        assert not out.exists()

    def test_a_key_of_another_subcommand_is_ignored(self, tmp_path, demo_args):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"k": 3, "depth": 4}), encoding="utf-8")
        out = tmp_path / "out"
        assert run(["--config", config, "freq", "--corpus", demo_args["corpus"], "--out", out]) == 0
        assert "k" not in json.loads((out / "provenance.json").read_text())["parameters"]

    @pytest.mark.parametrize("command, text, message", [
        ("overlap", '{"k": 3, "k": 5}', "config key 'k' is given more than once"),
        ("induce", '{"k-a": 3, "k_a": 5}', "config keys 'k-a' and 'k_a' name the same option"),
    ])
    def test_an_option_given_twice_exits_1_naming_the_key(self, tmp_path, capsys, demo_args,
                                                          command, text, message):
        config = tmp_path / "cfg.json"
        config.write_text(text, encoding="utf-8")
        inputs = {"overlap": ["--ranked", demo_args["ranked"][0], "--ranked", demo_args["ranked"][1]],
                  "induce": ["--corpus", demo_args["corpus"], "--stoplist", demo_args["stoplists"][0]]}
        out = tmp_path / "out"
        assert run(["--config", config, command, *inputs[command], "--out", out]) == 1
        assert f"{config}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        # lexicon is no overlap option, so its value is ignored unread
        ('{"lexicon": {"a-b": 1, "a_b": 2}}', "input path(s) not found: x, y"),
        ('{"k": {"x": 1, "x": 1}}', "config key 'k': invalid value {'x': 1} for --k"),
    ], ids=["ignored-key", "option-key"])
    def test_keys_are_unique_at_the_top_level_only(self, tmp_path, capsys, text, message):
        config = tmp_path / "cfg.json"
        config.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert run(["--config", config, "overlap", "--ranked", "a=x", "--ranked", "b=y", "--out", out]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ['[{"k": 3}]', "3", "null"])
    def test_a_config_that_is_not_an_object_exits_1(self, tmp_path, capsys, demo_args, text):
        config = tmp_path / "cfg.json"
        config.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        ranked = [a for r in demo_args["ranked"][:2] for a in ("--ranked", r)]
        assert run(["--config", config, "overlap", *ranked, "--out", out]) == 1
        assert f"{config}: config must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("failure", ["report", "second corpus"])
    def test_a_failing_writer_changes_no_out(self, tmp_path, tmp_path_factory, monkeypatch, demo_args, failure):
        out = tmp_path / "out"
        argv = ["freq", "--corpus", demo_args["corpus"], "--out", out]

        def full_disk(rows, path):
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        bad = tmp_path_factory.mktemp("bad") / "a.txt"
        if failure == "report":
            monkeypatch.setattr(freq_mod, "write_report", full_disk)
        else:  # the first corpus's tables are staged before the second fails
            bad.write_bytes(b"\xff not UTF-8\n")
            argv[3:3] = ["--corpus", f"bad={bad.parent}"]
            staged, load = [], corpus_mod.load_corpus

            def load_corpus(root):
                staged.append(sorted(p.name for p in tmp_path.rglob(".stoplemma-*/*")))
                return load(root)

            monkeypatch.setattr(corpus_mod, "load_corpus", load_corpus)
        assert run(argv) == 1
        assert list(tmp_path.iterdir()) == []
        # an existing --out keeps every file a run does not write; a failed run changes none
        out.mkdir()
        (out / "keep.txt").write_text("keep", encoding="utf-8")
        (out / "words_demo.tsv").write_text("stale", encoding="utf-8")
        assert run(argv) == 1
        assert tree_bytes(out) == {"keep.txt": b"keep", "words_demo.tsv": b"stale"}
        assert len(list(out.iterdir())) == 2
        assert list(tmp_path.rglob(".stoplemma-*")) == []
        if failure == "second corpus":
            assert staged == [[], ["lemmas_demo.tsv", "words_demo.tsv"]] * 2
        monkeypatch.undo()
        bad.write_text("घर\n", encoding="utf-8")
        assert run(argv) == 0
        tree = tree_bytes(out)
        assert tree["keep.txt"] == b"keep"
        assert tree["words_demo.tsv"] != b"stale"
        assert list(tmp_path.iterdir()) == [out]

    def test_an_out_under_missing_folders(self, tmp_path, monkeypatch, demo_args):
        (tmp_path / "keep.txt").write_text("keep", encoding="utf-8")
        out = tmp_path / "a" / "b" / "out"
        argv = ["freq", "--corpus", demo_args["corpus"], "--out", out]

        def full_disk(rows, path):
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        # the staging folder is made in tmp_path, the nearest existing ancestor, and removed
        monkeypatch.setattr(freq_mod, "write_report", full_disk)
        assert run(argv) == 1
        assert list(tmp_path.rglob("*")) == [tmp_path / "keep.txt"]
        assert tree_bytes(tmp_path) == {"keep.txt": b"keep"}
        monkeypatch.undo()
        assert run(argv) == 0
        assert (out / "freq_report.json").is_file()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "keep.txt"]
        assert [p.name for p in (tmp_path / "a").iterdir()] == ["b"]

    def test_a_folder_under_an_output_name_changes_no_out(self, tmp_path, capsys, demo_args):
        out = tmp_path / "out"
        (out / "provenance.json").mkdir(parents=True)
        (out / "words_demo.tsv").write_text("old", encoding="utf-8")
        names = sorted(out.rglob("*"))
        assert run(["freq", "--corpus", demo_args["corpus"], "--out", out]) == 1
        assert str(out / "provenance.json") in capsys.readouterr().err
        assert sorted(out.rglob("*")) == names
        assert tree_bytes(out) == {"words_demo.tsv": b"old"}


class LiveRecords:
    """How many records of one class that tracked calls returned are still alive.

    CPython frees an object when its last reference goes.  A record is a tuple,
    which cannot be weakly referenced, so a finalizer set on the record class
    drops each tracked record as it is freed: alive = built - freed.
    """

    def __init__(self, monkeypatch, cls):
        self.live = set()  # the ids of tracked records not yet freed
        monkeypatch.setattr(cls, "__del__", lambda record: self.live.discard(id(record)), raising=False)

    def track(self, fn):
        """``fn``, with each record it returns tracked."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.live.add(id(result))
            return result
        return wrapper

    def __len__(self):
        return len(self.live)


def log_corpus_loads(monkeypatch, log):
    """Patch ``load_corpus`` so that each load, as it begins, appends ``PID ALIVE`` to ``log``: the process
    that loads and how many of the corpora it loaded before are still alive.  Forked induce workers inherit
    the patch, and the file gathers their lines too."""
    sources = LiveRecords(monkeypatch, corpus_mod.CorpusSource)
    load = sources.track(corpus_mod.load_corpus)

    def load_corpus(*args, **kwargs):
        with log.open("a") as fh:
            fh.write(f"{os.getpid()} {len(sources)}\n")
        return load(*args, **kwargs)

    monkeypatch.setattr(corpus_mod, "load_corpus", load_corpus)


def read_loads(log):
    """The ``(pid, alive)`` pairs in ``log``, which is then removed."""
    loads = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    log.unlink()
    return loads


class TestOneCorpusAndOneRankedTableAtATime:
    """``LiveRecords`` shows which corpora and ranked lists are still alive."""

    @staticmethod
    def corpora(tmp_path):
        argv = []
        for i in range(3):
            root = tmp_path / f"c{i}"
            root.mkdir()
            (root / "a.txt").write_text("का है घर\n" * (i + 1), encoding="utf-8")
            argv += ["--corpus", f"c{i}={root}"]
        return argv

    def loads(self, tmp_path, monkeypatch, demo_args, command):
        log_corpus_loads(monkeypatch, tmp_path / "loads.log")
        stoplist = ["--stoplist", demo_args["stoplists"][0]] if command == "induce" else []
        assert run([command, *stoplist, *self.corpora(tmp_path), "--out", tmp_path / "out"]) == 0
        return read_loads(tmp_path / "loads.log")

    @pytest.mark.parametrize("command", ["freq", "induce"])
    def test_each_corpus_is_freed_before_the_next_one_loads(self, tmp_path, monkeypatch, demo_args, command):
        assert [alive for _, alive in self.loads(tmp_path, monkeypatch, demo_args, command)] == [0, 0, 0]

    def test_induce_on_one_cpu_loads_each_corpus_in_process_after_the_last_is_freed(self, tmp_path, monkeypatch,
                                                                                  demo_args):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert self.loads(tmp_path, monkeypatch, demo_args, "induce") == [(os.getpid(), 0)] * 3

    def test_induce_in_a_process_with_other_threads_loads_each_corpus_in_process(self, tmp_path, monkeypatch,
                                                                                demo_args):
        # a forked worker would hold only the calling thread, and any lock another thread held at the fork
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            loads = self.loads(tmp_path, monkeypatch, demo_args, "induce")
        finally:
            release.set()
            other.join(60)
        assert not other.is_alive()
        assert loads == [(os.getpid(), 0)] * 3

    def test_induce_without_fork_loads_each_corpus_in_process(self, tmp_path, monkeypatch, demo_args):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        log_corpus_loads(monkeypatch, tmp_path / "loads.log")
        out = tmp_path / "out"
        argv = ["induce", "--stoplist", demo_args["stoplists"][0], *self.corpora(tmp_path), "--out", out]
        assert run(argv) == 0
        assert os.getpid() not in {pid for pid, _ in read_loads(tmp_path / "loads.log")}
        pooled = tree_bytes(out)
        shutil.rmtree(out)
        monkeypatch.delattr(os, "fork")  # as on Windows, where multiprocessing has no fork context
        assert run(argv) == 0
        assert read_loads(tmp_path / "loads.log") == [(os.getpid(), 0)] * 3
        assert tree_bytes(out) == pooled

    @pytest.mark.parametrize("cpu_count", [1, None, 2])
    def test_induce_without_cpu_affinity_takes_the_cpu_count(self, tmp_path, monkeypatch, demo_args, cpu_count):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        loads = self.loads(tmp_path, monkeypatch, demo_args, "induce")
        if cpu_count == 2:
            assert os.getpid() not in {pid for pid, _ in loads}
        else:  # one CPU, or a count the platform cannot give
            assert loads == [(os.getpid(), 0)] * 3

    def test_freq_frees_each_corpus_tables_before_the_next_one_loads(self, tmp_path, monkeypatch):
        tables, alive = LiveRecords(monkeypatch, freq_mod.FrequencyTable), []
        load = corpus_mod.load_corpus

        def load_corpus(*args, **kwargs):
            alive.append(len(tables))
            return load(*args, **kwargs)

        monkeypatch.setattr(freq_mod, "count_words", tables.track(freq_mod.count_words))
        monkeypatch.setattr(freq_mod, "lemma_table", tables.track(freq_mod.lemma_table))
        monkeypatch.setattr(corpus_mod, "load_corpus", load_corpus)
        assert run(["freq", *self.corpora(tmp_path), "--out", tmp_path / "out"]) == 0
        assert alive == [0, 0, 0]

    def test_freq_holds_one_ranked_table_at_a_time(self, tmp_path, monkeypatch):
        ranked, alive = LiveRecords(monkeypatch, freq_mod.RankedList), []
        write = freq_mod.write_tsv

        def write_tsv(*args, **kwargs):
            alive.append(len(ranked))
            write(*args, **kwargs)

        monkeypatch.setattr(freq_mod, "rank_items", ranked.track(freq_mod.rank_items))
        monkeypatch.setattr(freq_mod, "write_tsv", write_tsv)
        assert run(["freq", *self.corpora(tmp_path), "--out", tmp_path / "out"]) == 0
        assert alive == [1] * 6

    def test_induce_ranks_each_corpus_while_at_most_one_earlier_list_is_alive(self, tmp_path, monkeypatch,
                                                                              demo_args):
        ranked, alive = LiveRecords(monkeypatch, freq_mod.RankedList), []
        rank = ranked.track(induce_mod.rank_items)

        def rank_items(*args, **kwargs):
            alive.append(len(ranked))
            return rank(*args, **kwargs)

        # induce binds rank_items at import, so only a patch on its own namespace reaches it
        monkeypatch.setattr(induce_mod, "rank_items", rank_items)
        assert run(["induce", "--stoplist", demo_args["stoplists"][0], *self.corpora(tmp_path),
                    "--out", tmp_path / "out"]) == 0
        # one ranking per corpus for set B, then the final list's: none outlives its use
        assert alive == [0, 0, 0, 0]


class TestInduceCountsEachCorpusInAWorkerProcess:
    """induce counts its corpora in forked workers, one per usable CPU; with one CPU it counts them in-process."""

    @staticmethod
    def run_on(cpus, argv, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        return run(argv)

    @staticmethod
    def demo_corpora(root):
        """The bundled corpus, then each of its documents as a corpus of its own."""
        argv = ["--corpus", f"demo={data_path('demo_corpus')}"]
        for doc in sorted(data_path("demo_corpus").glob("*.txt")):
            (root / doc.stem).mkdir(parents=True)
            shutil.copy(doc, root / doc.stem)
            argv += ["--corpus", f"{doc.stem}={root / doc.stem}"]
        return argv

    @staticmethod
    def generated_corpora(root):
        """Four corpora drawn from the bundled corpus's tokens, each a tenth the size of the one before,
        so that the later ones finish first."""
        tokens = data_path("demo_corpus", "kahani.txt").read_text(encoding="utf-8").split()
        rng = random.Random(26)
        argv = []
        for i, size in enumerate([200_000, 20_000, 2_000, 200]):
            (root / f"g{i}").mkdir(parents=True)
            words = rng.choices(tokens, cum_weights=list(accumulate(1 / r for r in range(1, len(tokens) + 1))),
                                k=size)
            text = "\n".join(" ".join(words[j:j + 12]) for j in range(0, size, 12))
            (root / f"g{i}" / "a.txt").write_text(text, encoding="utf-8")
            argv += ["--corpus", f"g{i}={root / f'g{i}'}"]
        return argv

    @pytest.mark.parametrize("corpora", ["demo", "generated"])
    @pytest.mark.parametrize("policy", [[], ["--keep-symbols", "--keep-latin-words", "--drop-devanagari-digits"]])
    def test_the_pool_writes_the_bytes_of_the_in_process_run(self, tmp_path, monkeypatch, demo_args, corpora,
                                                             policy):
        corpus_args = (self.demo_corpora if corpora == "demo" else self.generated_corpora)(tmp_path / "in")
        stoplists = [a for spec in demo_args["stoplists"] for a in ("--stoplist", spec)]
        argv = ["induce", *stoplists, *corpus_args, "--lexicon", demo_args["lexicon"], "--k-b", "30", *policy,
                "--out", tmp_path / "out"]
        log_corpus_loads(monkeypatch, tmp_path / "loads.log")
        trees, loaders = [], []
        for cpus in (4, 1):
            assert self.run_on(cpus, argv, monkeypatch) == 0
            trees.append(tree_bytes(tmp_path / "out"))  # provenance.json included
            loaders.append({pid for pid, _ in read_loads(tmp_path / "loads.log")})
            shutil.rmtree(tmp_path / "out")
        assert trees[0] == trees[1]
        assert os.getpid() not in loaders[0]
        assert loaders[1] == {os.getpid()}

    @pytest.mark.parametrize("first_bad", ["invalid-utf8", "no-documents"])
    def test_the_first_bad_corpus_in_argument_order_is_named(self, tmp_path, monkeypatch, capsys, demo_args,
                                                            first_bad):
        good, utf8, empty = tmp_path / "good", tmp_path / "utf8", tmp_path / "empty"
        for folder in good, utf8, empty:
            folder.mkdir()
        (good / "a.txt").write_text("का है घर\n", encoding="utf-8")
        # the bad byte comes last, so the corpus without documents fails sooner
        head = "का है घर\n" * 20_000
        for name in "abcdefgh":
            (utf8 / f"{name}.txt").write_text(head, encoding="utf-8")
        (utf8 / "z.txt").write_bytes(head.encode() + b"\xff\n")
        (empty / "notes.md").write_text("no documents\n", encoding="utf-8")
        bad = [utf8, empty] if first_bad == "invalid-utf8" else [empty, utf8]
        argv = ["induce", "--stoplist", demo_args["stoplists"][0],
                *[a for i, c in enumerate([good, *bad]) for a in ("--corpus", f"c{i}={c}")], "--out", tmp_path / "out"]
        named = (f"{utf8 / 'z.txt'}:20001: invalid UTF-8 at byte offset {len(head.encode())}"
                 if first_bad == "invalid-utf8" else f"no .txt files under {empty}")
        for cpus in (4, 1):
            assert self.run_on(cpus, argv, monkeypatch) == 1
            assert capsys.readouterr().err == f"error: {named}\n"
            assert not (tmp_path / "out").exists()

    def test_an_error_cancels_the_corpora_not_yet_started(self, tmp_path, monkeypatch, demo_args):
        argv = ["induce", "--stoplist", demo_args["stoplists"][0], "--corpus", f"bad={tmp_path / 'bad'}"]
        (tmp_path / "bad").mkdir()  # no documents: it fails at once
        for i in range(8):  # each takes a while to count
            (tmp_path / f"c{i}").mkdir()
            (tmp_path / f"c{i}" / "a.txt").write_text(f"का है घर {i}\n" * 30_000, encoding="utf-8")
            argv += ["--corpus", f"c{i}={tmp_path / f'c{i}'}"]
        log_corpus_loads(monkeypatch, tmp_path / "loads.log")
        assert self.run_on(2, [*argv, "--out", tmp_path / "out"], monkeypatch) == 1
        assert len(read_loads(tmp_path / "loads.log")) < 9

    def test_a_worker_that_dies_exits_1_with_one_error_line(self, tmp_path, monkeypatch, capsys, demo_args):
        parent = os.getpid()

        def die(*args, **kwargs):  # as a worker ends that the out-of-memory killer stops
            assert os.getpid() != parent, "a corpus was counted in-process"
            os._exit(3)

        # forked workers inherit the patch, as they inherit log_corpus_loads's
        monkeypatch.setattr(corpus_mod, "load_corpus", die)
        corpora = self.demo_corpora(tmp_path / "in")[:4]  # two corpora
        argv = ["induce", "--stoplist", demo_args["stoplists"][0], *corpora, "--out", tmp_path / "out"]
        assert self.run_on(2, argv, monkeypatch) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a worker process counting the corpora died: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_the_lexicon_is_never_pickled_to_a_worker(self, tmp_path, monkeypatch, demo_args):
        # workers return word tables, and this process, the only one that holds the lexicon, collapses them
        pickles, reduce = [], lemma_mod.LemmaLexicon.__reduce_ex__

        def counting_reduce(lex, protocol):
            pickles.append(os.getpid())
            return reduce(lex, protocol)

        monkeypatch.setattr(lemma_mod.LemmaLexicon, "__reduce_ex__", counting_reduce)
        log_corpus_loads(monkeypatch, tmp_path / "loads.log")
        corpora = self.demo_corpora(tmp_path / "in")[:4]  # two corpora
        argv = ["induce", "--stoplist", demo_args["stoplists"][0], *corpora, "--lexicon", demo_args["lexicon"],
                "--out", tmp_path / "out"]
        assert self.run_on(2, argv, monkeypatch) == 0
        assert os.getpid() not in {pid for pid, _ in read_loads(tmp_path / "loads.log")}
        assert pickles == []
        pickle.dumps(lemma_mod.load_lexicon(demo_args["lexicon"]))  # the patch sees a pickle
        assert pickles == [os.getpid()]


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

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    @pytest.mark.parametrize("option", ["--lexicon", "--config", "--ranked"])
    def test_a_fifo_as_input_file_exits_1(self, tmp_path, demo_args, option):
        # opening a FIFO for reading waits for a writer, so the run is a process with a timeout
        fifo = tmp_path / "input.fifo"
        os.mkfifo(fifo)
        argv = {
            "--lexicon": ["freq", "--corpus", demo_args["corpus"], "--lexicon", fifo],
            "--config": ["--config", fifo, "freq", "--corpus", demo_args["corpus"]],
            "--ranked": ["overlap", "--ranked", demo_args["ranked"][0], "--ranked", f"f={fifo}"],
        }[option]
        src = Path(stoplemma.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "stoplemma.cli", *map(str, argv), "--out", str(tmp_path / "out")],
                              env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=30)
        assert (proc.returncode, proc.stderr) == (1, f"error: {fifo}: not a regular file\n")
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


@pytest.mark.parametrize("command", ["freq", "induce"])
def test_each_corpus_document_is_opened_once(tmp_path, monkeypatch, demo_args, command):
    # induce counts in-process on one usable CPU, where this process sees the opens
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    nested = tmp_path / "nested"
    (nested / "sub").mkdir(parents=True)
    (nested / "a.txt").write_text("घर है\n", encoding="utf-8")
    (nested / "sub" / "b.txt").write_bytes(b"\xef\xbb\xbf" + "का है\n".encode())
    corpora = [data_path("demo_corpus"), nested]
    opens, real_open = Counter(), io.open

    def counting_open(file, *args, **kwargs):
        if not isinstance(file, int):
            opens[Path(os.fsdecode(file)).resolve()] += 1
        return real_open(file, *args, **kwargs)

    # open() for the builtin name, io.open for pathlib
    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    stoplist = ["--stoplist", demo_args["stoplists"][0]] if command == "induce" else []
    out = tmp_path / "out"
    assert run([command, *stoplist, *(a for i, c in enumerate(corpora) for a in ("--corpus", f"c{i}={c}")),
                "--out", out]) == 0
    documents = {root: sorted(root.rglob("*.txt")) for root in corpora}
    assert {p: opens[p.resolve()] for docs in documents.values() for p in docs} == \
        {p: 1 for docs in documents.values() for p in docs}
    monkeypatch.undo()
    inputs = json.loads((out / "provenance.json").read_text())["inputs"]
    for root, docs in documents.items():
        h = hashlib.sha256()
        for p in docs:
            h.update(os.fsencode(p.relative_to(root)))
            h.update(hashlib.sha256(p.read_bytes()).hexdigest().encode())
        assert inputs[str(root)] == h.hexdigest()


def test_corpus_hash_takes_a_document_name_that_is_not_utf8_as_its_bytes(tmp_path):
    corpus = tmp_path / "c"
    corpus.mkdir()
    docs = {b"a.txt": "घर है\n".encode(), b"\xff.txt": "का है\n".encode()}
    try:
        for name, data in docs.items():
            (corpus / os.fsdecode(name)).write_bytes(data)
    except OSError:
        pytest.skip("the filesystem refuses a file name that is not UTF-8")
    out = tmp_path / "out"
    assert run(["freq", "--corpus", f"c={corpus}", "--out", out]) == 0
    h = hashlib.sha256()
    for name, data in docs.items():  # a.txt sorts first: "a" < "\udcff", the name's str form
        h.update(name + hashlib.sha256(data).hexdigest().encode())
    assert json.loads((out / "provenance.json").read_text())["inputs"][str(corpus)] == h.hexdigest()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_an_option_value_that_is_not_utf8_exits_1_naming_the_flag(tmp_path, monkeypatch, capsys,
                                                                   demo_args, source):
    # an ID holding the lone surrogate that the byte 0xff on a command line, or the
    # escape "\udcff" in a config, decodes to; provenance.json could not hold it
    spec = "\udcff" + demo_args["corpus"]
    out = tmp_path / "out"
    if source == "flag":
        argv = ["freq", "--corpus", spec, "--out", out]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({"corpus": [spec]}), encoding="utf-8")
        argv = ["--config", tmp_path / "cfg.json", "freq", "--out", out]
    monkeypatch.setattr(corpus_mod, "load_corpus", lambda *a, **kw: pytest.fail("a corpus was read"))
    assert run(argv) == 1
    assert f"--corpus value {spec!r} is not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


def test_a_config_file_name_that_is_not_utf8_is_read(tmp_path, demo_args):
    config = tmp_path / "\udcff.json"  # the name b"\xff.json"; provenance.json does not record it
    try:
        config.write_text(json.dumps({"corpus": [demo_args["corpus"]]}), encoding="utf-8")
    except OSError:
        pytest.skip("the filesystem refuses a file name that is not UTF-8")
    assert run(["--config", config, "freq", "--out", tmp_path / "out"]) == 0
    assert (tmp_path / "out" / "words_demo.tsv").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("flag", ["--k-a", "--k-b"])
def test_induce_count_below_one_exits_1_naming_the_flag(tmp_path, monkeypatch, capsys, demo_args,
                                                        flag, source):
    out = tmp_path / "out"
    argv = ["induce", *[a for s in demo_args["stoplists"] for a in ("--stoplist", s)],
            "--corpus", demo_args["corpus"], "--out", out]
    if source == "flag":
        argv += [flag, "0"]
        named = f"argument {flag}: must be >= 1, got 0"
    else:
        key = flag[2:].replace("-", "_")
        (tmp_path / "cfg.json").write_text(json.dumps({key: 0}), encoding="utf-8")
        argv = ["--config", tmp_path / "cfg.json", *argv]
        named = f"config key {key!r}: invalid value 0 for {flag}"
    monkeypatch.setattr(corpus_mod, "load_corpus", lambda *a, **kw: pytest.fail("a corpus was read"))
    assert run(argv) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_a_count_above_sys_maxsize_runs(tmp_path, demo_args):
    huge = str(sys.maxsize + 1)
    ranked = [a for s in demo_args["ranked"] for a in ("--ranked", s)]
    induce = ["induce", *[a for s in demo_args["stoplists"] for a in ("--stoplist", s)],
              "--corpus", demo_args["corpus"], "--lexicon", demo_args["lexicon"]]
    runs = {
        "k-a": [*induce, "--k-a", huge],
        "k-a-1000000": [*induce, "--k-a", "1000000"],
        "k-b": [*induce, "--k-b", huge],
        "k": ["overlap", *ranked, "--k", huge],
        "depth": ["posstats", *ranked, "--pos-lexicon", data_path("demo_pos_lexicon.tsv"),
                  "--depth", huge],
    }
    for name, argv in runs.items():
        assert run([*argv, "--out", tmp_path / name]) == 0, name
    for name in ("stoplemmas.txt", "induction_report.json"):
        assert (tmp_path / "k-a" / name).read_bytes() == (tmp_path / "k-a-1000000" / name).read_bytes()


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


def run_python(*args, cwd=None):
    """A fresh interpreter, which imports the stoplemma under test, run to its end."""
    src = Path(stoplemma.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, args)], cwd=cwd, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


# Run in a fresh interpreter: this process has imported scipy already (see conftest.py).
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
# posstats needs only the t tail of scipy.special, not scipy.stats
code = main(["posstats", *ranked, "--pos-lexicon", str(data_path("demo_pos_lexicon.tsv")),
             "--out", str(out / "posstats")])
assert code == 0, code
assert "scipy.special" in sys.modules, "posstats computed no p-value"
assert "scipy.stats" not in sys.modules, "scipy.stats was imported"
"""


def test_only_posstats_imports_scipy(tmp_path):
    proc = run_python("-c", _NO_SCIPY_SCRIPT, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert {p.name for p in tmp_path.iterdir()} == {"freq", "induce", "overlap", "assess", "posstats"}


_LAZY_POOL_SCRIPT = """
import os
import sys
from stoplemma import data_path
from stoplemma.cli import main

pool_modules = ["concurrent.futures", "multiprocessing"]
def pooled():
    return [m for m in pool_modules if m in sys.modules]
assert not pooled(), "importing the CLI imported a pool module"
out, pooling = sys.argv[1:]  # pooling: the command that this run lets pool
corpora = [a for i in (1, 2) for a in ("--corpus", f"c{i}={data_path('demo_corpus')}")]
ranked = [a for p in sorted(data_path("table3_top10").glob("*.tsv")) for a in ("--ranked", f"{p.stem}={p}")]
argvs = {
    "freq": ["freq", *corpora],
    "overlap": ["overlap", *ranked],
    "assess": ["assess", "--mapping", str(data_path("english_hindi_mapping.tsv")),
               "--list", str(data_path("table5_stoplemmas.txt"))],
    "posstats": ["posstats", *ranked, "--pos-lexicon", str(data_path("demo_pos_lexicon.tsv"))],
    "induce": ["induce", "--stoplist", f"l1={data_path('demo_stoplists', 'list1.txt')}", *corpora],
}
os.sched_getaffinity = lambda pid: {0, 1}  # two usable CPUs on any host
for name in ("freq", "overlap", "assess"):
    assert main([*argvs[name], "--out", f"{out}/{name}"]) == 0
    assert not pooled(), f"{name} imported a pool module"
pool_modules = ["concurrent.futures.process", "multiprocessing"]  # scipy.special imports concurrent.futures
if pooling == "induce":  # posstats pools only with a CPU to spare
    os.sched_getaffinity = lambda pid: {0}
    assert main([*argvs["posstats"], "--out", f"{out}/posstats"]) == 0
    assert not pooled(), "posstats imported a pool module on one CPU"
    os.sched_getaffinity = lambda pid: {0, 1}
assert main([*argvs[pooling], "--out", f"{out}/{pooling}"]) == 0
assert all(m in sys.modules for m in pool_modules), f"{pooling} ran on two CPUs without a pool"
"""


@pytest.mark.parametrize("pooling", ["induce", "posstats"])
def test_only_a_pooled_induce_or_posstats_imports_the_process_pool(tmp_path, pooling):
    # an import at CLI start-up would add to every subcommand's setup time
    proc = run_python("-c", _LAZY_POOL_SCRIPT, tmp_path, pooling)
    assert proc.returncode == 0, proc.stderr
    assert {p.name for p in tmp_path.iterdir()} == {"freq", "overlap", "assess", "posstats", pooling}


_DEV_MODE_POOL_SCRIPT = """
import os
import sys
from stoplemma import data_path
from stoplemma.cli import main

os.sched_getaffinity = lambda pid: {0, 1}  # two usable CPUs on any host
out = sys.argv[1]
corpora = [a for i in (1, 2) for a in ("--corpus", f"c{i}={data_path('demo_corpus')}")]
lexicon = ["--lexicon", str(data_path("demo_lexicon.tsv"))]
stoplist = f"l1={data_path('demo_stoplists', 'list1.txt')}"
assert main(["induce", "--stoplist", stoplist, *corpora, *lexicon, "--out", out + "/induce"]) == 0
assert "multiprocessing" in sys.modules, "induce counted two corpora without a pool"
assert main(["freq", *corpora, *lexicon, "--out", out + "/freq"]) == 0
assert "scipy.special" not in sys.modules, "posstats would not pool"
ranked = [a for p in sorted(data_path("table3_top10").glob("*.tsv")) for a in ("--ranked", f"{p.stem}={p}")]
assert main(["posstats", *ranked, "--pos-lexicon", str(data_path("demo_pos_lexicon.tsv")),
             "--out", out + "/posstats"]) == 0
"""


def test_a_pooled_induce_and_posstats_and_freq_give_no_warning_in_dev_mode(tmp_path):
    # -X dev shows ResourceWarning and the other development-mode warnings, and -W error makes each an error:
    # an unclosed pipe or file, or a fork in a process that runs threads (which Python 3.12 warns of), fails it.
    # A warning raised while an object is finalized only prints to stderr, so stderr must be empty
    proc = run_python("-X", "dev", "-W", "error", "-c", _DEV_MODE_POOL_SCRIPT, tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert {p.name for p in tmp_path.iterdir()} == {"freq", "induce", "posstats"}


# posstats in a fresh interpreter, where scipy is still to import, on two usable CPUs:
# a forked worker reads the inputs.  Prints the exit code, the processes that read
# a ranked list, this one's, and how many children are still alive.
_POSSTATS_POOL_SCRIPT = """
import json
import multiprocessing
import os
import sys
from stoplemma import cli
from stoplemma import freq

readers, read = multiprocessing.SimpleQueue(), freq.read_ranked_tsv
def logged_read(path):  # a forked worker inherits the patch
    readers.put(os.getpid())
    return read(path)
def die(*args):  # as a worker ends that the out-of-memory killer stops
    os._exit(3)

freq.read_ranked_tsv = logged_read
if sys.argv[1] == "die":
    cli._posstats_cells = die  # sent to the worker by name, which the fork gave it
os.sched_getaffinity = lambda pid: {0, 1}  # two usable CPUs on any host
code = cli.main(sys.argv[2:])
pids = set()
while not readers.empty():
    pids.add(readers.get())
print(json.dumps({"code": code, "readers": sorted(pids), "pid": os.getpid(),
                  "children": len(multiprocessing.active_children())}))
"""


def run_pooled_posstats(argv, cwd=None, worker="reads"):
    proc = run_python("-c", _POSSTATS_POOL_SCRIPT, worker, *argv, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    if worker == "reads":
        assert result["readers"] and result["pid"] not in result["readers"], "posstats read its lists in-process"
    assert result["children"] == 0
    return result["code"], proc.stderr


@pytest.mark.parametrize("name", ["posstats", "posstats-frequency"])
def test_a_pooled_posstats_writes_the_golden_tree_as_a_one_cpu_run_does(tmp_path, monkeypatch, name):
    shutil.copytree(data_path(), tmp_path / "data")
    argv = [*GOLDEN_COMMANDS[name], "--out", name]  # as test_golden.py runs it
    assert run_pooled_posstats(argv, cwd=tmp_path) == (0, "")
    pooled = tree_bytes(tmp_path / name)
    shutil.rmtree(tmp_path / name)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert run(argv) == 0
    assert tree_bytes(tmp_path / name) == pooled
    assert golden_digest(tmp_path / name) == GOLDEN[name]


@pytest.mark.parametrize("bad, text", [("ranked", "a\t1\nb\t5\nc\t9\n"), ("pos", "a\tNN\na\tVM\n")])
def test_a_pooled_posstats_input_error_exits_1_as_in_process(tmp_path, capsys, bad, text):
    inputs = {"ranked": tmp_path / "ranked.tsv", "pos": tmp_path / "pos.tsv"}
    inputs["ranked"].write_text("a\t9\nb\t5\nc\t1\n", encoding="utf-8")
    inputs["pos"].write_text("a\tNN\nb\tVM\n", encoding="utf-8")
    inputs[bad].write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    argv = ["posstats", "--ranked", f"r={inputs['ranked']}", "--pos-lexicon", inputs["pos"], "--out", out]
    code, err = run_pooled_posstats(argv)
    assert code == 1
    assert err.startswith(f"error: {inputs[bad]}:2: ") and err.count("\n") == 1
    assert not out.exists()
    assert run(argv) == 1  # in this process, which has imported scipy
    assert capsys.readouterr().err == err


def test_a_posstats_worker_that_dies_exits_1(tmp_path, demo_args):
    out = tmp_path / "out"
    argv = ["posstats", *[a for r in demo_args["ranked"] for a in ("--ranked", r)],
            "--pos-lexicon", data_path("demo_pos_lexicon.tsv"), "--out", out]
    code, err = run_pooled_posstats(argv, worker="die")
    assert code == 1
    assert err.startswith("error: a worker process reading the ranked lists died: ")
    assert err.count("\n") == 1
    assert not out.exists()


def scaled_argvs(root, scale):
    """Each subcommand's argv, less --out, over the bundled inputs ×``scale``: each corpus holds every
    demo document ``scale`` times, each line file is its text ``scale`` times over, and each ranked
    list is given under ``scale`` IDs.  induce and freq get two corpora, so that induce can pool."""
    root.mkdir()
    corpus = root / "corpus"
    corpus.mkdir()
    for doc in sorted(data_path("demo_corpus").glob("*.txt")):
        for i in range(scale):
            shutil.copyfile(doc, corpus / f"{i}_{doc.name}")

    def lines(*parts):
        path = root / parts[-1]
        path.write_text(data_path(*parts).read_text(encoding="utf-8") * scale, encoding="utf-8")
        return path

    corpora = [a for ident in ("c1", "c2") for a in ("--corpus", f"{ident}={corpus}")]
    lexicon = ["--lexicon", lines("demo_lexicon.tsv")]
    ranked = [a for p in sorted(data_path("table3_top10").glob("*.tsv")) for i in range(scale)
              for a in ("--ranked", f"{p.stem}_{i}={p}")]
    stoplists = [a for i in (1, 2, 3) for a in ("--stoplist", f"l{i}={lines('demo_stoplists', f'list{i}.txt')}")]
    return {
        "freq": ["freq", *corpora, *lexicon],
        "induce": ["induce", *stoplists, *corpora, *lexicon],
        "overlap": ["overlap", *ranked],
        "posstats": ["posstats", *ranked, "--pos-lexicon", lines("demo_pos_lexicon.tsv")],
        "assess": ["assess", "--mapping", lines("english_hindi_mapping.tsv"),
                   "--list", lines("table5_stoplemmas.txt"), *lexicon],
    }


@pytest.fixture
def collector():
    """Puts the cyclic GC back as it was, enabled or not, after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("command", list(COMMANDS))
def test_a_run_leaves_as_much_cyclic_garbage_on_four_times_the_input(tmp_path, monkeypatch, collector, command):
    # cli.run() switches the collector off for the whole process, which is safe only while the garbage
    # that nothing but the collector frees stays bounded, whatever the size of the inputs.  Only this
    # process's garbage is counted; freq and this process's posstats run the workers' functions in-process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)  # induce counts in a pool
    pools, pool = [], cli._worker_pool
    monkeypatch.setattr(cli, "_worker_pool", lambda workers, task: pools.append(workers) or pool(workers, task))
    argvs = {scale: scaled_argvs(tmp_path / f"x{scale}", scale)[command] for scale in (1, 4)}
    found = []
    for n, scale in enumerate((1, 1, 4)):  # the first run pays the garbage of the one-time imports
        gc.collect()
        gc.disable()
        assert run([*argvs[scale], "--out", tmp_path / f"out{n}"]) == 0
        found.append(gc.collect())
        gc.enable()
    assert found[1] == found[2], found
    # posstats pools only while scipy is still to import, which conftest.py has imported
    assert pools == ([2] * 3 if command == "induce" else [])


_GC_COUNT_SCRIPT = """
import gc
gc.disable()
import os
import sys
from stoplemma import cli

os.sched_getaffinity = lambda pid: {0, 1}  # two usable CPUs on any host
code = cli.main(sys.argv[1:])
print(code, gc.collect(), "concurrent.futures.process" in sys.modules)
"""


def test_a_pooled_posstats_leaves_as_much_cyclic_garbage_on_four_times_the_input(tmp_path):
    # a fresh interpreter per scale, as posstats pools only while scipy is still to import; each count
    # includes the garbage of every import, which is the same at both scales
    printed = []
    for scale in (1, 4):
        argv = scaled_argvs(tmp_path / f"x{scale}", scale)["posstats"]
        proc = run_python("-c", _GC_COUNT_SCRIPT, *argv, "--out", tmp_path / f"out{scale}")
        assert proc.returncode == 0, proc.stderr
        printed.append(proc.stdout)
    code, found, pooled = printed[0].split()
    assert (code, pooled) == ("0", "True")
    assert printed[1] == printed[0]


def test_main_leaves_the_collector_of_its_caller_as_it_was(tmp_path, monkeypatch, collector):
    # only cli.run(), the process entry, switches the collector off and freezes it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    argvs = scaled_argvs(tmp_path / "in", 1)
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        for name, argv in argvs.items():
            frozen = gc.get_freeze_count()
            assert run([*argv, "--out", tmp_path / f"{name}-{enabled}"]) == 0
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen), name


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_the_installed_script_calls_the_function_that_python_m_calls():
    import tomllib
    root = Path(__file__).resolve().parents[1]
    script = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]["scripts"]["stoplemma"]
    module, _, function = script.partition(":")
    assert module == cli.__name__
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    (block,) = [node.body for node in tree.body
                if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(stmt) for stmt in block] == [f"sys.exit({function}())"]
    assert callable(getattr(cli, function))


@pytest.mark.parametrize("case", ["compute error", "input error"])
def test_python_m_exits_with_one_error_line(tmp_path, case):
    ranked, pos = tmp_path / "r.tsv", tmp_path / "pos.tsv"
    ranked.write_text("का\t2\nहै\t1\n", encoding="utf-8")  # two entries: every cell fails n >= 3
    pos.write_text("का\tPSP\n", encoding="utf-8")
    missing = tmp_path / "missing.tsv"
    code, message, lexicon = {
        "compute error": (2, "correlation undefined for every (group, source) cell", pos),
        "input error": (1, f"input path(s) not found: {missing}", missing),
    }[case]
    out = tmp_path / "out"
    proc = run_python("-m", "stoplemma.cli", "posstats", "--ranked", f"a={ranked}", "--pos-lexicon", lexicon,
                      "--out", out)
    assert (proc.returncode, proc.stderr) == (code, f"error: {message}\n")
    assert not out.exists()


_DEV_MODE_ENTRY_SCRIPT = """
import gc
import os
import sys
from stoplemma import cli

os.sched_getaffinity = lambda pid: {0, 1}  # two usable CPUs on any host
code = cli.run()  # on the arguments that follow the script
assert "concurrent.futures.process" in sys.modules, "the run used no pool"
assert not gc.isenabled() and gc.get_freeze_count() > 0, "the run left the collector on or unfrozen"
sys.exit(code)
"""


@pytest.mark.parametrize("command", ["induce", "posstats"])
def test_a_pooled_run_through_the_process_entry_gives_no_warning_in_dev_mode(tmp_path, command):
    # as test_a_pooled_induce_and_posstats_and_freq_give_no_warning_in_dev_mode, through cli.run(),
    # so that the shutdown of a frozen process is checked too
    argv = scaled_argvs(tmp_path / "in", 1)[command]
    proc = run_python("-X", "dev", "-W", "error", "-c", _DEV_MODE_ENTRY_SCRIPT, *argv, "--out", tmp_path / "out")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "out" / "provenance.json").is_file()


def test_cli_import_skips_dataclasses_and_inspect():
    # the records are named tuples; dataclasses would import inspect, ast, dis and tokenize at every start-up.
    # Only what the import adds counts, since a .pth file in site-packages may import them itself
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import stoplemma.cli\n"
              "added = {'dataclasses', 'inspect'} & (set(sys.modules) - before)\n"
              "assert not added, f'importing the CLI imported {sorted(added)}'\n")
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_skips_importlib_resources():
    # -S: without site, since a .pth file in site-packages may import the module itself
    src = Path(stoplemma.__file__).resolve().parents[1]
    script = ("import sys, stoplemma.cli\n"
              "assert 'importlib.resources' not in sys.modules, 'importlib.resources was imported'\n")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# one valid value per declared option, other than its default; "out" is relative to the run's folder
OPTION_VALUES = {
    "--corpus": [f"demo={data_path('demo_corpus')}"],
    "--lexicon": str(data_path("demo_lexicon.tsv")),
    "--keep-symbols": True,
    "--keep-latin-words": True,
    "--keep-latin-numbers": True,
    "--drop-devanagari-digits": True,
    "--out": "out",
    "--stoplist": [f"l{i}={data_path('demo_stoplists', f'list{i}.txt')}" for i in (1, 2, 3)],
    "--k-a": 50,
    "--k-b": 40,
    "--ranked": [f"{p.stem}={p}" for p in sorted(data_path("table3_top10").glob("*.tsv"))],
    "--k": 3,
    "--pos-lexicon": str(data_path("demo_pos_lexicon.tsv")),
    "--depth": 8,
    "--threshold": 0.25,
    "--use-frequency": True,
    "--mapping": str(data_path("english_hindi_mapping.tsv")),
    "--list": str(data_path("table5_stoplemmas.txt")),
}


def _as_flag(flag, kind, value):
    if kind is SWITCH:
        return [flag]
    values = value if kind is IDS else [value]
    return [a for v in values for a in (flag, str(v))]


@pytest.mark.parametrize("command, option", [
    (command, option) for command, (_, _, options) in COMMANDS.items() for option in options
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_flag_and_config_give_the_same_run(tmp_path, monkeypatch, command, option):
    flag, kind, default, _ = option
    value = OPTION_VALUES[flag]
    assert value != default
    required = [a for f, k, d, _ in COMMANDS[command][2] if d is REQUIRED and f != flag
                for a in _as_flag(f, k, OPTION_VALUES[f])]
    (tmp_path / "cfg.json").write_text(json.dumps({flag[2:]: value}), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    trees = []
    for argv in ([command, *required, *_as_flag(flag, kind, value)],
                 ["--config", "cfg.json", command, *required]):
        assert run(argv) == 0
        trees.append(tree_bytes(tmp_path / "out"))
        shutil.rmtree(tmp_path / "out")
    assert trees[0] == trees[1]
    assert json.loads(trees[0]["provenance.json"])["parameters"][flag[2:].replace("-", "_")] == value


@pytest.mark.parametrize("command", COMMANDS)
def test_help_documents_every_option(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag, *_ in COMMANDS[command][2]:
        # the flag, its metavar if any, then help on the same line or the next
        assert re.search(rf"^  {re.escape(flag)}(?: [A-Z_=]+)?\s{{2,}}[^-\s]", text, re.M), flag


def _input_paths(flag, kind, value):
    """The input paths an option names: each PATH of an ID=PATH option, or a path option's value."""
    if kind is IDS:
        return [spec.partition("=")[2] for spec in value]
    # every other str value in OPTION_VALUES is a path; --out is the one that names no input
    return [value] if isinstance(value, str) and flag != "--out" else []


@pytest.mark.parametrize("command", COMMANDS)
def test_provenance_hashes_every_input_path(tmp_path, monkeypatch, command):
    options = COMMANDS[command][2]
    monkeypatch.chdir(tmp_path)
    argv = [a for flag, kind, _, _ in options for a in _as_flag(flag, kind, OPTION_VALUES[flag])]
    assert run([command, *argv]) == 0
    expected = {p for flag, kind, _, _ in options for p in _input_paths(flag, kind, OPTION_VALUES[flag])}
    assert set(json.loads((tmp_path / "out" / "provenance.json").read_text())["inputs"]) == expected


@pytest.mark.parametrize("command, option", [
    (command, option) for command, (_, _, options) in COMMANDS.items() for option in options
    if _input_paths(*option[:2], OPTION_VALUES[option[0]])
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_a_missing_input_path_exits_1_naming_it(tmp_path, capsys, monkeypatch, command, option):
    flag, kind, _, _ = option
    missing = str(tmp_path / "missing")
    required = [a for f, k, d, _ in COMMANDS[command][2] if d is REQUIRED and f != flag
                for a in _as_flag(f, k, OPTION_VALUES[f])]
    monkeypatch.chdir(tmp_path)
    assert run([command, *required, *_as_flag(flag, kind, [f"x={missing}"] if kind is IDS else missing)]) == 1
    assert f"input path(s) not found: {missing}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
