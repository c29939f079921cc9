"""End-to-end acceptance checks for the toolkit.

Each test covers one numbered acceptance criterion and prints a single
``[criterion N] PASS``/``FAIL`` line on the real stdout so the verdicts are
visible even under pytest's output capture.
"""

import contextlib
import json
import random
import re
import resource
import shutil
import sys
import time
import unicodedata
from collections import Counter

import mpmath
import numpy as np
import pytest

from reference import filter_tokens, normalize_text, tokenize
from stoplemma import data_path
from stoplemma.cli import main
from stoplemma.freq import count_words, lemma_table, merge_counts
from stoplemma.induce import (
    aggregate_lemma_counts,
    build_final_list,
    build_set_a,
    build_set_b,
    load_stopword_list,
)
from stoplemma.assess import coverage_summary, load_mapping
from stoplemma.lemma import LemmaLexicon, load_lexicon
from stoplemma.normalize import FilterPolicy
from stoplemma.stats import UndefinedCorrelationError, point_biserial, top_k_overlap
from stoplemma.freq import count_document_words, read_ranked_tsv
from test_freq import corpus_of


@contextlib.contextmanager
def verdict(number, title):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {title}", file=sys.__stdout__)
        raise
    print(f"[criterion {number}] PASS: {title}", file=sys.__stdout__)


# A synthetic Devanagari vocabulary large enough for the randomized checks.
_SYLLABLES = ["क", "खा", "गि", "घो", "चे", "जु", "टा", "डी", "तो", "धे", "नि", "पा", "बू", "मे", "यो", "रा", "ले", "वी", "सा", "हु"]


def make_vocab(size):
    vocab = []
    base = len(_SYLLABLES)
    for i in range(size):
        rest, a = divmod(i, base)
        c, b = divmod(rest, base)
        vocab.append(_SYLLABLES[a] + _SYLLABLES[b] + _SYLLABLES[c % base])
    assert len(set(vocab)) == size
    return vocab


def test_criterion_1_set_algebra_matches_brute_force(tmp_path):
    with verdict(1, "set algebra equals brute-force recomputation on 100 random instances"):
        rng = random.Random(101)
        start = time.monotonic()
        for _ in range(100):
            vocab = make_vocab(rng.randint(5, 50))
            lex_entries = {
                w: rng.choice(vocab)
                for w in rng.sample(vocab, rng.randint(0, len(vocab)))
            }
            lex = LemmaLexicon(entries=lex_entries)
            lemma_of = lambda w: lex_entries.get(w, w)

            corpora = []
            for c in range(rng.randint(2, 5)):
                texts = [
                    " ".join(rng.choices(vocab, k=rng.randint(1, 500)))
                    for _ in range(rng.randint(1, 3))
                ]
                corpora.append(corpus_of(tmp_path / f"c{c}", *texts))
            stop_lists = [
                Counter(rng.sample(vocab, rng.randint(1, len(vocab))))
                for _ in range(rng.randint(2, 5))
            ]
            k = rng.randint(1, 30)

            tables = [lemma_table(count_words(c), lex).counts for c in corpora]
            got_a = build_set_a(stop_lists, lex, k=k)
            got_b = build_set_b(tables, k=k)
            agg = aggregate_lemma_counts(tables)
            got_final = build_final_list(got_a, got_b, tables)

            # independent brute force, plain dict/sort arithmetic only
            want_a = set()
            for sl in stop_lists:
                want_a |= {lemma_of(w) for w in list(sl)[:k]}
            want_b = set()
            want_agg = {}
            for c in corpora:
                counts = {}
                for text in (d.file.read_text(encoding="utf-8") for d in c.documents):
                    for word in text.split():
                        lemma = lemma_of(word)
                        counts[lemma] = counts.get(lemma, 0) + 1
                        want_agg[lemma] = want_agg.get(lemma, 0) + 1
                ordered = sorted(counts, key=lambda w: (-counts[w], w))
                want_b |= set(ordered[:k])
            want_final = sorted(want_a & want_b, key=lambda w: (-want_agg[w], w))

            assert got_a == want_a
            assert got_b == want_b
            assert agg == want_agg
            assert [l for l, _ in got_final.entries] == want_final
            assert dict(got_final.entries) == {l: want_agg[l] for l in want_final}
        assert time.monotonic() - start < 10.0


def test_criterion_2_point_biserial_equals_pearson():
    with verdict(2, "point-biserial matches Pearson (1e-12) and an independent t p-value (1e-9)"):
        rng = random.Random(202)
        mpmath.mp.dps = 40
        for _ in range(1000):
            n = rng.randint(3, 500)
            while True:
                membership = [rng.randint(0, 1) for _ in range(n)]
                if 0 < sum(membership) < n:
                    break
            ranks = [float(r) for r in range(1, n + 1)]
            rng.shuffle(ranks)
            r, p = point_biserial(membership, ranks)
            pearson = np.corrcoef(membership, ranks)[0, 1]
            assert abs(r - pearson) <= 1e-12
            # independent two-tailed p: regularized incomplete beta of the
            # t distribution, P(|T| > t) = I_{df/(df+t^2)}(df/2, 1/2)
            df = n - 2
            t = abs(r) * mpmath.sqrt(df / (1 - mpmath.mpf(r) ** 2))
            p_ref = mpmath.betainc(
                mpmath.mpf(df) / 2, mpmath.mpf(1) / 2,
                0, df / (df + t**2), regularized=True,
            )
            assert abs(p - float(p_ref)) <= 1e-9
        with pytest.raises(UndefinedCorrelationError):
            point_biserial([1, 1, 1, 1], [1, 2, 3, 4])
        with pytest.raises(UndefinedCorrelationError):
            point_biserial([1, 0, 1], [5, 5, 5])


def test_criterion_3_reference_list_facts():
    with verdict(3, "bundled reference list: 311 entries, starts with का, has है, lacks जरूर"):
        lemmas = list(load_stopword_list(data_path("table5_stoplemmas.txt")))
        assert len(lemmas) == 311
        assert lemmas[0] == "का"
        assert "है" in lemmas
        assert "जरूर" not in lemmas


def test_criterion_4_overlap_replay():
    with verdict(4, "eight bundled top-10 rows: max overlap count 8, 18 unique lemmas"):
        lists = {p.stem: read_ranked_tsv(p) for p in sorted(data_path("table3_top10").glob("*.tsv"))}
        counts = top_k_overlap(lists, k=10)
        assert len(lists) == 8
        assert max(counts.values()) == 8
        assert len(counts) == 18


def test_criterion_5_coverage_replay():
    with verdict(5, "coverage replay: 74 mapped lemmas, miss exactly जरूर, ratio 73/74; identity self-coverage 1.0"):
        mapping = load_mapping(data_path("english_hindi_mapping.tsv"))
        lex = load_lexicon(data_path("demo_lexicon.tsv"))
        stop = set(load_stopword_list(data_path("table5_stoplemmas.txt")))
        summary = coverage_summary(mapping, lex, stop)
        assert summary["mapped_lemma_count"] == 74
        assert summary["misses"] == ["जरूर"]
        assert summary["coverage_ratio"] == pytest.approx(73 / 74)

        identity = {l: (l,) for l in stop}
        assert coverage_summary(identity, lex, stop)["coverage_ratio"] == 1.0


def test_criterion_6_normalization_and_filtering():
    with verdict(6, "filtered output never carries ASCII letters/digits; normalization idempotent; Devanagari runs unsplit"):
        rng = random.Random(606)
        ascii_pattern = re.compile(r"[A-Za-z0-9]")
        pools = [
            (0x0020, 0x007E), (0x0900, 0x097F), (0x00A0, 0x024F),
            (0x2000, 0x206F), (0x0966, 0x096F), (0x4E00, 0x4E80),
        ]
        for _ in range(10_000):
            chars = []
            for _ in range(rng.randint(0, 40)):
                lo, hi = rng.choice(pools)
                chars.append(chr(rng.randint(lo, hi)))
            raw = "".join(chars)
            text = normalize_text(raw)
            assert normalize_text(text) == text
            kept = filter_tokens(tokenize(text), FilterPolicy())
            for token in kept:
                assert not ascii_pattern.search(token.surface)

        word_chars = (
            [chr(c) for c in range(0x0900, 0x0964)]
            + [chr(c) for c in range(0x0966, 0x0980)]
            + ["‌", "‍"]
        )
        for _ in range(2_000):
            word = "".join(rng.choices(word_chars, k=rng.randint(1, 25)))
            tokens = tokenize(normalize_text(word))
            assert len(tokens) == 1
            assert tokens[0].surface == normalize_text(word)


def test_criterion_7_counting_laws(tmp_path):
    with verdict(7, "merge additivity, lemma/word total conservation, unique-lemma bound on 100 random pairs"):
        rng = random.Random(707)
        for _ in range(100):
            vocab = make_vocab(rng.randint(3, 30))
            texts = [
                " ".join(rng.choices(vocab, k=rng.randint(0, 300)))
                for _ in range(rng.randint(1, 5))
            ]
            corpus = corpus_of(tmp_path, *texts)
            lex = LemmaLexicon(entries={
                w: rng.choice(vocab)
                for w in rng.sample(vocab, rng.randint(0, len(vocab)))
            })
            words = count_words(corpus)
            merged = merge_counts(count_document_words([d]) for d in corpus.documents)
            assert words.counts == dict(merged)
            lemmas = lemma_table(words, lex)
            assert lemmas.total_tokens == words.total_tokens
            assert lemmas.unique_count <= words.unique_count


def test_criterion_8_cli_determinism(tmp_path):
    with verdict(8, "every command run twice yields byte-identical output trees"):
        corpus = f"demo={data_path('demo_corpus')}"
        lexicon = str(data_path("demo_lexicon.tsv"))
        ranked = [
            arg
            for p in sorted(data_path("table3_top10").glob("*.tsv"))
            for arg in ("--ranked", f"{p.stem}={p}")
        ]
        stoplists = [
            arg
            for i in (1, 2, 3)
            for arg in ("--stoplist", f"l{i}={data_path('demo_stoplists', f'list{i}.txt')}")
        ]
        commands = {
            "freq": ["freq", "--corpus", corpus, "--lexicon", lexicon],
            "induce": ["induce", *stoplists, "--corpus", corpus, "--lexicon", lexicon],
            "overlap": ["overlap", *ranked, "--k", "10"],
            "posstats": ["posstats", *ranked, "--pos-lexicon", str(data_path("demo_pos_lexicon.tsv"))],
            "assess": [
                "assess", "--mapping", str(data_path("english_hindi_mapping.tsv")),
                "--lexicon", lexicon, "--list", str(data_path("table5_stoplemmas.txt")),
            ],
        }
        for name, argv in commands.items():
            out = tmp_path / name
            trees = []
            for _ in range(2):
                assert main([*argv, "--out", str(out)]) == 0
                trees.append({
                    str(p.relative_to(out)): p.read_bytes()
                    for p in sorted(out.rglob("*")) if p.is_file()
                })
                shutil.rmtree(out)
            assert trees[0] == trees[1], f"{name} output differs between runs"


def test_criterion_9_throughput(tmp_path):
    with verdict(9, "14M-token corpus counted in ≤60 s with ≤2 GB peak memory"):
        rng = random.Random(909)
        vocab = make_vocab(1000)
        weights = [1.0 / (i + 1) for i in range(len(vocab))]
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        total = 14_000_000
        per_doc = total // 7
        for d in range(7):
            with open(corpus_dir / f"doc{d}.txt", "w", encoding="utf-8") as fh:
                written = 0
                while written < per_doc:
                    batch = min(100_000, per_doc - written)
                    fh.write(" ".join(rng.choices(vocab, weights=weights, k=batch)))
                    fh.write("\n")
                    written += batch

        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text(
            "".join(f"{w}\t{vocab[i % 50]}\n" for i, w in enumerate(vocab)),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        start = time.monotonic()
        assert main(["freq", "--corpus", f"big={corpus_dir}",
                     "--lexicon", str(lexicon), "--out", str(out)]) == 0
        elapsed = time.monotonic() - start
        peak_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        report = json.loads((out / "freq_report.json").read_text())
        word_row = next(r for r in report if r["item_kind"] == "word")
        assert word_row["total_tokens"] == 7 * per_doc
        assert elapsed <= 60.0, f"took {elapsed:.1f}s"
        assert peak_bytes <= 2 * 1024**3, f"peak {peak_bytes / 1024**2:.0f} MiB"
