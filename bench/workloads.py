"""Seeded workload inputs, their expected outputs, and the output checks.

Each workload writes its inputs under ``<root>/in`` and its expected outputs
under ``<root>/expected`` from one ``random.Random(seed)``.  The expected
outputs come from the generator's own tally of what it wrote, never from the
program, so a check against them is an independent oracle.  Everything here is
stdlib only, except that ``analyze-ranked`` takes its Pearson reference from
numpy and ``scipy.stats.pearsonr`` (scipy is a dependency of the program).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import statistics
import unicodedata
from collections import Counter
from pathlib import Path

DATA = Path("src/stoplemma/data")


def nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


def generator_hash() -> str:
    """Key of the input cache: inputs are rebuilt when this file changes."""
    return hashlib.sha256(Path(__file__).read_bytes()).hexdigest()


def tree_digest(path: Path) -> str:
    """SHA-256 over the relative path and bytes of every file under ``path``."""
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            rel = p.relative_to(path).as_posix().encode()
            h.update(len(rel).to_bytes(8, "big") + rel)
            data = p.read_bytes()
            h.update(len(data).to_bytes(8, "big") + data)
    return h.hexdigest()


def ranked_text(counts: dict[str, int]) -> str:
    """The ``item<TAB>count`` file ``freq`` writes: count desc, codepoint ties."""
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return "".join(f"{item}\t{n}\n" for item, n in ordered)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_json(path: Path, obj) -> None:
    _write(path, json.dumps(obj, ensure_ascii=False, sort_keys=True))


def _lines(tokens: list[str], per_line: int) -> str:
    return "".join(" ".join(tokens[i:i + per_line]) + "\n"
                   for i in range(0, len(tokens), per_line))


def _compare_text(label: str, got_path: Path, want_path: Path, errors: list[str]) -> None:
    if not got_path.is_file():
        errors.append(f"{label}: {got_path} missing")
        return
    got = got_path.read_text(encoding="utf-8")
    want = want_path.read_text(encoding="utf-8")
    if got == want:
        return
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for i, (g, w) in enumerate(itertools.zip_longest(got_lines, want_lines), start=1):
        if g != w:
            errors.append(f"{label}: line {i} is {g!r}, expected {w!r}")
            return
    errors.append(f"{label}: differs from the expected text")


def _compare_json(label: str, got_path: Path, want_path: Path, errors: list[str]) -> None:
    if not got_path.is_file():
        errors.append(f"{label}: {got_path} missing")
        return
    got = json.loads(got_path.read_text(encoding="utf-8"))
    want = json.loads(want_path.read_text(encoding="utf-8"))
    if got != want:
        errors.append(f"{label}: {got} differs from expected {want}")


# -- vocabularies ------------------------------------------------------------

# The acceptance suite's criterion-9 vocabulary, copied so the benchmark does
# not import tests/.
_SYLLABLES = ["क", "खा", "गि", "घो", "चे", "जु", "टा", "डी", "तो", "धे",
              "नि", "पा", "बू", "मे", "यो", "रा", "ले", "वी", "सा", "हु"]


def make_vocab(size: int) -> list[str]:
    vocab = []
    base = len(_SYLLABLES)
    for i in range(size):
        rest, a = divmod(i, base)
        c, b = divmod(rest, base)
        vocab.append(_SYLLABLES[a] + _SYLLABLES[b] + _SYLLABLES[c % base])
    return vocab


# Consonant + optional vowel sign.  Every syllable starts with exactly one
# consonant, so concatenations parse uniquely and distinct syllable sequences
# are distinct words; none of these codepoints is changed by NFC.
_CONSONANTS = [chr(c) for c in range(0x0915, 0x093A) if c not in (0x0929, 0x0931, 0x0934)]
_VOWEL_SIGNS = ["", "ा", "ि", "ी", "ु", "ू", "े", "ै", "ो", "ौ"]
_WIDE_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWEL_SIGNS]


def wide_word(index: int, syllables: int) -> str:
    base = len(_WIDE_SYLLABLES)
    parts = []
    for _ in range(syllables):
        index, digit = divmod(index, base)
        parts.append(_WIDE_SYLLABLES[digit])
    return "".join(parts)


def wide_vocab(rng: random.Random, size: int, syllables: int) -> list[str]:
    space = len(_WIDE_SYLLABLES) ** syllables
    return [wide_word(i, syllables) for i in rng.sample(range(space), size)]


# -- workloads ---------------------------------------------------------------

class Workload:
    name = ""

    def generate(self, rng: random.Random, root: Path) -> None:
        """Write inputs under root/in and expected outputs under root/expected."""
        raise NotImplementedError

    def commands(self, root: Path) -> list[list[str]]:
        """CLI argv lists, one process each, in order; paths relative to the checkout."""
        raise NotImplementedError

    def input_files(self, root: Path) -> list[Path]:
        """Every input file the run reads, once per subcommand that reads it."""
        raise NotImplementedError

    def check(self, root: Path) -> list[str]:
        """Compare root/out with root/expected; return the mismatches found."""
        raise NotImplementedError


def _files_under(paths) -> list[Path]:
    out = []
    for p in paths:
        p = Path(p)
        out.extend(sorted(q for q in p.rglob("*") if q.is_file()) if p.is_dir() else [p])
    return out


class InduceZipf(Workload):
    """``induce`` over several Zipf corpora drawn from the criterion-9 vocabulary."""

    name = "induce-zipf"
    corpora = 4
    docs = 3
    tokens_per_doc = 320_000
    per_line = 20
    stoplists = 3
    k_a = 40
    k_b = 25

    def generate(self, rng, root):
        vocab = make_vocab(1000)
        cum = list(itertools.accumulate(1.0 / (i + 1) for i in range(len(vocab))))
        lemma_of = {w: vocab[i % 50] for i, w in enumerate(vocab)}
        indir = root / "in"
        per_corpus = []
        for c in range(self.corpora):
            tally: Counter = Counter()
            for d in range(self.docs):
                ids = rng.choices(range(len(vocab)), cum_weights=cum, k=self.tokens_per_doc)
                tally.update(ids)
                _write(indir / f"c{c}" / f"doc{d}.txt", _lines([vocab[i] for i in ids], self.per_line))
            lemmas: Counter = Counter()
            for i, n in tally.items():
                lemmas[lemma_of[vocab[i]]] += n
            per_corpus.append(lemmas)
        _write(indir / "lexicon.tsv", "".join(f"{w}\t{l}\n" for w, l in lemma_of.items()))

        # Stop lists mix vocabulary words with words no corpus contains, and
        # carry a comment line and an in-file duplicate like published lists.
        outsiders = wide_vocab(rng, 40, 2)
        set_a: set[str] = set()
        raw_total = 0
        distinct: set[str] = set()
        for s in range(self.stoplists):
            entries = rng.sample(vocab[:300], 50) + rng.sample(outsiders, 10)
            rng.shuffle(entries)
            raw = entries + [entries[3]]
            raw_total += len(raw)
            distinct.update(entries)
            _write(indir / f"stop{s}.txt", f"# stop list {s}\n" + "".join(e + "\n" for e in raw))
            set_a |= {lemma_of.get(e, e) for e in entries[:self.k_a]}

        set_b: set[str] = set()
        aggregate: Counter = Counter()
        for lemmas in per_corpus:
            ranked = sorted(lemmas, key=lambda l: (-lemmas[l], l))
            set_b.update(ranked[:self.k_b])
            aggregate.update(lemmas)
        final = sorted(set_a & set_b, key=lambda l: (-aggregate[l], l))
        _write(root / "expected" / "stoplemmas.txt", "".join(l + "\n" for l in final))
        _write_json(root / "expected" / "induction_report.json", {
            "raw_word_total": raw_total,
            "deduped_word_total": len(distinct),
            "set_a_size": len(set_a),
            "set_b_size": len(set_b),
            "final_size": len(final),
        })

    def commands(self, root):
        indir = root / "in"
        argv = ["induce"]
        for s in range(self.stoplists):
            argv += ["--stoplist", f"l{s}={indir / f'stop{s}.txt'}"]
        for c in range(self.corpora):
            argv += ["--corpus", f"c{c}={indir / f'c{c}'}"]
        argv += ["--lexicon", str(indir / "lexicon.tsv"),
                 "--k-a", str(self.k_a), "--k-b", str(self.k_b),
                 "--out", str(root / "out" / "induce")]
        return [argv]

    def input_files(self, root):
        indir = root / "in"
        return _files_under([indir / f"stop{s}.txt" for s in range(self.stoplists)]
                            + [indir / f"c{c}" for c in range(self.corpora)]
                            + [indir / "lexicon.tsv"])

    def check(self, root):
        errors: list[str] = []
        out, want = root / "out" / "induce", root / "expected"
        _compare_text("stoplemmas.txt", out / "stoplemmas.txt",
                      want / "stoplemmas.txt", errors)
        _compare_json("induction_report.json", out / "induction_report.json",
                      want / "induction_report.json", errors)
        return errors


# Token forms for freq-longtail beyond plain words: each raw form and the
# surfaces the default FilterPolicy must keep from it, stated by construction.
def _longtail_extras(rng: random.Random, words: list[str]) -> list[tuple[str, list[str]]]:
    def pick(n):
        return rng.sample(words, n)

    extras: list[tuple[str, list[str] | None]] = []
    extras += [(w + rng.choice(["\u0964", "\u0965"]), [w]) for w in pick(3000)]  # danda attached
    extras += [(f"({w}),", [w]) for w in pick(500)]                               # punctuation
    extras += [(w + "?", [w]) for w in pick(500)]
    extras += [(a + "\u00a0" + b, [a, b]) for a, b in zip(pick(1000), pick(1000))]  # NBSP
    extras += [(w + "\u094d\u200d" + rng.choice(_CONSONANTS), None) for w in pick(500)]  # ZWJ
    extras += [(w + "\u094d\u200c" + rng.choice(_CONSONANTS), None) for w in pick(500)]  # ZWNJ
    for i in range(300):
        tail = wide_word(rng.randrange(len(_WIDE_SYLLABLES) ** 2), 2)
        vowel = rng.choice(_VOWEL_SIGNS[1:])
        # न + nukta composes to U+0929 under NFC: write it both ways
        extras.append(("\u0928\u093c" + vowel + tail, None))
        extras.append(("\u0929" + vowel + tail, None))
        # U+0958..U+095F are composition exclusions: NFC decomposes them
        extras.append((chr(0x0958 + i % 8) + vowel + tail, None))
    latin = ["Delhi", "the", "of", "India", "and", "Hindi", "Unicode", "is", "a", "to"]
    extras += [(rng.choice(latin) + "".join(rng.choices("abcdefghij", k=i % 4)), [])
               for i in range(300)]                                                 # Latin words
    extras += [(str(rng.randrange(10 ** rng.randint(1, 6))), []) for _ in range(300)]  # ASCII numbers
    deva_digits = "\u0966\u0967\u0968\u0969\u096a\u096b\u096c\u096d\u096e\u096f"
    extras += [("".join(rng.choices(deva_digits, k=rng.randint(1, 4))), None)
               for _ in range(200)]                                                 # Devanagari numbers
    extras += [(rng.choice(deva_digits) + str(rng.randrange(10)), []) for _ in range(50)]  # mixed digits
    extras += [(str(rng.randrange(10)) + rng.choice(deva_digits), []) for _ in range(50)]
    extras += [(w + rng.choice("sxy"), []) for w in pick(100)]                     # Latin letter in a run
    extras += [(s, []) for s in ["-", "\u2014", "\u0964", "\u0965", ",", "\"", "\u2026", "*"]]  # bare symbols
    # None: the NFC form of the raw string is the one surface kept
    return [(raw, [nfc(raw)] if kept is None else kept) for raw, kept in extras]


class FreqLongtail(Workload):
    """``freq`` over two mixed-script corpora with a long, flat tail of types."""

    name = "freq-longtail"
    corpora = 2
    docs = 3
    tokens_per_doc = 85_000
    head_types = 100
    tail_types = 100_000
    per_line = 16

    def generate(self, rng, root):
        head = wide_vocab(rng, self.head_types, 1)
        tail = wide_vocab(rng, self.tail_types, 3)
        extras = _longtail_extras(rng, head + tail)
        forms = [(w, [w]) for w in head] + [(w, [w]) for w in tail] + extras
        # about 40 % head (Zipf), 50 % flat tail, 10 % decorated or dropped forms
        harmonic = sum(1 / (j + 1) for j in range(len(head)))
        weights = ([0.4 / (i + 1) / harmonic for i in range(len(head))]
                   + [0.5 / len(tail)] * len(tail)
                   + [0.1 / len(extras)] * len(extras))
        cum = list(itertools.accumulate(weights))

        # one lexicon entry per generated word: groups of four tail words share
        # a lemma, head words map onto the first ten.  Half the nukta forms get
        # an entry too, in their raw spelling, which the loader must NFC-normalize.
        lexicon: dict[str, str] = {}
        for i, w in enumerate(head):
            lexicon[w] = head[i % 10]
        for i, w in enumerate(tail):
            lexicon[w] = tail[i - i % 4]
        raw_entries = list(lexicon.items())
        for raw, kept in extras:
            if len(kept) == 1 and "\u093c" in kept[0] and rng.random() < 0.5:
                lexicon[kept[0]] = kept[0][:1]
                raw_entries.append((raw, kept[0][:1]))
        indir = root / "in"
        _write(indir / "lexicon.tsv", "".join(f"{s}\t{l}\n" for s, l in raw_entries))

        for c in range(self.corpora):
            words: Counter = Counter()
            for d in range(self.docs):
                ids = rng.choices(range(len(forms)), cum_weights=cum, k=self.tokens_per_doc)
                _write(indir / f"c{c}" / f"doc{d}.txt",
                       _lines([forms[i][0] for i in ids], self.per_line))
                for i, n in Counter(ids).items():
                    for surface in forms[i][1]:
                        words[surface] += n
            lemmas: Counter = Counter()
            for w, n in words.items():
                lemmas[lexicon.get(w, w)] += n
            want = root / "expected"
            _write(want / f"words_c{c}.tsv", ranked_text(words))
            _write(want / f"lemmas_c{c}.tsv", ranked_text(lemmas))
            _write_json(want / f"totals_c{c}.json", {
                "word": [sum(words.values()), len(words)],
                "lemma": [sum(lemmas.values()), len(lemmas)],
            })

    def commands(self, root):
        indir = root / "in"
        argv = ["freq"]
        for c in range(self.corpora):
            argv += ["--corpus", f"c{c}={indir / f'c{c}'}"]
        argv += ["--lexicon", str(indir / "lexicon.tsv"), "--out", str(root / "out" / "freq")]
        return [argv]

    def input_files(self, root):
        indir = root / "in"
        return _files_under([indir / f"c{c}" for c in range(self.corpora)] + [indir / "lexicon.tsv"])

    def check(self, root):
        errors: list[str] = []
        out, want = root / "out" / "freq", root / "expected"
        report_path = out / "freq_report.json"
        report = json.loads(report_path.read_text(encoding="utf-8")) if report_path.is_file() else []
        rows = {(r.get("source_id"), r.get("item_kind")): r for r in report}
        for c in range(self.corpora):
            for kind in ("words", "lemmas"):
                name = f"{kind}_c{c}.tsv"
                _compare_text(name, out / name, want / name, errors)
            totals = json.loads((want / f"totals_c{c}.json").read_text(encoding="utf-8"))
            if totals["word"][0] != totals["lemma"][0]:
                errors.append(f"c{c}: expected lemma tokens differ from word tokens")
            for kind in ("word", "lemma"):
                row = rows.get((f"c{c}", kind), {})
                got = [row.get("total_tokens"), row.get("unique_count")]
                if got != totals[kind]:
                    errors.append(f"freq_report.json c{c}/{kind}: {got}, expected {totals[kind]}")
        return errors


# The POS groups of the correlation table (stoplemma.stats.DEFAULT_GROUPS).
POS_GROUPS = [
    ("NN/NNP/NNPC", {"NN", "NNP", "NNPC"}),
    ("PSP/PRP", {"PSP", "PRP"}),
    ("SYM", {"SYM"}),
    ("VM", {"VM"}),
    ("QC/QF/QO", {"QC", "QF", "QO"}),
    ("NEG", {"NEG"}),
    ("CC", {"CC"}),
]
_HEAD_TAGS = ["PSP", "PRP", "VM", "CC", "NEG", "QF"]
_TAIL_TAGS = ["NN", "NNP", "NNPC", "VM", "QC", "QO", "SYM", "other-tag"]


class AnalyzeRanked(Workload):
    """``overlap``, ``posstats`` and ``assess`` over freq-format ranked lists."""

    name = "analyze-ranked"
    lists = 10
    entries = 12_000
    shared_types = 30_000
    head = 300
    overlap_k = 3000

    def generate(self, rng, root):
        import numpy as np
        from scipy.stats import pearsonr

        vocab = wide_vocab(rng, self.shared_types, 3)
        head, rest = vocab[:self.head], vocab[self.head:]
        tags = {}
        for i, item in enumerate(vocab):
            if rng.random() < 0.9:  # some items stay untagged ("other")
                tags[item] = rng.choice(_HEAD_TAGS if i < self.head else _TAIL_TAGS)
        indir = root / "in"
        _write(indir / "pos_lexicon.tsv", "# item\ttag\n" + "".join(f"{w}\t{t}\n" for w, t in tags.items()))

        ranked_lists = []
        for s in range(self.lists):
            top = sorted(head, key=lambda w: rng.random() * 2 + head.index(w) / len(head))
            items = top[:self.head - 20] + rng.sample(rest, self.entries - (self.head - 20))
            counts = {w: 1 + int(200_000 / (r + 1) ** 1.1) for r, w in enumerate(items)}
            text = ranked_text(counts)
            _write(indir / "ranked" / f"r{s:02d}.tsv", text)
            ranked_lists.append([line.split("\t")[0] for line in text.splitlines()])

        overlap: Counter = Counter()
        short = []
        for s, items in enumerate(ranked_lists):
            overlap.update(set(items[:self.overlap_k]))
            if len(items) < self.overlap_k:
                short.append(f"r{s:02d}")
        want = root / "expected"
        _write(want / "overlap.tsv", ranked_text(overlap))
        _write_json(want / "overlap_report.json", {
            "k": self.overlap_k, "source_count": self.lists, "unique_items": len(overlap),
            "max_count": max(overlap.values()), "short_sources": short,
        })

        cells, summaries = [], []
        for group, members in POS_GROUPS:
            defined, flagged = [], []
            for s, items in enumerate(ranked_lists):
                membership = np.array([tags.get(w, "other") in members for w in items], dtype=float)
                n1 = int(membership.sum())
                cell = {"group": group, "source_id": f"r{s:02d}", "n1": n1,
                        "n0": len(items) - n1, "r": None, "p": None}
                if n1 in (0, len(items)):
                    flagged.append(cell["source_id"])
                else:
                    r, p = pearsonr(membership, np.arange(1, len(items) + 1, dtype=float))
                    cell["r"], cell["p"] = float(r), float(p)
                    defined.append(cell)
                cells.append(cell)
            summaries.append({"group": group, "defined_sources": len(defined),
                              "flagged_sources": flagged,
                              **_describe("r", [c["r"] for c in defined], extremes=True),
                              **_describe("p", [c["p"] for c in defined], extremes=False)})
        _write_json(want / "posstats_cells.json", cells)
        _write_json(want / "posstats_summaries.json", summaries)
        # the posstats default threshold is 0.5
        _write_json(want / "hypothesis.json", {"threshold": 0.5, "reject_pos_hypothesis": all(
            s["mean_r"] is None or abs(s["mean_r"]) <= 0.5 for s in summaries)})
        coverage = _expected_coverage(
            DATA / "english_hindi_mapping.tsv", DATA / "demo_lexicon.tsv", DATA / "table5_stoplemmas.txt")
        _write_json(want / "coverage.json", coverage)
        _write(want / "coverage.txt", _coverage_text(coverage))

    def _ranked_args(self, root):
        args = []
        for s in range(self.lists):
            args += ["--ranked", f"r{s:02d}={root / 'in' / 'ranked' / f'r{s:02d}.tsv'}"]
        return args

    def commands(self, root):
        out = root / "out"
        return [
            ["overlap", *self._ranked_args(root), "--k", str(self.overlap_k), "--out", str(out / "overlap")],
            ["posstats", *self._ranked_args(root), "--pos-lexicon", str(root / "in" / "pos_lexicon.tsv"),
             "--out", str(out / "posstats")],
            ["assess", "--mapping", str(DATA / "english_hindi_mapping.tsv"),
             "--lexicon", str(DATA / "demo_lexicon.tsv"),
             "--list", str(DATA / "table5_stoplemmas.txt"), "--out", str(out / "assess")],
        ]

    def input_files(self, root):
        ranked = _files_under([root / "in" / "ranked"])
        return ranked + ranked + [root / "in" / "pos_lexicon.tsv",
                                  DATA / "english_hindi_mapping.tsv", DATA / "demo_lexicon.tsv",
                                  DATA / "table5_stoplemmas.txt"]

    def check(self, root):
        errors: list[str] = []
        out, want = root / "out", root / "expected"
        _compare_text("overlap.tsv", out / "overlap" / "overlap.tsv",
                      want / "overlap.tsv", errors)
        _compare_json("overlap_report.json", out / "overlap" / "overlap_report.json",
                      want / "overlap_report.json", errors)
        _check_posstats(out / "posstats", want, self.entries, errors)
        _compare_json("coverage.json", out / "assess" / "coverage.json", want / "coverage.json", errors)
        _compare_text("coverage.txt", out / "assess" / "coverage.txt", want / "coverage.txt", errors)
        return errors


def _describe(var: str, values: list[float], extremes: bool) -> dict:
    """A posstats group summary of r or p over the defined cells: mean, sample sd
    and, with ``extremes``, max and min."""
    out = {f"mean_{var}": statistics.fmean(values) if values else None,
           f"sd_{var}": statistics.stdev(values) if len(values) > 1 else None}
    if extremes:
        out[f"max_{var}"] = max(values) if values else None
        out[f"min_{var}"] = min(values) if values else None
    return out


def _close(got, want, key: str) -> bool:
    """Both None, or equal to 1e-8 relative.

    r values may sit near 0, so they also get 1e-12 absolute; p values can be
    as small as 1e-50 and get no absolute slack.
    """
    if got is None or want is None or not isinstance(got, (int, float)):
        return got is None and want is None
    return math.isclose(got, want, rel_tol=1e-8, abs_tol=0.0 if key.endswith("p") else 1e-12)


SUMMARY_COLUMNS = ["mean_r", "sd_r", "max_r", "min_r", "mean_p", "sd_p"]  # posstats.tsv order


def _tsv_number_ok(field: str, want) -> bool:
    """A posstats.tsv field: empty for None, else ``want`` printed to 4 decimals."""
    if want is None:
        return field == ""
    try:
        return abs(float(field) - want) <= 0.5e-4 + 1e-12
    except ValueError:
        return False


def _check_posstats(out: Path, want: Path, depth: int, errors: list[str]) -> None:
    """posstats.json cells and summaries, posstats.tsv and hypothesis.json."""
    path = out / "posstats.json"
    if not path.is_file():
        errors.append("posstats.json missing")
        return
    got = json.loads(path.read_text(encoding="utf-8"))
    if got.get("depth") != depth:
        errors.append(f"posstats.json depth {got.get('depth')}, expected {depth}")
    for kind in ("cells", "summaries"):
        expected = json.loads((want / f"posstats_{kind}.json").read_text(encoding="utf-8"))
        rows = got.get(kind, [])
        if len(rows) != len(expected):
            errors.append(f"posstats.json has {len(rows)} {kind}, expected {len(expected)}")
        for g, e in zip(rows, expected):
            for key, value in e.items():
                if isinstance(value, float) or value is None:
                    ok = _close(g.get(key), value, key)
                else:
                    ok = g.get(key) == value
                if not ok:
                    where = f"cell {e['group']}/{e['source_id']}" if kind == "cells" else e["group"]
                    errors.append(f"posstats.json {where}: {key}={g.get(key)!r}, expected {value!r}")
                    break
            if len(errors) > 5:
                return

    expected = json.loads((want / "posstats_summaries.json").read_text(encoding="utf-8"))
    tsv = out / "posstats.tsv"
    lines = tsv.read_text(encoding="utf-8").splitlines() if tsv.is_file() else []
    if lines[:1] != ["Part of Speech\tMean\tSD\tMax\tMin\tP Mean\tP SD"] or len(lines) != len(expected) + 1:
        errors.append(f"posstats.tsv: {len(lines)} lines or header differ from the expected table")
    for line, e in zip(lines[1:], expected):
        fields = line.split("\t")
        ok = len(fields) == 7 and fields[0] == e["group"] and all(
            _tsv_number_ok(f, e[col]) for f, col in zip(fields[1:], SUMMARY_COLUMNS))
        if not ok:
            errors.append(f"posstats.tsv: row {line!r} differs from {e}")
            break
    _compare_json("hypothesis.json", out / "hypothesis.json", want / "hypothesis.json", errors)


def _coverage_text(c: dict) -> str:
    """The coverage.txt summary ``assess`` writes beside coverage.json."""
    misses = f" ({', '.join(c['misses'])})" if c["misses"] else ""
    ratio = (f"{c['hit_count']}/{c['mapped_lemma_count']} = {c['coverage_ratio']:.4f}"
             if c["coverage_ratio"] is not None else "undefined")
    return (f"external words: {c['external_total']} ({c['untranslatable_count']} untranslatable)\n"
            f"mapped lemmas: {c['mapped_lemma_count']}\n"
            f"present in stop-lemma list: {c['hit_count']}\n"
            f"absent: {c['miss_count']}{misses}\n"
            f"coverage: {ratio}\n")


def _expected_coverage(mapping_path: Path, lexicon_path: Path, list_path: Path) -> dict:
    """Coverage of the list by the mapped English stop words, from the file formats."""
    lexicon = {}
    for line in lexicon_path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            surface, lemma = line.split("\t")
            lexicon[nfc(surface)] = nfc(lemma)
    stop = {nfc(l.strip()) for l in list_path.read_text(encoding="utf-8").splitlines() if l.strip()}
    mapped, untranslatable, external = set(), set(), set()
    for line in mapping_path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        word, targets = line.split("\t")
        external.add(word)
        if targets == "!":
            untranslatable.add(word)
            continue
        for form in targets.split(","):
            if form.strip():
                mapped.add(" ".join(lexicon.get(w, w) for w in nfc(form.strip()).split()))
    hits = mapped & stop
    return {
        "external_total": len(external),
        "untranslatable_count": len(untranslatable),
        "mapped_lemma_count": len(mapped),
        "hit_count": len(hits),
        "miss_count": len(mapped - hits),
        "misses": sorted(mapped - hits),
        "coverage_ratio": len(hits) / len(mapped) if mapped else None,
    }


WORKLOADS = {w.name: w for w in (InduceZipf(), FreqLongtail(), AnalyzeRanked())}
