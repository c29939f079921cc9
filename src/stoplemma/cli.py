"""Command-line entry point: one subcommand per analysis.

``freq``     word/lemma frequency tables for one or more corpora
``induce``   stop-lemma induction from stop lists + corpora
``overlap``  top-k overlap counts across ranked lists (word-cloud data)
``posstats`` POS-group vs. rank point-biserial statistics
``assess``   cross-lingual coverage of a stop-lemma list

All outputs are deterministic: no timestamps, provenance blocks carry content
hashes. Exit codes: 0 success, 1 input/validation error, 2 computation error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import threading
from functools import partial
from pathlib import Path

from . import assess as assess_mod
from . import corpus as corpus_mod
from . import freq as freq_mod
from . import induce as induce_mod
from . import lemma as lemma_mod
from . import stats as stats_mod
from .normalize import FilterPolicy, read_text, write_json

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_COMPUTE_ERROR = 2

# ValueError: invalid input, naming PATH:LINE where there is one; OSError: paths that cannot be read or
# written, and a worker process that died
_INPUT_ERRORS = (OSError, ValueError)

# an option's kind: a switch, a repeatable ID=PATH, or the converter its text goes through
SWITCH = "switch"
IDS = "ID=PATH"
REQUIRED = object()  # the default of an option that a flag or the config file must give


class ComputeError(Exception):
    """Valid inputs whose result is undefined."""


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ValueError, an input error (exit 1), instead of exiting 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _path(text: str) -> str:
    """A path option's value; the empty string names no file."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    return text


def _count(text: str) -> int:
    """A count option's value: an integer of at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _id_paths(specs: list[str], label: str) -> list[tuple[str, str]]:
    """``(ID, PATH)`` pairs; each ID is distinct and a plain file name, as ``freq`` names files after it."""
    pairs: dict[str, str] = {}
    for spec in specs:
        ident, _, path = spec.partition("=")
        if not ident or not path:
            raise ValueError(f"{label} must look like ID=PATH, got {spec!r}")
        if ident in (".", "..") or "/" in ident or "\0" in ident:
            raise ValueError(f"{label} ID must be a plain file name, got {ident!r}")
        if ident in pairs:
            raise ValueError(f"{label} ID {ident!r} is given more than once")
        pairs[ident] = path
    return list(pairs.items())


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _count_corpus(path: str, policy: FilterPolicy) -> tuple[freq_mod.FrequencyTable, str]:
    """A corpus's word table and its hash (defined at ``freq.count_document_words``), from one read of each document."""
    h = hashlib.sha256()
    return freq_mod.count_words(corpus_mod.load_corpus(path), policy, h), h.hexdigest()


def _policy_from_args(args) -> FilterPolicy:
    return FilterPolicy(**{name: getattr(args, name) for name in FilterPolicy._fields})


def _load_lexicon_arg(args) -> lemma_mod.LemmaLexicon:
    if args.lexicon:
        return lemma_mod.load_lexicon(args.lexicon)
    return lemma_mod.EMPTY_LEXICON


def _write_ranked(counts: dict[str, int], path: Path) -> None:
    """Rank ``counts`` as the TSV is written, so that one ranked table is alive at a time."""
    freq_mod.write_tsv(freq_mod.rank_items(counts), path)


# Each cmd_* gets every ID=PATH option as (ID, PATH) pairs and every input
# path checked; it computes and returns a writer per output file name, and
# the SHA-256 of each input folder it read.  main() hashes the other inputs,
# adds the provenance and writes the outputs.

def cmd_freq(args) -> tuple[dict, dict]:
    policy = _policy_from_args(args)
    lex = _load_lexicon_arg(args)

    tables = []
    outputs, hashes = {}, {}
    for ident, path in args.corpus:
        words, hashes[path] = _count_corpus(path, policy)
        lemmas = freq_mod.lemma_table(words, lex)
        for kind, table in (("word", words), ("lemma", lemmas)):
            tables.append((ident, kind, table))
            outputs[f"{kind}s_{ident}.tsv"] = partial(_write_ranked, table.counts)
    outputs["freq_report.json"] = partial(freq_mod.write_report, tables)
    return outputs, hashes


def _corpus_lemma_counts(path: str, policy: FilterPolicy,
                         lex: lemma_mod.LemmaLexicon) -> tuple[dict[str, int], str]:
    """One corpus's lemma counts and hash, as an ``induce`` worker process counts them.

    Private, because bench/inproc.py wraps every public function in a closure,
    and a closure cannot be pickled to a worker.
    """
    words, tree = _count_corpus(path, policy)
    return freq_mod.lemma_table(words, lex).counts, tree


def cmd_induce(args) -> tuple[dict, dict]:
    if any(Path(args.out).resolve().is_relative_to(Path(p).resolve()) for _, p in args.corpus):
        raise ValueError(f"--out {args.out} is inside a --corpus folder, whose documents it would join")
    policy = _policy_from_args(args)
    lex = _load_lexicon_arg(args)

    lists = [induce_mod.load_stopword_list(path) for _, path in args.stoplist]
    # one worker process per corpus, up to the usable CPUs; map keeps the corpora's order.
    # Workers are forked, so they start with the modules loaded, but fork copies only the
    # calling thread: a process that runs other threads, or cannot fork, counts its corpora itself.
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    workers = min(len(args.corpus), cpus) if threading.active_count() == 1 and hasattr(os, "fork") else 1
    paths = [path for _, path in args.corpus]
    count = partial(_corpus_lemma_counts, policy=policy, lex=lex)
    if workers == 1:
        counted = list(map(count, paths))
    else:
        # imported here, so that no other subcommand's start-up pays for them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        try:
            counted = list(pool.map(count, paths))
        except BrokenProcessPool as exc:  # a worker was killed, as by the out-of-memory killer
            raise OSError(f"a worker process counting the corpora died: {exc}") from None
        finally:
            pool.shutdown(cancel_futures=True)  # after an error, no pending corpus is counted
    lemma_counts, trees = zip(*counted)

    set_a = induce_mod.build_set_a(lists, lex, k=args.k_a)
    set_b = induce_mod.build_set_b(lemma_counts, k=args.k_b)
    final = induce_mod.build_final_list(set_a, set_b, lemma_counts)
    report = induce_mod.induction_report(lists, set_a, set_b, final)
    return {
        "stoplemmas.txt": partial(induce_mod.write_stoplemma_list, final),
        "induction_report.json": partial(write_json, report),
    }, dict(zip(paths, trees))


def cmd_overlap(args) -> tuple[dict, dict]:
    lists = {ident: freq_mod.read_ranked_tsv(path) for ident, path in args.ranked}
    counts = stats_mod.top_k_overlap(lists, k=args.k)
    summary = {
        "k": args.k,
        "source_count": len(lists),
        "unique_items": len(counts),
        "max_count": max(counts.values(), default=0),
        "short_sources": [ident for ident, ranked in lists.items() if len(ranked) < args.k],
    }
    return {
        "overlap.tsv": partial(_write_ranked, counts),
        "overlap_report.json": partial(write_json, summary),
    }, {}


def cmd_posstats(args) -> tuple[dict, dict]:
    if not math.isfinite(args.threshold):  # JSON has no NaN or Infinity to write
        raise ValueError(f"--threshold must be a finite number, got {args.threshold!r}")
    lists = {ident: freq_mod.read_ranked_tsv(path) for ident, path in args.ranked}
    tags = stats_mod.load_pos_lexicon(args.pos_lexicon)
    report = stats_mod.pos_rank_analysis(lists, tags, depth=args.depth, use_frequency=args.use_frequency)
    if all(s["mean_r"] is None for s in report["summaries"]):
        raise ComputeError("correlation undefined for every (group, source) cell")
    verdict = {"reject_pos_hypothesis": stats_mod.reject_pos_hypothesis(report, args.threshold),
               "threshold": args.threshold}
    return {
        "posstats.tsv": partial(stats_mod.write_correlation_tsv, report),
        "posstats.json": partial(write_json, report),
        "hypothesis.json": partial(write_json, verdict),
    }, {}


def cmd_assess(args) -> tuple[dict, dict]:
    mapping = assess_mod.load_mapping(args.mapping)
    lex = _load_lexicon_arg(args)
    stop_lemmas = set(induce_mod.load_stopword_list(args.list))
    summary = assess_mod.coverage_summary(mapping, lex, stop_lemmas)
    text = assess_mod.format_summary(summary) + "\n"
    return {
        "coverage.json": partial(write_json, summary),
        "coverage.txt": lambda path: path.write_text(text, encoding="utf-8"),
    }, {}


def _write_outputs(out: Path, outputs: dict) -> None:
    """Write every output into a staging folder, then move them into ``out``.

    A failed writer, or an output name that is a folder in ``out``, leaves ``out``
    as it was.  The staging folder is made in ``out`` if it exists, else in its
    nearest existing ancestor, so that each move is a rename.
    """
    for name in outputs:
        if (out / name).is_dir():
            raise IsADirectoryError(f"{out / name}: an output file cannot replace this folder")
    base = out.absolute()
    while not base.is_dir():
        base = base.parent
    with tempfile.TemporaryDirectory(prefix=".stoplemma-", dir=base) as stage:
        for name, write in outputs.items():
            write(Path(stage, name))
        out.mkdir(parents=True, exist_ok=True)
        for name in outputs:
            Path(stage, name).replace(out / name)


_CORPUS = ("--corpus", IDS, REQUIRED, "corpus folder whose *.txt files are its documents; repeatable")
_LEXICON = ("--lexicon", _path, None, "surface<TAB>lemma TSV; a word it lacks is its own lemma")
_POLICY = (
    ("--keep-symbols", SWITCH, False, "retain punctuation/symbol tokens"),
    ("--keep-latin-words", SWITCH, False, "retain Latin-script word tokens"),
    ("--keep-latin-numbers", SWITCH, False, "retain Latin-digit number tokens"),
    ("--drop-devanagari-digits", SWITCH, False, "drop Devanagari-digit number tokens"),
)
_RANKED = ("--ranked", IDS, REQUIRED, "item<TAB>count TSV in rank order, as freq writes it; repeatable")
_OUT = ("--out", _path, REQUIRED, "output folder, made if missing")

# subcommand: (function, help, options); an option is (flag, kind, default, help).
# Every IDS option and every path option but --out names inputs, checked in this order.
COMMANDS = {
    "freq": (cmd_freq, "word/lemma frequency tables", (_CORPUS, _LEXICON, *_POLICY, _OUT)),
    "induce": (cmd_induce, "induce a stop-lemma list", (
        ("--stoplist", IDS, REQUIRED, "stop word list, one entry per line; repeatable"),
        _CORPUS, _LEXICON,
        ("--k-a", _count, induce_mod.DEFAULT_K, "top-k prefix of each stop list (set A)"),
        ("--k-b", _count, induce_mod.DEFAULT_K, "top-k lemmas of each corpus (set B)"),
        *_POLICY, _OUT)),
    "overlap": (cmd_overlap, "top-k overlap across ranked lists",
                (_RANKED, ("--k", _count, 10, "top-k prefix of each ranked list"), _OUT)),
    "posstats": (cmd_posstats, "POS-group vs. rank correlation", (
        _RANKED,
        ("--pos-lexicon", _path, REQUIRED, "item<TAB>tag TSV"),
        ("--depth", _count, None, "correlate over the first DEPTH entries of each list, not all"),
        ("--threshold", float, 0.5, "reject the POS hypothesis if no group's |mean r| exceeds it"),
        ("--use-frequency", SWITCH, False, "correlate against raw frequency instead of rank"),
        _OUT)),
    "assess": (cmd_assess, "coverage of a stop-lemma list", (
        ("--mapping", _path, REQUIRED, "external<TAB>hindi TSV"),
        ("--list", _path, REQUIRED, "stop-lemma list, one lemma per line"),
        _LEXICON, _OUT)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stoplemma", description="Hindi stop-lemma toolkit")
    parser.add_argument("--config", type=_path, help="JSON config file; command-line flags win")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        # every parser default is None: an option was given exactly when its value is not None
        for flag, kind, _, text in options:
            if kind is SWITCH:
                p.add_argument(flag, action="store_true", default=None, help=text)
            elif kind is IDS:
                p.add_argument(flag, action="append", metavar=IDS, help=text)
            else:
                p.add_argument(flag, type=kind, help=text)
    return parser


def _config_value(flag: str, kind, config: str, key: str, value):
    """Convert a config value as the parser converts the same option's flag."""
    if kind is SWITCH:
        if isinstance(value, bool):
            return value
    elif kind is IDS:
        if isinstance(value, list) and all(isinstance(v, str) for v in value):
            return value
    elif isinstance(value, str) or (kind is not _path and type(value) in (int, float)):
        # via str(), so that 2.5 is no more an int than "2.5" is
        try:
            return kind(str(value))
        except (ValueError, argparse.ArgumentTypeError):
            pass
    raise ValueError(f"{config}: config key {key!r}: invalid value {value!r} for {flag}")


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """The subcommand's options: each one's flag value, else its config value, else its default."""
    options = {flag[2:].replace("-", "_"): (flag, kind, default) for flag, kind, default, _ in COMMANDS[args.command][2]}
    pairs = []  # the config's top-level key-value pairs, each repeat included
    if args.config:
        objects = []  # every object's pairs, innermost first, so the top-level object's come last
        text = read_text(args.config)  # its errors name the file already
        try:
            config = json.loads(text, object_pairs_hook=lambda p: objects.append(p) or dict(p))
        except (ValueError, RecursionError) as exc:  # bad JSON, deep nesting
            raise ValueError(f"{args.config}: {exc}") from None
        if not isinstance(config, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        pairs = objects[-1]
    # every config value is checked, also one that a flag overrides; a key may serve another subcommand
    known = {flag[2:].replace("-", "_") for _, _, opts in COMMANDS.values() for flag, *_ in opts}
    from_config, seen = {}, {}
    for key, value in pairs:
        dest = key.replace("-", "_")
        if dest in seen:  # a key may be written with - or _, but only once
            raise ValueError(f"{args.config}: config key {key!r} is given more than once" if seen[dest] == key
                             else f"{args.config}: config keys {seen[dest]!r} and {key!r} name the same option")
        seen[dest] = key
        if dest in options:
            flag, kind, _ = options[dest]
            from_config[dest] = _config_value(flag, kind, args.config, key, value)
        elif dest not in known:
            raise ValueError(f"{args.config}: config key {key!r} is not an option of any subcommand")
    values = {"command": args.command}
    missing = []
    for dest, (flag, _, default) in options.items():
        value = getattr(args, dest)
        if value is None:
            value = from_config.get(dest, default)
        if value is REQUIRED or value == []:
            missing.append(flag)
        # provenance.json is UTF-8, so no value may hold a lone surrogate, as a name that is not UTF-8 does
        for text in value if isinstance(value, list) else [value]:
            if isinstance(text, str) and text.encode(errors="ignore").decode() != text:
                raise ValueError(f"{flag} value {text!r} is not UTF-8 text")
        values[dest] = value
    if missing:
        raise ValueError(f"missing required option(s): {', '.join(missing)} (flag or config file)")
    return argparse.Namespace(**values)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _resolve(build_parser().parse_args(argv))
        command, _, options = COMMANDS[args.command]
        # the command gets (ID, PATH) pairs; provenance.json records the options as given
        given, inputs = vars(args).copy(), []
        for flag, kind, _, _ in options:
            dest = flag[2:].replace("-", "_")
            if kind is IDS:
                given[dest] = _id_paths(given[dest], flag)
                inputs += [path for _, path in given[dest]]
            elif kind is _path and flag != "--out" and given[dest]:
                inputs.append(given[dest])
        missing = [p for p in inputs if not Path(p).exists()]
        if missing:
            raise FileNotFoundError(f"input path(s) not found: {', '.join(missing)}")
        outputs, hashes = command(argparse.Namespace(**given))
        outputs["provenance.json"] = partial(write_json, {
            "command": args.command,
            "parameters": dict(sorted(vars(args).items())),
            "inputs": {p: hashes[p] if p in hashes else _sha256(Path(p)) for p in sorted(set(inputs))},
        })
        _write_outputs(Path(args.out), outputs)
        return EXIT_OK
    except (ComputeError, *_INPUT_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE_ERROR if isinstance(exc, ComputeError) else EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
