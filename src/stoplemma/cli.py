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
import gc
import hashlib
import json
import math
import os
import sys
import tempfile
import threading
from contextlib import contextmanager
from functools import partial
from itertools import starmap
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


def _cpus_to_fork() -> int:
    """The usable CPUs, or 1 where this process may not fork.

    fork copies only the calling thread, so a process that runs other threads (one of
    which may hold a lock at the fork), or cannot fork, does its work in-process.
    """
    if threading.active_count() > 1 or not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


@contextmanager
def _worker_pool(workers: int, task: str):
    """A pool of ``workers`` forked processes, which start with the modules loaded.

    A worker that dies, as by the out-of-memory killer, is an OSError naming
    ``task``.  On leaving, no pending task starts and every worker has exited.
    """
    # imported here, so that no subcommand that works in-process pays for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool
    except BrokenProcessPool as exc:
        raise OSError(f"a worker process {task} died: {exc}") from None
    finally:
        pool.shutdown(cancel_futures=True)


# The worker functions are private, as a worker is sent its function by name,
# and bench/inproc.py wraps each public function in a closure, which has none.

def _count_corpus(path: str, policy: FilterPolicy) -> tuple[freq_mod.FrequencyTable, str]:
    """A corpus's word table, its counts a plain dict, and its hash (defined at ``freq.count_document_words``)."""
    h = hashlib.sha256()
    return freq_mod.count_words(corpus_mod.load_corpus(path), policy, h), h.hexdigest()


def _posstats_cells(ranked: list[tuple[str, str]], pos_lexicon: str, depth: int | None, use_frequency: bool) -> tuple:
    """``posstats``'s inputs read and its cells built, all but each p (see ``stats._pos_cells``)."""
    lists = {ident: freq_mod.read_ranked_tsv(path) for ident, path in ranked}
    tags = stats_mod.load_pos_lexicon(pos_lexicon)
    return stats_mod._pos_cells(lists, tags, depth, use_frequency)


def _policy_from_args(args) -> FilterPolicy:
    return FilterPolicy(**{name: getattr(args, name) for name in FilterPolicy._fields})


def _load_lexicon_arg(args) -> lemma_mod.LemmaLexicon:
    if args.lexicon:
        return lemma_mod.load_lexicon(args.lexicon)
    return lemma_mod.EMPTY_LEXICON


def _write_ranked(counts: dict[str, int], path: Path) -> None:
    """Rank ``counts`` as the TSV is written, so that one ranked table is alive at a time."""
    freq_mod.write_tsv(freq_mod.rank_items(counts), path)


# Each cmd_* gets every ID=PATH option as (ID, PATH) pairs, every input
# path checked and the staging folder; it writes each output file into that
# folder and returns the SHA-256 of each input folder it read.  main() hashes
# the other inputs, adds provenance.json and moves the outputs into --out.

def cmd_freq(args, stage: Path) -> dict:
    policy = _policy_from_args(args)
    lex = _load_lexicon_arg(args)

    rows, hashes = [], {}
    for ident, path in args.corpus:
        words, hashes[path] = _count_corpus(path, policy)
        for kind, table in (("word", words), ("lemma", freq_mod.lemma_table(words, lex))):
            rows.append((ident, kind, table.total_tokens, table.unique_count))
            _write_ranked(table.counts, stage / f"{kind}s_{ident}.tsv")
        del words, table  # no table of this corpus is alive while the next one is counted
    freq_mod.write_report(rows, stage / "freq_report.json")
    return hashes


def cmd_induce(args, stage: Path) -> dict:
    if any(Path(args.out).resolve().is_relative_to(Path(p).resolve()) for _, p in args.corpus):
        raise ValueError(f"--out {args.out} is inside a --corpus folder, whose documents it would join")
    policy = _policy_from_args(args)
    lex = _load_lexicon_arg(args)

    lists = [induce_mod.load_stopword_list(path) for _, path in args.stoplist]
    # one worker process per corpus, up to the usable CPUs; map keeps the corpora's order
    workers = min(len(args.corpus), _cpus_to_fork())
    paths = [path for _, path in args.corpus]
    count = partial(_count_corpus, policy=policy)
    def collapse(words, tree):  # in this process, the only one that holds the lexicon, as each word table arrives
        return freq_mod.lemma_table(words, lex).counts, tree
    if workers == 1:
        counted = list(starmap(collapse, map(count, paths)))
    else:
        with _worker_pool(workers, "counting the corpora") as pool:
            counted = list(starmap(collapse, pool.map(count, paths)))
    lemma_counts, trees = zip(*counted)

    set_a = induce_mod.build_set_a(lists, lex, k=args.k_a)
    set_b = induce_mod.build_set_b(lemma_counts, k=args.k_b)
    final = induce_mod.build_final_list(set_a, set_b, lemma_counts)
    induce_mod.write_stoplemma_list(final, stage / "stoplemmas.txt")
    write_json(induce_mod.induction_report(lists, set_a, set_b, final), stage / "induction_report.json")
    return dict(zip(paths, trees))


def cmd_overlap(args, stage: Path) -> dict:
    lists = {ident: freq_mod.read_ranked_tsv(path) for ident, path in args.ranked}
    counts = stats_mod.top_k_overlap(lists, k=args.k)
    summary = {
        "k": args.k,
        "source_count": len(lists),
        "unique_items": len(counts),
        "max_count": max(counts.values(), default=0),
        "short_sources": [ident for ident, ranked in lists.items() if len(ranked) < args.k],
    }
    _write_ranked(counts, stage / "overlap.tsv")
    write_json(summary, stage / "overlap_report.json")
    return {}


def cmd_posstats(args, stage: Path) -> dict:
    if not math.isfinite(args.threshold):  # JSON has no NaN or Infinity to write
        raise ValueError(f"--threshold must be a finite number, got {args.threshold!r}")
    # The scipy import is most of posstats's time.  With a CPU to spare, and the import still to come,
    # a forked worker reads the inputs and builds the cells while this process imports scipy.
    if _cpus_to_fork() > 1 and "scipy.special" not in sys.modules:
        with _worker_pool(1, "reading the ranked lists") as pool:
            future = pool.submit(_posstats_cells, args.ranked, args.pos_lexicon, args.depth, args.use_frequency)
            import scipy.special  # stats._p_value's import, made while the worker reads
            staged = future.result()
        report = stats_mod._pos_report(*staged)
    else:
        lists = {ident: freq_mod.read_ranked_tsv(path) for ident, path in args.ranked}
        tags = stats_mod.load_pos_lexicon(args.pos_lexicon)
        report = stats_mod.pos_rank_analysis(lists, tags, depth=args.depth, use_frequency=args.use_frequency)
    if all(s["mean_r"] is None for s in report["summaries"]):
        raise ComputeError("correlation undefined for every (group, source) cell")
    stats_mod.write_correlation_tsv(report, stage / "posstats.tsv")
    write_json(report, stage / "posstats.json")
    write_json({"reject_pos_hypothesis": stats_mod.reject_pos_hypothesis(report, args.threshold),
                "threshold": args.threshold}, stage / "hypothesis.json")
    return {}


def cmd_assess(args, stage: Path) -> dict:
    mapping = assess_mod.load_mapping(args.mapping)
    lex = _load_lexicon_arg(args)
    stop_lemmas = set(induce_mod.load_stopword_list(args.list))
    summary = assess_mod.coverage_summary(mapping, lex, stop_lemmas)
    write_json(summary, stage / "coverage.json")
    (stage / "coverage.txt").write_text(assess_mod.format_summary(summary) + "\n", encoding="utf-8")
    return {}


def _move_outputs(stage: Path, out: Path) -> None:
    """Move every file of ``stage`` into ``out``, made if missing.

    An output name that is a folder in ``out`` leaves ``out`` as it was.
    """
    names = sorted(os.listdir(stage))
    for name in names:
        if (out / name).is_dir():
            raise IsADirectoryError(f"{out / name}: an output file cannot replace this folder")
    out.mkdir(parents=True, exist_ok=True)
    for name in names:
        (stage / name).replace(out / name)


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
        # Every output is written into a staging folder and moved into --out only when the run succeeds,
        # so a failed run leaves --out as it was.  The folder is made in --out if it exists, else in its
        # nearest existing ancestor, so that each move is a rename.
        out = Path(args.out)
        base = out.absolute()
        while not base.is_dir():
            base = base.parent
        with tempfile.TemporaryDirectory(prefix=".stoplemma-", dir=base) as name:
            stage = Path(name)
            hashes = command(argparse.Namespace(**given), stage)
            write_json({
                "command": args.command,
                "parameters": dict(sorted(vars(args).items())),
                "inputs": {p: hashes[p] if p in hashes else _sha256(Path(p)) for p in sorted(set(inputs))},
            }, stage / "provenance.json")
            _move_outputs(stage, out)
        return EXIT_OK
    except (ComputeError, *_INPUT_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE_ERROR if isinstance(exc, ComputeError) else EXIT_INPUT_ERROR


def run() -> int:
    """The process entry point: ``main()`` with the cyclic GC off, frozen before the interpreter exits.

    A run leaves a fixed amount of cyclic garbage, whatever the size of its
    inputs (``tests/test_cli.py`` checks this for every subcommand), so the
    collector's passes would mostly scan objects that live until the process
    exits: the imported modules and the run's tables.  Forked workers inherit
    the disabled collector.
    The freeze makes the collections that run at shutdown, which the disabled
    collector does not stop, skip every object alive at the end of the run.
    ``main()`` leaves the collector to its caller.
    """
    gc.disable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
