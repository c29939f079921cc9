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
import sys
import tempfile
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

# every loader's error class is a ValueError; OSError: paths that cannot be read or written
_INPUT_ERRORS = (OSError, ValueError)

# options each subcommand needs, from a flag or the config file, besides --out
_REQUIRED = {
    "freq": ("corpus",),
    "induce": ("stoplist", "corpus"),
    "overlap": ("ranked",),
    "posstats": ("ranked", "pos_lexicon"),
    "assess": ("mapping", "list"),
}


class InputSpecError(ValueError):
    pass


class ComputeError(Exception):
    """Valid inputs whose result is undefined."""


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as input errors (exit 1), not by exiting 2."""

    def error(self, message):
        raise InputSpecError(f"{self.prog}: {message}")


def _path(text: str) -> str:
    """A path option's value; the empty string names no file."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    return text


def _id_paths(specs: list[str], label: str) -> list[tuple[str, str]]:
    """``(ID, PATH)`` pairs; each ID is distinct and a plain file name, as ``freq`` names files after it."""
    pairs: dict[str, str] = {}
    for spec in specs:
        ident, _, path = spec.partition("=")
        if not ident or not path:
            raise InputSpecError(f"{label} must look like ID=PATH, got {spec!r}")
        if ident in (".", "..") or "/" in ident or "\0" in ident:
            raise InputSpecError(f"{label} ID must be a plain file name, got {ident!r}")
        if ident in pairs:
            raise InputSpecError(f"{label} ID {ident!r} is given more than once")
        pairs[ident] = path
    return list(pairs.items())


def _existing(*paths: str | None) -> list[str]:
    """The given input paths, leaving out unset optional ones; all must exist."""
    inputs = [p for p in paths if p]
    missing = [p for p in inputs if not Path(p).exists()]
    if missing:
        raise FileNotFoundError(f"input path(s) not found: {', '.join(missing)}")
    return inputs


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _hash_tree(path: Path) -> str:
    if path.is_file():
        return _sha256(path)
    h = hashlib.sha256()
    for p in corpus_mod.document_paths(path):
        h.update(str(p.relative_to(path)).encode())
        h.update(_sha256(p).encode())
    return h.hexdigest()


def _policy_from_args(args) -> FilterPolicy:
    return FilterPolicy(
        drop_symbols=not args.keep_symbols,
        drop_latin_words=not args.keep_latin_words,
        drop_latin_numbers=not args.keep_latin_numbers,
        drop_devanagari_digits=args.drop_devanagari_digits,
    )


def _load_lexicon_arg(args) -> lemma_mod.LemmaLexicon:
    if args.lexicon:
        return lemma_mod.load_lexicon(args.lexicon)
    return lemma_mod.EMPTY_LEXICON


# Each cmd_* checks its inputs and computes; it returns the input paths and
# a writer per output file name.  main() adds the provenance and writes them.

def cmd_freq(args) -> tuple[list[str], dict]:
    corpora = _id_paths(args.corpus, "--corpus")
    inputs = _existing(*(path for _, path in corpora), args.lexicon)
    policy = _policy_from_args(args)
    lex = _load_lexicon_arg(args)

    tables = []
    outputs = {}
    for ident, path in corpora:
        source = corpus_mod.load_corpus(path, id=ident)
        words = freq_mod.count_words(source, policy)
        lemmas = freq_mod.lemma_table(words, lex)
        tables += [words, lemmas]
        outputs[f"words_{ident}.tsv"] = partial(freq_mod.write_tsv, freq_mod.rank_items(words))
        outputs[f"lemmas_{ident}.tsv"] = partial(freq_mod.write_tsv, freq_mod.rank_items(lemmas))
    outputs["freq_report.json"] = partial(freq_mod.write_report, tables)
    return inputs, outputs


def cmd_induce(args) -> tuple[list[str], dict]:
    stoplists = _id_paths(args.stoplist, "--stoplist")
    corpora = _id_paths(args.corpus, "--corpus")
    inputs = _existing(*(p for _, p in stoplists + corpora), args.lexicon)
    policy = _policy_from_args(args)
    lex = _load_lexicon_arg(args)

    lists = [induce_mod.load_stopword_list(path, source_id=ident) for ident, path in stoplists]
    lemma_tables = []
    ranked = []
    for ident, path in corpora:
        source = corpus_mod.load_corpus(path, id=ident)
        table = freq_mod.count_lemmas(source, policy, lex)
        lemma_tables.append(table)
        ranked.append(freq_mod.rank_items(table))

    set_a = induce_mod.build_set_a(lists, lex, k=args.k_a)
    set_b = induce_mod.build_set_b(ranked, k=args.k_b)
    aggregate = induce_mod.aggregate_lemma_counts([t.counts for t in lemma_tables])
    final = induce_mod.build_final_list(set_a, set_b, aggregate)
    report = induce_mod.induction_report(lists, set_a, set_b, final)
    return inputs, {
        "stoplemmas.txt": partial(induce_mod.write_stoplemma_list, final),
        "induction_report.json": partial(write_json, vars(report)),
    }


def cmd_overlap(args) -> tuple[list[str], dict]:
    ranked_specs = _id_paths(args.ranked, "--ranked")
    inputs = _existing(*(p for _, p in ranked_specs))
    lists = [freq_mod.read_ranked_tsv(path) for _, path in ranked_specs]
    report = stats_mod.top_k_overlap(lists, k=args.k, source_ids=[i for i, _ in ranked_specs])
    summary = {
        "k": report.k,
        "source_count": report.source_count,
        "unique_items": report.unique_items,
        "max_count": report.max_count,
        "short_sources": list(report.short_sources),
    }
    return inputs, {
        "overlap.tsv": partial(stats_mod.write_overlap_tsv, report),
        "overlap_report.json": partial(write_json, summary),
    }


def cmd_posstats(args) -> tuple[list[str], dict]:
    if not math.isfinite(args.threshold):  # JSON has no NaN or Infinity to write
        raise InputSpecError(f"--threshold must be a finite number, got {args.threshold!r}")
    ranked_specs = _id_paths(args.ranked, "--ranked")
    inputs = _existing(*(p for _, p in ranked_specs), args.pos_lexicon)
    lists = [freq_mod.read_ranked_tsv(path) for _, path in ranked_specs]
    pos_lex = stats_mod.load_pos_lexicon(args.pos_lexicon)
    report = stats_mod.pos_rank_analysis(
        lists,
        pos_lex,
        depth=args.depth,
        source_ids=[i for i, _ in ranked_specs],
        use_frequency=args.use_frequency,
    )
    if all(s.mean_r is None for s in report.summaries):
        raise ComputeError("correlation undefined for every (group, source) cell")
    verdict = {"reject_pos_hypothesis": stats_mod.reject_pos_hypothesis(report, args.threshold),
               "threshold": args.threshold}
    return inputs, {
        "posstats.tsv": partial(stats_mod.write_correlation_tsv, report),
        "posstats.json": partial(stats_mod.write_correlation_json, report),
        "hypothesis.json": partial(write_json, verdict),
    }


def cmd_assess(args) -> tuple[list[str], dict]:
    inputs = _existing(args.mapping, args.list, args.lexicon)
    mapping = assess_mod.load_mapping(args.mapping)
    lex = _load_lexicon_arg(args)
    stop_lemmas = set(induce_mod.load_reference_list(args.list))
    report = assess_mod.assess_coverage(mapping, lex, stop_lemmas)
    summary = assess_mod.format_summary(report) + "\n"
    return inputs, {
        "coverage.json": partial(assess_mod.write_coverage_json, report),
        "coverage.txt": lambda path: path.write_text(summary, encoding="utf-8"),
    }


def _write_outputs(out: Path, outputs: dict) -> None:
    """Write every output into a staging folder, then move them into ``out``.

    A failed writer leaves ``out`` as it was.  The folder is made in ``out`` if it
    exists, else in its nearest existing ancestor, so that each move is a rename.
    """
    base = out.absolute()
    while not base.is_dir():
        base = base.parent
    with tempfile.TemporaryDirectory(prefix=".stoplemma-", dir=base) as stage:
        for name, write in outputs.items():
            write(Path(stage, name))
        out.mkdir(parents=True, exist_ok=True)
        for name in outputs:
            Path(stage, name).replace(out / name)


def _param_dict(args) -> dict:
    skip = {"func", "config"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--keep-symbols", action="store_true",
                   help="retain punctuation/symbol tokens")
    p.add_argument("--keep-latin-words", action="store_true",
                   help="retain Latin-script word tokens")
    p.add_argument("--keep-latin-numbers", action="store_true",
                   help="retain Latin-digit number tokens")
    p.add_argument("--drop-devanagari-digits", action="store_true",
                   help="drop Devanagari-digit number tokens")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stoplemma", description="Hindi stop-lemma toolkit")
    parser.add_argument("--config", type=_path, help="JSON config file; command-line flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("freq", help="word/lemma frequency tables")
    p.add_argument("--corpus", action="append", metavar="ID=PATH")
    p.add_argument("--lexicon", type=_path, help="surface<TAB>lemma TSV")
    _add_policy_flags(p)
    p.add_argument("--out", type=_path)
    p.set_defaults(func=cmd_freq)

    p = sub.add_parser("induce", help="induce a stop-lemma list")
    p.add_argument("--stoplist", action="append", metavar="ID=PATH")
    p.add_argument("--corpus", action="append", metavar="ID=PATH")
    p.add_argument("--lexicon", type=_path)
    p.add_argument("--k-a", type=int, default=induce_mod.DEFAULT_K)
    p.add_argument("--k-b", type=int, default=induce_mod.DEFAULT_K)
    _add_policy_flags(p)
    p.add_argument("--out", type=_path)
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("overlap", help="top-k overlap across ranked lists")
    p.add_argument("--ranked", action="append", metavar="ID=PATH")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", type=_path)
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("posstats", help="POS-group vs. rank correlation")
    p.add_argument("--ranked", action="append", metavar="ID=PATH")
    p.add_argument("--pos-lexicon", type=_path, help="item<TAB>tag TSV")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--use-frequency", action="store_true",
                   help="correlate against raw frequency instead of rank")
    p.add_argument("--out", type=_path)
    p.set_defaults(func=cmd_posstats)

    p = sub.add_parser("assess", help="coverage of a stop-lemma list")
    p.add_argument("--mapping", type=_path, help="external<TAB>hindi TSV")
    p.add_argument("--lexicon", type=_path)
    p.add_argument("--list", type=_path, help="one lemma per line")
    p.add_argument("--out", type=_path)
    p.set_defaults(func=cmd_assess)

    return parser


def _config_value(action: argparse.Action, key: str, value):
    """Convert a config value as argparse converts the same option's flag."""
    if isinstance(action, argparse._StoreTrueAction):
        if isinstance(value, bool):
            return value
    elif isinstance(action, argparse._AppendAction):
        if isinstance(value, list) and all(isinstance(v, str) for v in value):
            return value
    elif isinstance(value, str) or (action.type in (int, float) and type(value) in (int, float)):
        # via str(), so that 2.5 is no more an int than "2.5" is
        try:
            return action.type(str(value)) if action.type else value
        except (ValueError, argparse.ArgumentTypeError):
            pass
    raise InputSpecError(f"config key {key!r}: invalid value {value!r} for {action.option_strings[0]}")


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    args = parser.parse_args(argv)
    if not args.config:
        return args
    text = read_text(args.config, InputSpecError)
    try:
        config = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, deep nesting
        raise InputSpecError(f"{args.config}: {exc}") from None
    if not isinstance(config, dict):
        raise InputSpecError(f"{args.config}: config must be a JSON object")
    # checked values become defaults, so flags win; a repeatable flag appends to its default
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub = subparsers.choices[args.command]
    actions = {a.dest: a for a in sub._actions if a.dest != "help"}
    for key, value in config.items():
        dest = key.replace("-", "_")
        if dest in actions:
            value = _config_value(actions[dest], key, value)
            if not (isinstance(actions[dest], argparse._AppendAction) and getattr(args, dest)):
                sub.set_defaults(**{dest: value})
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = _apply_config(parser, list(argv) if argv is not None else sys.argv[1:])
        missing = [n for n in (*_REQUIRED[args.command], "out") if getattr(args, n) in (None, [])]
        if missing:
            flags = ", ".join("--" + n.replace("_", "-") for n in missing)
            raise InputSpecError(f"missing required option(s): {flags} (flag or config file)")
        inputs, outputs = args.func(args)
        outputs["provenance.json"] = partial(write_json, {
            "command": args.command,
            "parameters": _param_dict(args),
            "inputs": {p: _hash_tree(Path(p)) for p in sorted(set(inputs))},
        })
        _write_outputs(Path(args.out), outputs)
        return EXIT_OK
    except (ComputeError, *_INPUT_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE_ERROR if isinstance(exc, ComputeError) else EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
