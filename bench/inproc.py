"""In-process runs of one workload, untraced and traced, for the per-layer metrics.

Run by ``run.py --trace 1`` in a fresh interpreter with the checkout's
``src`` on ``PYTHONPATH``:

    python3 bench/inproc.py --spec SPEC.json --result TRACE.json --seconds S

SPEC.json holds the CLI argv lists of one workload run and its ``--out`` root.
After one discarded warm-up pass, untraced and traced passes alternate until
``S`` seconds have passed.  A traced pass wraps every public function of each
``stoplemma`` module, in every module namespace that holds it, so each call
records a span (name, start, end, parent, run id) in memory; counts are taken
at the same boundaries.  The spans and counts are written to TRACE.json when
the run ends.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import shutil
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import spans
import workloads

MODULES = ("cli", "corpus", "normalize", "lemma", "freq", "induce", "stats", "assess")
# private functions wrapped as well, because a count is taken at their boundary
EXTRA = {"cli._sha256"}
MAX_PAIRS = 5


def _boundary_counts(counts: Counter) -> dict:
    """Counts taken after a wrapped call returns, keyed by the qualified name."""

    def load_corpus(a, result):
        counts["corpus.documents"] += len(result.documents)
        counts["corpus.bytes_read"] += sum((Path(a["root"]) / d.path).stat().st_size
                                           for d in result.documents)

    def count_document_words(a, result):
        counts["freq.tokens_kept"] += sum(result.values())

    def count_words(a, result):
        counts["freq.types"] += result.unique_count

    def lemma_table(a, result):
        words, entries = a["words"].counts, a["lex"].entries
        counts["lemma.types"] += len(words)
        counts["lemma.oov_types"] += sum(1 for w in words if w not in entries)

    def write_tsv(a, result):
        counts["freq.rows_written"] += len(a["ranked"].entries)

    def read_ranked_tsv(a, result):
        counts["freq.rows_read"] += len(result.entries)

    def load_lexicon(a, result):
        counts["lemma.lexicon_entries"] += result.entry_count

    def assess_coverage(a, result):
        counts["assess.mapped_lemmas"] += len(result.mapped_lemma_set)
        counts["assess.hits"] += len(result.hits)

    def sha256(a, result):
        counts["cli.bytes_hashed"] += Path(a["path"]).stat().st_size

    def size_of(key):
        def hook(a, result):
            counts[key] += len(result)
        return hook

    return {
        "corpus.load_corpus": load_corpus,
        "freq.count_document_words": count_document_words,
        "freq.count_words": count_words,
        "freq.lemma_table": lemma_table,
        "freq.write_tsv": write_tsv,
        "freq.read_ranked_tsv": read_ranked_tsv,
        "lemma.load_lexicon": load_lexicon,
        "assess.assess_coverage": assess_coverage,
        "cli._sha256": sha256,
        "induce.build_set_a": size_of("induce.set_a_size"),
        "induce.build_set_b": size_of("induce.set_b_size"),
        "induce.build_final_list": size_of("induce.final_size"),
    }


class Tracer:
    """Records spans into flat arrays; ``install`` and ``uninstall`` patch the package."""

    HOOK = "trace.hooks"

    def __init__(self, modules: dict):
        self.modules = modules
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.hooks = _boundary_counts(self.counts)
        self.patches: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, qualname: str, fn):
        nid, hook_id = self._id(qualname), self._id(self.HOOK)
        start, end, name, parent, stack = self.start, self.end, self.name, self.parent, self.stack
        clock = time.perf_counter_ns
        hook = self.hooks.get(qualname)
        signature = inspect.signature(fn)

        def open_span(span_name):
            idx = len(start)
            name.append(span_name)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            return idx

        def wrapper(*args, **kwargs):
            idx = open_span(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx], end[idx] = t0, t1
            if hook is not None:
                # the count's own cost is a span of its own, outside every layer
                idx = open_span(hook_id)
                t0 = clock()
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(bound.arguments, result)
                finally:
                    t1 = clock()
                    stack.pop()
                    start[idx], end[idx] = t0, t1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        targets = {}
        for short, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                qual = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or qual in EXTRA)
                        and not inspect.isgeneratorfunction(obj)):
                    targets[id(obj)] = (obj, self._wrap(qual, obj))
                    self.wrapped.add(qual)
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    self.patches.append((mod, attr, obj))
                    setattr(mod, attr, targets[id(obj)][1])
        # tokens scanned: the word-run match lists that freq hands to Counter
        counts = self.counts
        freq = self.modules["freq"]
        base = getattr(freq, "Counter", None)
        if base is not None:
            class ScanCounter(base):
                def update(self, iterable=None, /, **kwds):
                    if isinstance(iterable, list):
                        counts["freq.tokens_scanned"] += len(iterable)
                    super().update(iterable, **kwds)

            self.patches.append((freq, "Counter", base))
            freq.Counter = ScanCounter

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self.patches):
            setattr(mod, attr, obj)
        self.patches.clear()


def run_pass(cli, argvs: list[list[str]], out: Path) -> tuple[float, list[int]]:
    shutil.rmtree(out, ignore_errors=True)
    wall, codes = 0.0, []
    for argv in argvs:
        t0 = time.perf_counter()
        codes.append(cli.main(list(argv)))  # looked up per call: traced passes see the wrapper
        wall += time.perf_counter() - t0
    return wall, codes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    argvs, out = spec["argvs"], Path(spec["out"])

    modules = {m: importlib.import_module(f"stoplemma.{m}") for m in MODULES}
    src = (Path.cwd() / "src").resolve()
    if src not in Path(modules["cli"].__file__).resolve().parents:
        print(f"stoplemma imported from {modules['cli'].__file__}, not {src}", file=sys.stderr)
        return 2
    cli = modules["cli"]

    run_pass(cli, argvs, out)  # warm-up, discarded
    tracer = Tracer(modules)
    passes = []
    deadline = time.perf_counter() + args.seconds
    while not passes or (time.perf_counter() < deadline and len(passes) < MAX_PAIRS):
        pair = {}
        # alternate which pass of the pair runs first, so drift does not
        # bias the overhead estimate
        for traced in ((False, True) if len(passes) % 2 == 0 else (True, False)):
            if traced:
                first_span = len(tracer.start)
                tracer.counts.clear()
                tracer.install()
            try:
                wall, codes = run_pass(cli, argvs, out)
            finally:
                if traced:
                    tracer.uninstall()
            label = "traced" if traced else "untraced"
            pair[label] = {"wall_s": wall, "codes": codes, "digest": workloads.tree_digest(out)}
        pair["spans"] = [first_span, len(tracer.start)]
        pair["counts"] = dict(tracer.counts)
        passes.append(pair)

    run_ids = array("i", [0]) * len(tracer.start)
    for k, p in enumerate(passes):
        lo, hi = p["spans"]
        run_ids[lo:hi] = array("i", [k]) * (hi - lo)
    result = Path(args.result)
    spans.write_spans(result.with_suffix(".spans"), {
        "name": tracer.name, "parent": tracer.parent, "run": run_ids,
        "start": tracer.start, "end": tracer.end})
    result.write_text(json.dumps({
        "names": tracer.names,
        "wrapped": sorted(tracer.wrapped),
        "passes": passes,
        "span_count": len(tracer.start),
    }), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
