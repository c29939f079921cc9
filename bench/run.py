#!/usr/bin/env python3
"""Benchmark of the stoplemma CLI on seeded workloads.

Run from the root of a checkout; the program under test is ``./src``:

    python3 bench/run.py --workload induce-zipf --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload as a user would: one fresh
``python -m stoplemma.cli`` process per subcommand, one process at a time, in
a closed loop with a single client, and reports the end-to-end metrics.
``--trace 1`` reports the per-layer metrics of a separate traced in-process
run (see ``inproc.py``).  Every run's outputs are checked against the
generator's oracle and against the output-tree digest.  The lines printed
first are a readable report; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
CACHE = Path(".bench_cache")
DIGESTS = BENCH / "digests.json"
MODULES = ("cli", "corpus", "normalize", "lemma", "freq", "induce", "stats", "assess")
MIN_RUNS = 3
PROCESS_TIMEOUT_S = 120


class BenchError(Exception):
    pass


# -- processes -----------------------------------------------------------------

def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(Path("src").resolve()))


def spawn(argv: list[str], log: Path) -> tuple[int, os.struct_rusage]:
    """Run one process to its end; its rusage includes any workers it reaped.

    A process still running after PROCESS_TIMEOUT_S is killed, so a hung
    program fails its run instead of stalling the benchmark.
    """
    with log.open("ab") as err:
        proc = subprocess.Popen(argv, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def cli_argv(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "stoplemma.cli", *argv]


# -- inputs and digests --------------------------------------------------------

def prepare(wl: workloads.Workload, seed: int) -> Path:
    """Generate the workload's inputs once per (seed, generator source)."""
    root = CACHE / wl.name / f"seed-{seed}"
    stamp = root / "generator.sha256"
    key = workloads.generator_hash()
    if not (stamp.is_file() and stamp.read_text() == key):
        shutil.rmtree(root, ignore_errors=True)
        wl.generate(random.Random(seed), root)
        stamp.write_text(key)
    return root


def recorded_digest(workload: str, seed: int) -> str | None:
    data = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return data["digests"].get(workload) if seed == data["seed"] else None


# -- one run -------------------------------------------------------------------

def run_once(wl: workloads.Workload, root: Path, reference: str | None) -> dict:
    """One workload run: every subcommand in a fresh process, then the checks."""
    out = root / "out"
    shutil.rmtree(out, ignore_errors=True)
    errors: list[str] = []
    peak_kib, cpu_s = 0, 0.0
    t0 = time.perf_counter()
    for argv in wl.commands(root):
        code, usage = spawn(cli_argv(argv), root / "stderr.log")
        peak_kib = max(peak_kib, usage.ru_maxrss)
        cpu_s += usage.ru_utime + usage.ru_stime
        if code != 0:
            errors.append(f"{argv[0]} exited {code}; see {root / 'stderr.log'}")
            break
    wall_s = time.perf_counter() - t0
    if not errors:
        errors = wl.check(root)
    digest = workloads.tree_digest(out)
    if reference is not None and digest != reference:
        errors.append(f"output digest {digest} differs from {reference}")
    return {"wall_s": wall_s, "peak_rss_mib": peak_kib / 1024, "cpu_s": cpu_s,
            "digest": digest, "errors": errors}


def setup_once(root: Path) -> float:
    """Wall time of a fresh interpreter importing the CLI."""
    t0 = time.perf_counter()
    code, _ = spawn([sys.executable, "-c", "import stoplemma.cli"], root / "stderr.log")
    if code != 0:
        raise BenchError(f"import stoplemma.cli exited {code}; see {root / 'stderr.log'}")
    return time.perf_counter() - t0


def import_times(root: Path) -> dict[str, float]:
    """Cumulative import time of stoplemma.cli and stoplemma.stats, from -X importtime."""
    log = root / "importtime.log"
    log.unlink(missing_ok=True)
    code, _ = spawn([sys.executable, "-X", "importtime", "-c", "import stoplemma.cli"], log)
    if code != 0:
        raise BenchError(f"import stoplemma.cli exited {code}; see {log}")
    cumulative = {}
    for line in log.read_text(encoding="utf-8").splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return {"cli.import_s": cumulative.get("stoplemma.cli", 0.0),
            "stats.import_s": cumulative.get("stoplemma.stats", 0.0)}


# -- the two modes ---------------------------------------------------------------

def timed(wl: workloads.Workload, root: Path, seconds: float, reference: str | None):
    """Closed loop of workload runs, with a setup sample before every other one."""
    input_mib = sum(p.stat().st_size for p in wl.input_files(root)) / 2**20
    warm = run_once(wl, root, reference)  # discarded: fills the page cache and .pyc files
    setup_once(root)
    if reference is None:
        reference = warm["digest"]
    runs, setups = [], []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if len(runs) >= MIN_RUNS and elapsed + elapsed / len(runs) > seconds:
            break
        if len(runs) % 2 == 0:
            setups.append(setup_once(root))
        runs.append(run_once(wl, root, reference))
    good = [r for r in runs if not r["errors"]]
    if not good:
        raise BenchError(f"every one of {len(runs)} runs failed, so there is no timing; "
                         f"first failure: {runs[0]['errors'][0]}")
    series = {
        "wall_s": [r["wall_s"] for r in good],
        "input_mib_per_s": [input_mib / r["wall_s"] for r in good],
        "peak_rss_mib": [r["peak_rss_mib"] for r in good],
        "setup_s": setups,
    }
    return runs, series, {"input_mib": input_mib, "warm_up": warm}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, k: int) -> dict[str, float]:
    """Per-layer metrics of the k-th traced pass."""
    p = trace["passes"][k]
    lo, hi = p["spans"]
    sp = trace["span"]
    names = [trace["names"][i] for i in sp["name"][lo:hi]]
    parents = [i - lo if i >= 0 else -1 for i in sp["parent"][lo:hi]]
    self_ns = spans.self_time_by_name(names, sp["start"][lo:hi], sp["end"][lo:hi], parents)
    self_s = {name: t / 1e9 for name, t in self_ns.items()}
    calls = Counter(names)
    c = Counter(p["counts"])

    m = {f"{qual}_s": self_s.get(qual, 0.0) for qual in trace["wrapped"]}
    for mod in MODULES:
        m[f"{mod}.self_s"] = sum(t for name, t in self_s.items() if name.split(".")[0] == mod)
    m["stats.write_s"] = sum(self_s.get(f"stats.{f}", 0.0) for f in
                             ("write_overlap_tsv", "write_correlation_tsv", "write_correlation_json"))
    m["trace.wall_s"] = p["traced"]["wall_s"]
    m["trace.accounted_share"] = _ratio(sum(self_s.values()), m["trace.wall_s"])
    m["normalize.classify_calls"] = calls["normalize.classify"]
    m["stats.point_biserial_calls"] = calls["stats.point_biserial"]
    for key in ("corpus.bytes_read", "corpus.documents", "freq.tokens_scanned", "freq.rows_written",
                "freq.rows_read", "lemma.lexicon_entries", "induce.set_a_size", "induce.set_b_size",
                "induce.final_size", "cli.bytes_hashed"):
        m[key] = c[key]
    m["freq.kept_token_ratio"] = _ratio(c["freq.tokens_kept"], c["freq.tokens_scanned"])
    m["freq.types_per_classify"] = _ratio(c["freq.types"], calls["normalize.classify"])
    m["lemma.oov_rate"] = _ratio(c["lemma.oov_types"], c["lemma.types"])
    m["assess.coverage_ratio"] = _ratio(c["assess.hits"], c["assess.mapped_lemmas"])
    return m


def traced(wl: workloads.Workload, root: Path, seconds: float, reference: str | None):
    """An untraced CLI run for CPU time, import timing, then in-process pass pairs."""
    t0 = time.perf_counter()
    cli_run = run_once(wl, root, reference)
    if reference is None:
        reference = cli_run["digest"]
    imports = import_times(root)
    spec, result = root / "trace_spec.json", root / "trace.json"
    spec.write_text(json.dumps({"argvs": wl.commands(root), "out": str(root / "out")}), encoding="utf-8")
    remaining = max(0.0, seconds - (time.perf_counter() - t0))
    code, _ = spawn([sys.executable, str(BENCH / "inproc.py"), "--spec", str(spec),
                     "--result", str(result), "--seconds", f"{remaining:.3f}"], root / "stderr.log")
    if code != 0:
        raise BenchError(f"in-process trace exited {code}; see {root / 'stderr.log'}")
    trace = json.loads(result.read_text(encoding="utf-8"))
    trace["span"] = spans.read_spans(result.with_suffix(".spans"), trace["span_count"])

    runs = [cli_run]
    for p in trace["passes"]:
        for label in ("untraced", "traced"):
            codes, digest = p[label]["codes"], p[label]["digest"]
            errors = [f"in-process {label} pass exited {codes}"] if any(codes) else []
            if digest != reference:
                errors.append(f"in-process {label} output digest {digest} differs from {reference}")
            runs.append({"mode": f"in-process {label}", "digest": digest, "errors": errors})
    per_pass = [layer_metrics(trace, k) for k in range(len(trace["passes"]))]
    series = {name: [m[name] for m in per_pass] for name in per_pass[0]}
    # fastest traced minus fastest untraced pass: on a shared machine the
    # pairwise difference is mostly noise from other processes
    series["trace.overhead_s"] = [min(p["traced"]["wall_s"] for p in trace["passes"])
                                  - min(p["untraced"]["wall_s"] for p in trace["passes"])]
    series["cli.cpu_s"] = [cli_run["cpu_s"]]
    for name, value in imports.items():
        series[name] = [value]
    return runs, series, {"passes": len(per_pass)}


# -- reporting -------------------------------------------------------------------

def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    env = {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
           "platform": platform.platform()}
    for pkg in ("scipy", "numpy"):
        try:
            env[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            env[pkg] = None
    return env


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the stoplemma CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/stoplemma/cli.py").is_file() or not Path("BENCHMARK.json").is_file():
        print("error: run from the root of a stoplemma checkout (needs src/stoplemma and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    wl = workloads.WORKLOADS[args.workload]

    try:
        t0 = time.perf_counter()
        root = prepare(wl, args.seed)
        generate_s = time.perf_counter() - t0
        reference = recorded_digest(wl.name, args.seed)
        load_before = os.getloadavg()[0]
        mode = traced if args.trace else timed
        runs, series, extra = mode(wl, root, args.seconds, reference)
        load_after = os.getloadavg()[0]
        missing = [m["name"] for m in wanted if m["name"] not in series]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = sum(1 for r in runs if r["errors"])
    env = {**environment(), "load_1min_before": load_before, "load_1min_after": load_after}
    stats = {m["name"]: {**summary(series[m["name"]]), "unit": m["unit"]} for m in wanted}
    digests = sorted({r["digest"] for r in runs})
    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
              "generate_s": generate_s, "attempted": len(runs), "failed": failed,
              "fail_ratio": failed / len(runs), "digests": digests, "metrics": stats,
              "environment": env, **extra, "runs": runs}
    results = CACHE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str), encoding="utf-8")

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"runs {len(runs)}  failed {failed}  fail_ratio {failed / len(runs):.4f}")
    for r in runs:
        for e in r["errors"][:3]:
            print(f"  FAIL: {e}")
    print(f"  output digest(s): {', '.join(digests)}")
    for name, s in stats.items():
        print(f"  {name:34s} {s['median']:14.6g} {s['unit']:8s} "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")
    if args.trace:
        share = statistics.median(series["trace.accounted_share"])
        print(f"  module self times and count hooks cover {share:.2%} of the traced wall "
              f"(median of {extra['passes']} traced passes)")
    print(f"  environment: {json.dumps(env)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": s["median"], "unit": s["unit"]} for name, s in stats.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
