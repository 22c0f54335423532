"""Run one benchmark workload and print its metrics.

Run from the repository root (the package is imported from ``src/``):

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

A run repeats whole sweeps of the workload's items, in an order shuffled
by ``--seed``, while another sweep still fits in ``--seconds`` (at least
one sweep).  Caches start cold as in a fresh CLI invocation: once per
sweep on the verify workloads (one ``verify`` call), once per item on
``certify-cold`` (one call per check).  Every answer is checked against
``perfbench/reference.jsonl`` as soon as its sweep ends, outside the
timed region.

``--trace 0`` prints the end-to-end metrics, medians over the run's
sweeps: ``cpu_s`` (process CPU time from the first item to the end of
the last, report serialisation included), ``item_cpu_p50_ms`` and
``item_cpu_p90_ms`` (per-item CPU time, pooled over the sweeps),
``correct_frac``, ``routes_per_charpoly``,
``setup_s`` (median CPU time of several fresh interpreters importing
the package and generating the inputs) and ``peak_rss_mb`` (``ru_maxrss``
of the run's process, which also holds the reference answers).  ``--trace 1``
alternates untraced and traced sweeps and prints the per-layer metrics
instead: per traced layer its ``calls`` and its busy and self CPU time
as a share of the traced sweep's CPU time (``trace.cpu_s``; a layer a
workload never calls reads 0), the exact counters, and the tracing
overhead.  The spans, in CPU seconds, go to
``.bench_out/spans-<workload>-seed<seed>.jsonl``.

Times are CPU time, not elapsed time: the program is single-threaded and
CPU-bound, and on a shared virtual machine the elapsed time of a sweep
also carries the host's descheduling, which varied by several percent
between runs.  The elapsed time of every sweep is still printed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--record FILE``
also appends ``{"workload", "seed", "trace", "result"}`` to FILE as one
JSON line, the input of ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 9
CAP_ENV_VAR = "DIGRAPH_SPECTRA_CAP"


def import_package() -> None:
    """Put the checkout's ``src`` first on the path and import from it."""
    init = SRC / "digraph_spectra" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no package source at {init}")
    sys.path.insert(0, str(SRC))
    import digraph_spectra

    if Path(digraph_spectra.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported {digraph_spectra.__file__}, not {init}")


@dataclass
class Sweep:
    wall_s: float
    cpu_s: float
    item_cpu_s: list[float]  # process CPU seconds per item
    outputs: dict
    doc: object  # report JSON text, None, or the exception it raised
    cache_hits: int
    cache_misses: int
    tracer: object = None


def run_sweep(workloads, order, canonical, cold_items: bool, tracer=None) -> Sweep:
    """Run every item once; with ``cold_items`` each item starts from a
    cold cache (one CLI invocation per item), else the sweep does."""
    workloads.clear_caches()
    clock, cpu_clock = time.perf_counter, time.process_time
    outputs: dict = {}
    item_cpu_s: list[float] = []
    hits = misses = 0
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        start, cpu_start = clock(), cpu_clock()
        for item in order:
            if cold_items:
                info = workloads.CYCLOTOMIC.cache_info()
                hits, misses = hits + info.hits, misses + info.misses
                workloads.clear_caches()
            c0 = cpu_clock()
            try:
                output = workloads.run_item(item)
            except Exception as err:  # counted as a failed item
                output = err
            item_cpu_s.append(cpu_clock() - c0)
            outputs[item.key] = output
        try:
            doc = workloads.report_doc(canonical, outputs)
        except Exception as err:
            doc = err
        wall, cpu = clock() - start, cpu_clock() - cpu_start
    info = workloads.CYCLOTOMIC.cache_info()
    return Sweep(
        wall, cpu, item_cpu_s, outputs, doc,
        hits + info.hits, misses + info.misses, tracer,
    )


class Checker:
    """Checks each sweep's answers as soon as the sweep ends, then drops
    them, so memory does not grow with the number of sweeps.  One answer
    per item plus, on the verify workloads, the report document."""

    def __init__(self, workloads, workload: str, canonical, reference: dict):
        self.workloads = workloads
        self.canonical = canonical
        self.reference = reference
        self.summary_key = workloads.summary_key(workload)
        self.attempted = 0
        self.failures: list[str] = []
        self.routes_per_charpoly = None
        self.skipped = None

    def digest(self, sweep: Sweep) -> None:
        w = self.workloads
        for item in self.canonical:
            self.attempted += 1
            if item.key not in self.reference:
                self.failures.append(f"{item.key}: no reference answer")
                continue
            try:
                problem = w.check_item(item, sweep.outputs[item.key], self.reference[item.key])
            except Exception as err:  # an answer of an unexpected shape
                problem = f"check raised {err!r}"
            if problem is not None:
                self.failures.append(f"{item.key}: {problem}")
        if sweep.doc is not None:
            self.attempted += 1
            if isinstance(sweep.doc, BaseException):
                problem = f"raised {sweep.doc!r}"
            else:
                problem = w.check_report(
                    self.canonical, sweep.outputs, sweep.doc, self.reference.get(self.summary_key)
                )
            if problem is not None:
                self.failures.append(f"{self.summary_key}: {problem}")
        if self.routes_per_charpoly is None:
            self.routes_per_charpoly = w.routes_per_charpoly(self.canonical, sweep.outputs)
            self.skipped = sum(
                1 for out in sweep.outputs.values() if getattr(out, "skipped", None) is not None
            )
        sweep.outputs = sweep.doc = None


def measure(workloads, workload, order, canonical, seconds: float, traced: bool, checker: Checker):
    """Untraced sweeps, or (untraced, traced) pairs, while another fits."""
    from tracer import Tracer

    cold = workload in workloads.COLD_PER_ITEM
    plain: list[Sweep] = []
    with_trace: list[Sweep] = []
    begin = time.perf_counter()
    rounds = 0
    while True:
        plain.append(run_sweep(workloads, order, canonical, cold))
        checker.digest(plain[-1])
        if traced:
            with_trace.append(run_sweep(workloads, order, canonical, cold, Tracer()))
            checker.digest(with_trace[-1])
        rounds += 1
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / rounds > seconds:
            return plain, with_trace


def measure_setup(workload: str, seed: int) -> list[float]:
    """CPU time of fresh interpreters that import the package and build
    the inputs (their elapsed time on a shared machine is mostly noise)."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-only",
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=60)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        times.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
    return times


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99) by statistics.quantiles' default method."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end_metrics(checker: Checker, sweeps, setup_times, peak_rss_mb):
    pooled_cpu = [t for sweep in sweeps for t in sweep.item_cpu_s]
    return {
        "cpu_s": (statistics.median(s.cpu_s for s in sweeps), "s"),
        "item_cpu_p50_ms": (percentile(pooled_cpu, 50) * 1e3, "ms"),
        "item_cpu_p90_ms": (percentile(pooled_cpu, 90) * 1e3, "ms"),
        "correct_frac": (1 - len(checker.failures) / checker.attempted, "frac"),
        "routes_per_charpoly": (checker.routes_per_charpoly, "routes"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer_metrics(checker: Checker, plain, traced):
    from tracer import LAYERS

    stats = [s.tracer.layer_stats() for s in traced]
    first = stats[0]
    out: dict = {}
    for layer in LAYERS:
        name = layer.name
        out[f"{name}.calls"] = (first[name]["calls"], "count")
        for kind in ("busy", "self"):
            shares = (st[name][f"{kind}_s"] / s.cpu_s for st, s in zip(stats, traced))
            out[f"{name}.{kind}_share"] = (statistics.median(shares), "share")
    probes = traced[0].tracer.probes
    cert_calls = first["spectra.triangular_certificate"]["calls"]
    found = probes.get("spectra.triangular_certificate.found", 0)
    hits, misses = traced[0].cache_hits, traced[0].cache_misses
    for key in ("spectra.minimal_polynomial.degree_sum", "exponents.exponent.iterations"):
        out[key] = (probes.get(key, 0), "count")
    out["spectra.triangular_certificate.found_frac"] = (
        found / cert_calls if cert_calls else 0.0,
        "frac",
    )
    out["polynomial.cyclotomic.misses"] = (misses, "count")
    out["polynomial.cyclotomic.hit_frac"] = (hits / (hits + misses) if hits + misses else 0.0, "frac")
    out["items.attempted"] = (len(checker.canonical), "count")
    out["items.skipped"] = (checker.skipped, "count")
    traced_cpu = statistics.median(s.cpu_s for s in traced)
    plain_cpu = statistics.median(s.cpu_s for s in plain)
    coverage = [
        sum(st[layer.name]["self_s"] for layer in LAYERS) / s.cpu_s
        for st, s in zip(stats, traced)
    ]
    out["trace.cpu_s"] = (traced_cpu, "s")
    out["trace.overhead_s"] = (traced_cpu - plain_cpu, "s")
    out["trace.coverage_frac"] = (statistics.median(coverage), "share")
    return out


def counts_repeat(traced) -> bool:
    calls = [{k: v["calls"] for k, v in s.tracer.layer_stats().items()} for s in traced]
    probes = [s.tracer.probes for s in traced]
    return all(c == calls[0] for c in calls) and all(p == probes[0] for p in probes)


def write_spans(workload: str, seed: int, traced) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for index, sweep in enumerate(traced):
            sweep.tracer.write_jsonl(fh, index)
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result as one JSON line to this file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}, expected one of {workloads.WORKLOADS}")
    canonical = workloads.canonical_items(args.workload)
    order = workloads.shuffled(canonical, args.seed)
    if args.setup_only:
        return 0
    os.environ.pop(CAP_ENV_VAR, None)  # measure the default configuration
    checker = Checker(workloads, args.workload, canonical, workloads.load_reference())

    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    plain, traced = measure(workloads, args.workload, order, canonical, args.seconds, bool(args.trace), checker)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, attempted = len(checker.failures), checker.attempted
    for line in checker.failures[:10]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    if args.trace:
        metrics = per_layer_metrics(checker, plain, traced)
        spans = write_spans(args.workload, args.seed, traced)
        print(f"# spans written to {spans.relative_to(ROOT)}")
        if not counts_repeat(traced):
            print("# warning: call counts differ between traced sweeps")
    else:
        metrics = end_to_end_metrics(checker, plain, setup_times, peak_rss_mb)
    samples = len(canonical) * len(plain)
    print(
        f"# {args.workload} seed={args.seed}: {len(plain)} untraced and {len(traced)} traced "
        f"sweep(s) of {len(canonical)} items ({samples} latency samples), "
        f"{failed}/{attempted} answers failed"
    )
    for sweep in plain + traced:
        kind = "untraced" if sweep.tracer is None else "traced"
        print(f"#   sweep ({kind}): wall {sweep.wall_s:.4f} s, cpu {sweep.cpu_s:.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:48s} {value:>14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.record:
        with open(args.record, "a") as fh:
            record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "result": result}
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
