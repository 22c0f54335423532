"""Write the reference answers and the baseline counts from the code at hand.

    python3 perfbench/make_reference.py

Run it only at a commit whose answers are trusted: every later run of the
benchmark checks its answers against ``reference.jsonl``.  The sympy
cross-check in ``test_perfbench.py`` keeps that trust from resting on
the program alone.  ``baseline_counts.json`` holds the exact per-sweep
counts of a traced sweep of each workload (calls per layer, minimal
polynomial degree sum, exponent iterations, cyclotomic cache misses and
hit share, certificates found), for later changes to cite as counts.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
COUNTS_PATH = HERE / "baseline_counts.json"


def main() -> int:
    run.import_package()
    import tracer
    import workloads

    records = []
    counts = {}
    for workload in workloads.WORKLOADS:
        canonical = workloads.canonical_items(workload)
        cold = workload in workloads.COLD_PER_ITEM
        sweep = run.run_sweep(workloads, canonical, canonical, cold, tracer.Tracer())
        answers = {}
        for item in canonical:
            output = sweep.outputs[item.key]
            if isinstance(output, BaseException):
                raise SystemExit(f"{item.key} raised {output!r}")
            answers[item.key] = workloads.answer_of(item, output)
        if sweep.doc is not None:
            summary = json.loads(sweep.doc)["summary"]
            answers[workloads.summary_key(workload)] = workloads.summary_answer(summary)
        # Re-check the sweep against its own answers: this applies the
        # checks that do not compare with the reference (routes agree,
        # certificates are valid staircases, report rows match).
        checker = run.Checker(workloads, workload, canonical, answers)
        checker.digest(sweep)
        if checker.failures:
            raise SystemExit("\n".join(checker.failures[:10]))
        records += [{"key": key, "answer": answer} for key, answer in answers.items()]
        metrics = run.per_layer_metrics(checker, [sweep], [sweep])
        counts[workload] = {
            name: value for name, (value, unit) in metrics.items() if unit in ("count", "frac")
        }
    with open(workloads.REFERENCE_PATH, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    with open(COUNTS_PATH, "w") as fh:
        json.dump(counts, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(records)} answers and counts for {len(counts)} workloads")
    return 0


if __name__ == "__main__":
    sys.exit(main())
