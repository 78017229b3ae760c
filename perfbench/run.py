"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-ingest --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the same workload untraced and then traced, and prints
the per-layer metrics (and writes the spans under ``perfbench/out/``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import record
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    if args.workload == "paper-figures":
        result = workloads.run_figures(args.seed, args.seconds, trace,
                                       ROOT / "results")
    else:
        result = workloads.run_serving(args.workload, args.seed,
                                       args.seconds, trace)

    metrics, not_entered = {}, []
    for declared in declared_metrics(trace):
        name = declared["name"]
        measured = result.metrics.get(name)
        if measured is None:
            if not trace:
                result.errors.append(f"metric {name} was not measured")
                result.failed += 1
                continue
            # Layers the workload never enters (serving layers while
            # figures regenerate, and the reverse) report zero.
            not_entered.append(name)
            measured = {"value": 0.0, "unit": declared["unit"]}
        metrics[name] = measured
    if not_entered:
        result.notes.append("layers not entered: " + " ".join(not_entered))

    env = record.environment(ROOT, args.workload, args.seed,
                             args.seconds, trace, result.sizes)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record.write(OUT_DIR / f"{stem}.json", env, metrics,
                 result.deterministic, result.errors)
    if result.tracer is not None:
        result.tracer.write(OUT_DIR / f"{stem}.spans.jsonl",
                            OUT_DIR / f"{stem}.chrome.json")

    print("env: " + json.dumps(env, sort_keys=True))
    for note in result.notes:
        print("note: " + note)
    for key, value in sorted(result.deterministic.items()):
        print(f"deterministic: {key} = {value!r}")
    for name, metric in metrics.items():
        print(f"metric: {name} = {metric['value']!r} {metric['unit']}")
    for error in result.errors:
        print("CHECK FAILED: " + error)
    correct = not result.errors and result.failed == 0
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
