"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-serial --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the same inputs untraced and then traced and reports
the per-layer metrics, including the tracing overhead.  Metric names and
units come from ``BENCHMARK.json``; workload parameters from
``perfbench/workloads.json``.  Human-readable lines go first; the last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import atexit
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _absent(name: str, absent) -> bool:
    return any(name == base or name.startswith(base + ".") for base in absent)


def layer_metrics(trace: dict):
    """Lookup from per-layer metric name to its value in a traced pass.

    ``None`` marks a metric whose layer target is absent from the program.
    """
    totals = trace["totals"]
    spans, amounts, absent = totals["spans"], totals["amounts"], totals["absent"]

    def seconds(span):
        return None if _absent(span, absent) else spans.get(span, [0.0, 0])[0]

    def calls(span):
        return None if _absent(span, absent) else spans.get(span, [0.0, 0])[1]

    def amount(span, what):
        return None if _absent(span, absent) else amounts.get(f"{span}.{what}", 0)

    def minus(total, *parts):
        if total is None or any(part is None for part in parts):
            return None
        return total - sum(parts)

    records = amount("serve.ingest", "records")
    encoded = amount("durability.encode", "bytes")
    values = {
        "core.groups": trace["groups"],
        "core.dynamic.splits": calls("core.dynamic.split"),
        "core.generate.records": amount("core.generate", "records"),
        "parallel.payload_bytes": amount("parallel.publish", "bytes"),
        "parallel.wait.s": minus(seconds("parallel.condense_sharded"),
                                 seconds("parallel.partition"), seconds("parallel.publish")),
        "parallel.speedup_vs_sharded_serial": trace.get("speedup_vs_sharded_serial", 0.0),
        "durability.encoded_bytes_per_record": (
            None if records is None or encoded is None
            else encoded / records if records else 0.0),
        "serve.http_overhead.s": minus(seconds("serve.request.ingest"), seconds("serve.ingest")),
        "serve.ingest_other.s": minus(seconds("serve.ingest"), seconds("serve.route"),
                                      seconds("serve.condense")),
        "serve.process.cpu_s": totals.get("cpu_s", 0.0),
        "client.lateness_ms.p50": trace.get("lateness_p50_ms", 0.0),
        "client.lateness_ms.max": trace.get("lateness_max_ms", 0.0),
        "client.inflight_max": trace.get("inflight_max", 0),
        "trace.overhead_ratio": trace["overhead_ratio"],
    }

    def lookup(name):
        if name in values:
            return values[name]
        span, _, what = name.rpartition(".")
        return calls(span) if what == "calls" else seconds(span)

    return lookup


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import common

    # Registered before the program is imported, so it runs after the
    # program's own exit hooks (atexit is last-in, first-out).
    atexit.register(common.stop_child_processes)
    workloads = common.load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    spec = workloads[arguments.workload]
    if spec["kind"] == "batch":
        from perfbench import batch as runner
    else:
        from perfbench import serve as runner
    result = runner.run(arguments.workload, spec, arguments.seed, arguments.seconds,
                        bool(arguments.trace))

    checks = result["checks"]
    print(f"workload {arguments.workload} seed {arguments.seed}: "
          f"{checks.passed} checks passed, {len(checks.failures)} failed")
    if arguments.trace:
        lookup = layer_metrics(result["trace"])
        declared = benchmark["per_layer"]
        metrics = {entry["name"]: common.metric(lookup(entry["name"]), entry["unit"])
                   for entry in declared}
    else:
        declared = benchmark["end_to_end"]
        metrics = {entry["name"]: result["e2e"][entry["name"]] for entry in declared}
        for name, entry in result["info"].items():
            print(f"  {name:<34} {entry['value']:>16.6g} {entry['unit']}")
    for name, entry in metrics.items():
        shown = "absent" if entry["value"] is None else f"{entry['value']:16.6g}"
        print(f"  {name:<34} {shown:>16} {entry['unit']}")
    print(json.dumps({"correct": checks.correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    sys.stdout.flush()
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
