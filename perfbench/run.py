"""G-CARE end-to-end benchmark.

    python3 perfbench/run.py --workload sweep-aids --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the last stdout line
is the end-to-end result; with ``--trace 1`` the workload runs once
traced, then the layer ladder runs, and the last line carries the
per-layer metrics (spans and details go to
``.perfbench/out/<workload>-seed<n>/``).  Exit status 1 means an answer
did not match its reference; ``NOTES.md`` explains the workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a SIGTERM unwinds through the finally blocks that stop the daemons
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("perfbench: run from a checkout root holding src/repro",
              file=sys.stderr)
        return 2
    state = root / ".perfbench"
    # before any import of the program: these are read at import time,
    # and spawned processes inherit them
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    os.environ["PERFBENCH_CACHE"] = str(state / "cache")
    os.environ["GCARE_WORKLOAD_DIR"] = str(state / "cache" / "workloads")
    os.environ["GCARE_NATIVE_CACHE"] = str(state / "cache" / "kernels")
    sys.path[:0] = [str(src), str(HERE)]

    from harness import adopt_orphans, reap_descendants

    adopt_orphans()
    try:
        return measure(parser, args, root, state)
    finally:
        # every process the run started, and every one they left behind,
        # has ended before the benchmark exits
        gc.collect()
        for command in reap_descendants():
            print(f"perfbench: stopped leftover process: {command}",
                  file=sys.stderr)


def measure(parser, args, root: Path, state: Path) -> int:
    from harness import NoTracer, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    # an untraced run does ``repeats`` cold repetitions (set-ups, for the
    # sweep); the traced pass does one
    workload, repeats = WORKLOADS[args.workload]
    out = state / "out" / f"{args.workload}-seed{args.seed}"
    out.mkdir(parents=True, exist_ok=True)

    if not args.trace:
        outcome = workload(args.seed, args.seconds, NoTracer(), repeats, out)
        outcomes = [outcome]
        values = outcome.metrics
    else:
        from harness import span_cost_s
        from ladder import run_ladder

        # the traced pass does one repetition's share of the work
        tracer = Tracer()
        started = time.perf_counter()
        traced = workload(args.seed, args.seconds / repeats, tracer, 1, out)
        wall = time.perf_counter() - started
        spans = len(tracer.spans)
        values, breakdown = run_ladder(args.workload, args.seed, tracer)
        values.update(
            worker_busy_frac=traced.detail["busy_frac"],
            # what the pass's spans cost, against its wall time
            trace_overhead_pct=100.0 * spans * span_cost_s() / wall,
        )
        tracer.dump(out / "spans.jsonl")
        (out / "layers.json").write_text(json.dumps({
            "traced": traced.metrics,
            "traced_detail": traced.detail,
            "traced_spans": spans,
            "layers": breakdown,
        }, indent=1, default=str))
        outcomes = [traced]

    # BENCHMARK.json names the metrics a result carries, and their units
    spec = json.loads((root / "BENCHMARK.json").read_text())
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in spec["per_layer" if args.trace else "end_to_end"]
    }
    mismatches = [m for o in outcomes for m in o.mismatches]
    if args.trace:
        mismatches += breakdown["mismatches"]
    for line in mismatches[:20]:
        print(f"MISMATCH {line}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "detail": outcomes[-1].detail,
    }, default=str))
    print(json.dumps({
        "correct": not mismatches,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
