"""One workload process of the benchmark.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE [--tiny]

MODE is `setup` (stop once set-up is done), `plain` (an untraced run) or
`traced` (a run with span wrappers installed).  Prints one JSON object on
its last line of standard output; `run.py` starts it and reads it.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, spans, workloads  # noqa: E402

# Raw spans kept in the result file; the aggregates cover all of them.
SPANS_WRITTEN = 2000


def run_workload(w: workloads.Workload, seed: int, seconds: float, mode: str) -> dict:
    """Run `w` in this process and return what `run.py` needs from it."""
    tracer = spans.Tracer() if mode == "traced" else None
    missing: list[str] = []
    if tracer is None:
        rec, outcome = workloads.run(w, seed, seconds, mode == "setup")
    else:
        with spans.Instrumented(tracer) as inst:
            rec, outcome = workloads.run(w, seed, seconds, tracer=tracer)
        missing = inst.missing
    out = {"t_setup_end": rec.t_setup_end}
    if mode == "setup":
        return out
    intervals = rec.intervals()
    out.update(intervals=intervals, digests=rec.digests, attempted=rec.attempted,
               failed=rec.failed, messages=rec.messages, missing=missing,
               rate_from=rec.warmup, pct_from=outcome["pct_from"],
               estimates=outcome["estimates"],
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        timed = intervals[rec.warmup:]
        span_list = tracer.span_list()
        metrics, details = layers.layer_metrics(span_list, tracer, sum(timed), len(timed))
        origin = rec.t_setup_end
        out.update(layers=metrics, details=details, counters=tracer.counters,
                   spans=[(n, p, a - origin, b - a) for n, p, a, b in span_list[:SPANS_WRITTEN]],
                   spans_total=len(span_list))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("seconds", type=float)
    ap.add_argument("mode", choices=("setup", "plain", "traced"))
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    if args.tiny:
        w = workloads.tiny(w)
    print(json.dumps(run_workload(w, args.seed, args.seconds, args.mode)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
