"""Interleaved timings of `measures.exact_wilson` at seeded rational points:
the first point on a cold complex (exact-table construction plus one
evaluation), the rise of peak RSS over that first point, and the median of
the next points (rational evaluation).

    python3 scripts/exact_point_bench.py --arm parent=PARENT/src --arm change=src \
        --rounds 5

Each arm is NAME=SRC, where SRC is a `src` directory to import `cpp_lab`
from.  The cases are the 2x2 box at q=2, the 1x2 box at q=3 and the 2x2
box at q=3 (d=2, i=1, the boundary loop of the box, as on perfbench's
exact grid), at points k2, k1 = a/b with a, b in 1..9 drawn from the seed,
so all arms time the same points.  Each round runs every case of every arm
once, in a fresh process each, arms in alternating order.  Prints one JSON
object.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

CASES = {"box22-q2": ((2, 2), 2), "box12-q3": ((1, 2), 3), "box22-q3": ((2, 2), 3)}
KEYS = ("cold_ms", "warm_ms", "cold_rss_rise_mb", "peak_rss_mb")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def child(src: str, case: str, seed: int, points: int) -> None:
    """Time one case on a cold complex and print the timings as JSON."""
    sys.path.insert(0, src)
    from cpp_lab import measures, observables
    from cpp_lab.complexes import build_box

    widths, q = CASES[case]
    X = build_box(2, list(widths))
    gamma = observables.rect_loop(widths[1], 2, X, q, width=widths[0]).gamma
    rng = random.Random(seed)
    times = []
    for _ in range(points + 1):
        k2, k1 = (Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2))
        rss = _maxrss_mb()
        t0 = time.perf_counter()
        measures.exact_wilson(measures.ModelParams(q=q, i=1, k2=k2, k1=k1), X, gamma)
        times.append(time.perf_counter() - t0)
        if len(times) == 1:
            rise = _maxrss_mb() - rss
    print(json.dumps({"cold_ms": 1e3 * times[0], "warm_ms": 1e3 * statistics.median(times[1:]),
                      "cold_rss_rise_mb": rise, "peak_rss_mb": _maxrss_mb()}))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--arm", action="append", required=True, help="NAME=SRC")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--points", type=int, default=50, help="warm points after the first")
    ap.add_argument("--seed", type=int, default=41)
    args = ap.parse_args(argv)
    arms = {}
    for arm in args.arm:
        name, _, src = arm.partition("=")
        arms[name] = os.path.abspath(src)
    results = {name: {case: [] for case in CASES} for name in arms}
    for r in range(args.rounds):
        order = list(arms) if r % 2 == 0 else list(arms)[::-1]
        for case in CASES:
            for name in order:
                out = subprocess.run([sys.executable, __file__, "--child", arms[name], case,
                                      str(args.seed), str(args.points)],
                                     capture_output=True, text=True, check=True,
                                     env={**os.environ, "OMP_NUM_THREADS": "1"})
                results[name][case].append(json.loads(out.stdout))
    first = next(iter(arms))
    summary = {}
    for name, cases in results.items():
        summary[name] = {}
        for case, runs in cases.items():
            row = {key: statistics.median(run[key] for run in runs) for key in KEYS}
            if name != first:
                for key in ("cold_ms", "warm_ms"):
                    row[key.replace("_ms", "_ratio")] = row[key] / summary[first][case][key]
                row["warm_rounds_faster"] = sum(
                    a["warm_ms"] < b["warm_ms"] for a, b in zip(runs, results[first][case]))
            summary[name][case] = row
    print(json.dumps({"cases": {name: {"widths": w, "q": q} for name, (w, q) in CASES.items()},
                      "seed": args.seed, "points": args.points, "rounds": args.rounds,
                      "arms": arms, "summary": summary, "runs": results}))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], sys.argv[3], int(sys.argv[4]), int(sys.argv[5]))
    else:
        main()
