"""Interleaved timings of one spin draw: `homology.cocycle_system` plus
`CocycleSystem.sample`, on fixed percolation pairs of a d=3 box, i = 1.

    python3 scripts/spin_draw_bench.py --side 12 --q 2 --point 0.9,0.1 \
        --arm parent=PARENT/src --arm gauge=src:gauge --rounds 5

Each arm is NAME=SRC[:ROUTE], where SRC is a `src` directory to import
`cpp_lab` from and ROUTE forces one route of `cocycle_system` on every size:
`gauge` or `elimination`.  Without ROUTE the code decides as it ships.
The pairs are the (P2, P1) states of sweeps 6-25 of one seeded chain,
drawn once in this process and handed to every arm, so all arms time the
same systems.  Each round runs every arm once, in a fresh process each,
in alternating order; an arm's result for a round is the median over 3
passes of the 20 pairs.  Against the first arm, every other arm gets
`ratio` (of the medians over rounds), `rounds_faster` and `paired_ratio`
(the median over rounds of the ratio within a round).  Besides the times
it reports `rank_mean`, the mean rank of the eliminated rows, and on the
gauge path `width_mean`, the mean number of unknown edges W left after
the peel (null on the elimination), so that a weaker peel shows.  Prints
one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def child(src: str, route: str, pairs_file: str) -> None:
    """Time one arm on the pickled pairs and print its medians as JSON."""
    sys.path.insert(0, src)
    import numpy as np
    from cpp_lab import homology
    from cpp_lab.complexes import build_box

    with open(pairs_file, "rb") as fh:
        side, q, pairs = pickle.load(fh)
    if route == "gauge":
        homology._GAUGE_MIN_EDGES = 0
    elif route == "elimination":
        homology._GAUGE_MIN_EDGES = float("inf")
    X = build_box(3, [side] * 3)
    rng = np.random.default_rng(0)
    build, draw, rows, width = [], [], [], []
    for _ in range(3):
        for bits2, bits1 in pairs:
            X.cache.pop("cocycle_system", None)
            t0 = time.perf_counter()
            system = homology.cocycle_system(X, 1, q, bits2, bits1)
            t1 = time.perf_counter()
            system.sample(rng)
            t2 = time.perf_counter()
            build.append(t1 - t0)
            draw.append(t2 - t1)
            rows.append(len(system.pivots) if system.pivots is not None else system.red.rank)
            if system.gauge is not None:
                width.append(system.n_i)
    total = [a + b for a, b in zip(build, draw)]
    print(json.dumps({"ms": 1e3 * statistics.median(total),
                      "build_ms": 1e3 * statistics.median(build),
                      "draw_ms": 1e3 * statistics.median(draw),
                      "rank_mean": statistics.mean(rows),
                      "width_mean": statistics.mean(width) if width else None}))


def make_pairs(side: int, q: int, p2: float, p1: float, seed: int) -> list[tuple[int, int]]:
    sys.path.insert(0, str(ROOT / "src"))
    from cpp_lab import sampler
    from cpp_lab.complexes import build_box

    X = build_box(3, [side] * 3)
    cfg = sampler.RunConfig(q=q, i=1, p2=p2, p1=p1, n_samples=1, seed=seed)
    state = sampler.init_state(X, cfg)
    pairs = []
    for k in range(25):
        state = sampler.sweep(state, cfg, X)
        if k >= 5:
            pairs.append((state.P2.bits, state.P1.bits))
    return pairs


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--side", type=int, required=True)
    ap.add_argument("--q", type=int, required=True, choices=(2, 3))
    ap.add_argument("--point", required=True, help="p2,p1")
    ap.add_argument("--arm", action="append", required=True, help="NAME=SRC[:ROUTE]")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--seed", type=int, default=41)
    args = ap.parse_args(argv)
    p2, p1 = (float(v) for v in args.point.split(","))
    arms = {}
    for arm in args.arm:
        name, _, spec = arm.partition("=")
        src, _, route = spec.partition(":")
        arms[name] = (str(Path(src).resolve()), route or "shipped")
    with tempfile.NamedTemporaryFile(suffix=".pkl", delete=False) as fh:
        pickle.dump((args.side, args.q, make_pairs(args.side, args.q, p2, p1, args.seed)), fh)
    results = {name: [] for name in arms}
    try:
        for r in range(args.rounds):
            order = list(arms) if r % 2 == 0 else list(arms)[::-1]
            for name in order:
                src, route = arms[name]
                out = subprocess.run([sys.executable, __file__, "--child", src, route, fh.name],
                                     capture_output=True, text=True, check=True,
                                     env={**os.environ, "OMP_NUM_THREADS": "1"})
                results[name].append(json.loads(out.stdout))
    finally:
        os.unlink(fh.name)
    first = next(iter(arms))
    summary = {}
    for name, runs in results.items():
        summary[name] = {key: statistics.median(run[key] for run in runs)
                         for key in ("ms", "build_ms", "draw_ms", "rank_mean")}
        # the same pairs in every round, so the same width
        summary[name]["width_mean"] = runs[0]["width_mean"]
        if name != first:
            summary[name]["ratio"] = summary[name]["ms"] / summary[first]["ms"]
            summary[name]["rounds_faster"] = sum(
                a["ms"] < b["ms"] for a, b in zip(runs, results[first]))
            # the machine's speed drifts between rounds; a round's arms run
            # back to back, so their ratio drifts less than their times
            summary[name]["paired_ratio"] = statistics.median(
                a["ms"] / b["ms"] for a, b in zip(runs, results[first]))
    print(json.dumps({"side": args.side, "q": args.q, "point": [p2, p1], "seed": args.seed,
                      "rounds": args.rounds,
                      "arms": {name: ":".join(arm) for name, arm in arms.items()},
                      "summary": summary, "runs": results}))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(*sys.argv[2:5])
    else:
        main()
