"""cpp-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports `cpp_lab` from its
`src/`; nothing needs building.  Every workload runs in fresh single-threaded
worker processes (`worker.py`):

* `--trace 0`: one untraced run of S seconds, with SETUP_PROBES processes
  that stop once set-up is done before it and as many after it.  Reports
  the end-to-end metrics.
* `--trace 1`: an untraced run and a traced run of S/2 seconds each, with
  the same seed.  Reports the per-layer metrics, checks that both runs
  produced the same sample series and measures the tracing overhead.

Prints a report, writes it to perfbench/results/, and prints as its last
line one JSON object with the keys correct, attempted, failed and metrics.
Exits 2 on a bad argument or when the checkout has no `src/cpp_lab`, and 1
when a worker process fails.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.layers import PER_LAYER, design_checks, median_p90  # noqa: E402

# Set-up is timed in this many extra processes before the measured run and
# as many after it; setup_s is the median of these and the measured run's.
SETUP_PROBES = 3
# Every run ends within this many seconds, whatever the worker processes do.
TIME_LIMIT_S = 170.0

# The end-to-end metrics of the result line.  The median sample time and the
# throughput are only reported: on a shared machine whose speed drifts by up
# to 2x over seconds they spread too widely between runs to be bounded,
# while the 90th percentile stays in the slow phases that every run has.
END_TO_END = (
    ("setup_s", "s"),
    ("sample_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
)

# Worker processes get one thread for every numeric library and a fixed
# string hash seed; nothing else about the machine is controlled.
WORKER_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    """A worker process failed; the run has no result."""


def parse_args(argv):
    from perfbench.workloads import WORKLOADS  # imports cpp_lab

    ap = argparse.ArgumentParser(description="cpp-lab benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="3^3 and 2x1 boxes in place of the real sizes (for tests)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error(f"--seed must be >= 0, got {args.seed}")
    if not args.seconds > 0:
        ap.error(f"--seconds must be > 0, got {args.seconds}")
    return args


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "controlled": "worker thread counts and hash seed only; other load on the "
                      "machine was not controlled",
    }


class Workers:
    """Starts worker processes within one overall time limit."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        self.base = [sys.executable, str(HERE / "worker.py"), workload, str(seed)]
        self.tail = ["--tiny"] if tiny else []
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = dict(os.environ, **WORKER_ENV)

    def run(self, seconds: float, mode: str) -> dict:
        cmd = self.base + [repr(seconds), mode] + self.tail
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  env=self.env, timeout=max(1.0, self.deadline - t_spawn))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker did not finish in time") from exc
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} worker exited with code {proc.returncode}")
        try:
            out = json.loads(lines[-1])
        except ValueError as exc:
            raise BenchError(f"{mode} worker printed no result") from exc
        out["setup_s"] = out["t_setup_end"] - t_spawn
        return out


def end_to_end(setups: list[float], run: dict) -> dict:
    """The END_TO_END metrics and the figures that are only reported."""
    iv = run["intervals"]
    rate = iv[run["rate_from"]:]
    pct = iv[run["pct_from"]:]
    if not rate or not pct:
        raise BenchError("the run finished no timed sample")
    p50, p90 = median_p90(pct)
    return {
        "setup_s": statistics.median(setups),
        "samples_per_s": len(rate) / sum(rate),
        "sample_ms.p50": p50 * 1e3,
        "sample_ms.p90": p90 * 1e3,
        "peak_rss_mb": run["peak_rss_mb"],
        "timed_samples": len(pct),
    }


def mean_interval(run: dict) -> float:
    rate = run["intervals"][run["rate_from"]:]
    if not rate:
        raise BenchError("the run finished no timed sample")
    return sum(rate) / len(rate)


def measure(args) -> tuple[dict, dict]:
    """Run the worker processes; return (result line, report)."""
    from perfbench.workloads import WORKLOADS

    workers = Workers(args.workload, args.seed, args.tiny)
    kind = WORKLOADS[args.workload].kind
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "machine": machine(),
              "loadavg_before": os.getloadavg()}
    if args.trace == 0:
        setups = [workers.run(args.seconds, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
        main = workers.run(args.seconds, "plain")
        setups.append(main["setup_s"])
        setups += [workers.run(args.seconds, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
        runs = [main]
        metrics = end_to_end(setups, main)
        units = dict(END_TO_END)
        report.update(setup_s_each=setups, estimates=main["estimates"],
                      reported={k: v for k, v in metrics.items() if k not in units})
        attempted, failed = main["attempted"], main["failed"]
    else:
        plain = workers.run(args.seconds / 2, "plain")
        traced = workers.run(args.seconds / 2, "traced")
        runs = [plain, traced]
        common = min(len(plain["digests"]), len(traced["digests"]))
        same = common > 0 and plain["digests"][common - 1] == traced["digests"][common - 1]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = mean_interval(traced) / mean_interval(plain) - 1
        units = dict(PER_LAYER)
        report.update(series_digest={"compared_samples": common, "match": same},
                      missing_targets=traced["missing"],
                      design=[{"check": text, "holds": ok}
                              for text, ok in design_checks(kind, metrics)],
                      layers=traced["details"], counters=traced["counters"],
                      spans_total=traced["spans_total"], spans=traced["spans"])
        attempted = plain["attempted"] + traced["attempted"] + 1
        failed = plain["failed"] + traced["failed"] + (0 if same else 1)
    report["loadavg_after"] = os.getloadavg()
    report["failures"] = [m for r in runs for m in r["messages"]]
    report["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    report["attempted"], report["failed"] = attempted, failed
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": report["metrics"]}
    return result, report


def print_report(report: dict) -> None:
    m = report["machine"]
    print(f"cpp-lab benchmark: {report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']}")
    print(f"machine: {m['nproc']} cpus ({m['cpus_usable']} usable), {m['cpu_model']}; "
          f"python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}")
    print(f"load average before {report['loadavg_before']}, after {report['loadavg_after']}; "
          f"{m['controlled']}")
    if "reported" in report:
        r = report["reported"]
        print(f"timed samples: {r['timed_samples']}; sample_ms.p50 {r['sample_ms.p50']:.6g} ms; "
              f"samples_per_s {r['samples_per_s']:.6g} 1/s")
        print("set-up runs: " + ", ".join(f"{s:.3f}" for s in report["setup_s_each"]) + " s")
        for name, (mean, err) in report["estimates"].items():
            print(f"estimate {name}: {mean:.5f} +- {err:.5f}")
    if "series_digest" in report:
        d = report["series_digest"]
        print(f"series digest over {d['compared_samples']} samples: "
              + ("match" if d["match"] else "MISMATCH"))
        for c in report["design"]:
            print(f"design: {c['check']}: {'yes' if c['holds'] else 'NO'}")
        if report["missing_targets"]:
            print("missing (not traced): " + ", ".join(report["missing_targets"]))
        print(f"{'layer':40s} {'calls':>9s} {'total_s':>9s} {'self_s':>9s} "
              f"{'self%':>6s} {'ms.p50':>9s} {'ms.p90':>9s}")
        for name, st in report["layers"].items():
            print(f"{name:40s} {st['calls']:9d} {st['total_s']:9.4f} {st['self_s']:9.4f} "
                  f"{100 * st['self_frac']:6.1f} {st['ms.p50']:9.3f} {st['ms.p90']:9.3f}")
    for name, mv in report["metrics"].items():
        print(f"  {name:44s} {mv['value']:14.6g} {mv['unit']}")
    for msg in report["failures"]:
        print(f"FAILED: {msg}")
    print(f"checks: {report['attempted']} attempted, {report['failed']} failed")


def main(argv=None) -> int:
    if not (ROOT / "src" / "cpp_lab" / "__init__.py").is_file():
        print(f"run.py: no src/cpp_lab under {ROOT}; run from a cpp-lab checkout",
              file=sys.stderr)
        return 2
    args = parse_args(argv)
    try:
        result, report = measure(args)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    (out_dir / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    print_report(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
