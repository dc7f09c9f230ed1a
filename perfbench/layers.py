"""Per-layer metrics of a traced run, computed from its spans and counters.

Two windows are used.  The complex layers (`complexes.*`) do most of their
work during set-up, so their counts and times cover the whole process.
Every other layer is measured over the timed samples only, and its time is
given as a share (`*_frac`) of the summed sample time: the measured window
of a Monte Carlo run starts after the warm-up samples, that of the exact
workload right after the complex is built.  Layers that a workload never
calls read 0 there.
"""
from __future__ import annotations

import statistics

from .spans import LayerStats, aggregate

# (metric, unit), in the order of BENCHMARK.json.
PER_LAYER = (
    ("complexes.build.total_s", "s"),
    ("complexes.incidence.calls", "count"),
    ("complexes.incidence.total_s", "s"),
    ("complexes.boundary_matrix.calls", "count"),
    ("complexes.boundary_matrix.bytes_computed", "bytes"),
    ("complexes.boundary_matrix.total_frac", "frac"),
    ("sampler.sweep.calls", "count"),
    ("sampler.sweep.total_frac", "frac"),
    ("sampler.resample_percolation.self_frac", "frac"),
    ("sampler.resample_spins.total_frac", "frac"),
    ("sampler.resample_spins.self_frac", "frac"),
    ("sampler.open2_frac", "frac"),
    ("sampler.open1_frac", "frac"),
    ("gfq.gf2_ref_bits.calls", "count"),
    ("gfq.gf2_ref_bits.self_frac", "frac"),
    ("gfq.gf2_ref_bits.rows_in", "count"),
    ("gfq.gf2_ref_bits.rank_out", "count"),
    ("gfq.gf2_ref_bits.useful_ratio", "ratio"),
    ("gfq.gf2_ref_bits.fill_computed", "ratio"),
    ("gfq.gf2_kernel_sample.self_frac", "frac"),
    ("gfq.rref.calls", "count"),
    ("gfq.rref.self_frac", "frac"),
    ("gfq.rref.entries_in", "count"),
    ("gfq.kernel_basis.self_frac", "frac"),
    ("homology.relative_cocycle_space.calls", "count"),
    ("homology.relative_cocycle_space.total_frac", "frac"),
    ("homology.relative_cocycle_space.dim_mean", "count"),
    ("homology.cocycle_matrix.self_frac", "frac"),
    ("homology.v_gamma.calls", "count"),
    ("homology.v_gamma.total_frac", "frac"),
    ("homology.v_gamma.calls_per_sample", "count"),
    ("observables.eval.total_frac", "frac"),
    ("measures.total_frac", "frac"),
    ("measures.exact_wilson.self_frac", "frac"),
    ("measures.pair_betti_table.calls", "count"),
    ("measures.pair_betti_table.self_frac", "frac"),
    ("measures.pair_betti_table.states", "count"),
    ("measures.vgamma_table.calls", "count"),
    ("measures.vgamma_table.self_frac", "frac"),
    ("homology.pair_cocycle_dim.calls", "count"),
    ("homology.pair_cocycle_dim.self_frac", "frac"),
    ("measures.enumerate_rho.calls", "count"),
    ("measures.enumerate_rho.self_frac", "frac"),
    ("measures.wilson_class_sums.calls", "count"),
    ("measures.wilson_class_sums.self_frac", "frac"),
    ("trace.overhead_frac", "frac"),
)

_EMPTY = LayerStats()


def group_total(spans, prefix: str, since: float) -> float:
    """Summed duration of the outermost spans whose name starts with
    `prefix` (spans nested in another such span are not counted again)."""
    total = 0.0
    for name, parent, start, end in spans:
        if start < since or not name.startswith(prefix):
            continue
        p = parent
        while p >= 0 and not spans[p][0].startswith(prefix):
            p = spans[p][1]
        if p < 0:
            total += end - start
    return total


def median_p90(values: list[float]) -> tuple[float, float]:
    """Median and 90th percentile (inclusive method); 0 for no values."""
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    return statistics.median(values), statistics.quantiles(values, n=10, method="inclusive")[8]


def layer_metrics(spans, tracer, sample_s: float, n_samples: int) -> tuple[dict, dict]:
    """(metrics, details) of one traced run.

    `metrics` maps every PER_LAYER name except trace.overhead_frac, which
    needs the untraced run, to its value.  `details` gives absolute times
    of every span name seen, for the report.
    """
    whole = aggregate(spans)
    win = aggregate(spans, tracer.window_start)

    def st(name: str) -> LayerStats:
        return (whole if name.startswith("complexes.") else win).get(name, _EMPTY)

    def frac(seconds: float) -> float:
        return seconds / sample_s if sample_s > 0 else 0.0

    counts = tracer.window_counters()

    def c(key: str) -> float:
        return counts.get(key, 0.0)

    m = {}
    for name, unit in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            m[name] = st(layer).calls
        elif stat == "total_s":
            m[name] = st(layer).total_s
        elif stat == "total_frac":
            m[name] = frac(st(layer).total_s)
        elif stat == "self_frac":
            m[name] = frac(st(layer).self_s)
    space_calls = max(1, m["homology.relative_cocycle_space.calls"])
    percolations = max(1.0, c("percolation.samples"))
    m.update({
        "complexes.boundary_matrix.bytes_computed": tracer.counters.get("boundary_matrix.bytes", 0.0),
        "sampler.open2_frac": c("percolation.open2") / percolations,
        "sampler.open1_frac": c("percolation.open1") / percolations,
        "gfq.gf2_ref_bits.rows_in": c("gf2.rows_in"),
        "gfq.gf2_ref_bits.rank_out": c("gf2.rank_out"),
        "gfq.gf2_ref_bits.useful_ratio": c("gf2.rank_out") / max(1.0, c("gf2.rows_in")),
        "gfq.gf2_ref_bits.fill_computed": c("gf2.bits_out") / max(1.0, c("gf2.bits_in")),
        "gfq.rref.entries_in": c("rref.entries_in"),
        "homology.relative_cocycle_space.dim_mean": c("cocycle_space.dim") / space_calls,
        "homology.v_gamma.calls_per_sample": m["homology.v_gamma.calls"] / max(1, n_samples),
        "measures.total_frac": frac(group_total(spans, "measures.", tracer.window_start)),
        "measures.pair_betti_table.states":
            c("pair_betti_table.states") / max(1, m["measures.pair_betti_table.calls"]),
    })

    details = {}
    for name in sorted(set(whole) | set(win)):
        s = st(name)
        p50, p90 = median_p90(s.durations)
        details[name] = {
            "calls": s.calls, "total_s": s.total_s, "self_s": s.self_s,
            "self_frac": frac(s.self_s), "ms.p50": p50 * 1e3, "ms.p90": p90 * 1e3,
            "ms_per_sample": s.total_s * 1e3 / max(1, n_samples),
        }
    return m, details


def design_checks(kind: str, m: dict) -> list[tuple[str, bool]]:
    """The shares each workload was chosen for, as (statement, holds).

    These describe the program at the commit that defined the benchmark;
    an optimisation may rightly break them, so they never count as
    failures of a run.
    """
    return {
        "mf": [
            ("resample_spins >= 50% of sample time", m["sampler.resample_spins.total_frac"] >= 0.5),
            ("no v_gamma calls", m["homology.v_gamma.calls"] == 0),
        ],
        "identity": [
            ("v_gamma >= 50% of sample time", m["homology.v_gamma.total_frac"] >= 0.5),
        ],
        "sample": [
            ("relative_cocycle_space >= 50% of sample time",
             m["homology.relative_cocycle_space.total_frac"] >= 0.5),
            ("no gf2_ref_bits calls", m["gfq.gf2_ref_bits.calls"] == 0),
        ],
        "exact": [
            ("measures.* >= 90% of solve time", m["measures.total_frac"] >= 0.9),
            ("no sampler calls", m["sampler.sweep.calls"] == 0),
        ],
    }[kind]
