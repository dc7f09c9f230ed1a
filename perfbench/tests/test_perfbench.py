"""Tests of the benchmark itself, on small configs (3^3 and 2x1 boxes).

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import cpp_lab  # noqa: E402
from cpp_lab import complexes, gfq, homology, measures, observables, sampler  # noqa: E402
from perfbench import spans, worker, workloads  # noqa: E402
from perfbench.layers import PER_LAYER, group_total  # noqa: E402

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MODULES = (cpp_lab, complexes, gfq, homology, measures, observables, sampler)


def _run(*args, cwd=ROOT):
    return subprocess.run(RUN + list(args), capture_output=True, text=True, cwd=cwd,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(name, trace):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_layer_table_matches_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


# Synthetic spans: a [0,10] holds b [1,4] (which holds c [2,3]) and d [5,9];
# d holds another d [6,7], so d's inclusive time counts only the outer one.
SYNTHETIC = [
    ("a", -1, 0.0, 10.0),
    ("b", 0, 1.0, 4.0),
    ("c", 1, 2.0, 3.0),
    ("d", 0, 5.0, 9.0),
    ("d", 3, 6.0, 7.0),
]


def test_self_time_is_span_minus_child_spans():
    assert spans.self_times(SYNTHETIC) == [3.0, 2.0, 1.0, 3.0, 1.0]
    agg = spans.aggregate(SYNTHETIC)
    assert (agg["a"].calls, agg["a"].total_s, agg["a"].self_s) == (1, 10.0, 3.0)
    assert (agg["d"].calls, agg["d"].total_s, agg["d"].self_s) == (2, 4.0, 4.0)
    late = spans.aggregate(SYNTHETIC, since=5.0)
    assert set(late) == {"d"} and late["d"].total_s == 4.0
    assert group_total(SYNTHETIC, "b", 0.0) == 3.0
    assert group_total(SYNTHETIC, "", 0.0) == 10.0


def test_tracer_records_parents_and_window_counters():
    t = spans.Tracer()
    outer = t.open("outer")
    t.count("k", 2)
    t.mark(spans.now())
    inner = t.open("inner")
    t.count("k", 3)
    t.close(inner)
    t.close(outer)
    (n0, p0, a0, b0), (n1, p1, a1, b1) = t.span_list()
    assert (n0, p0, n1, p1) == ("outer", -1, "inner", 0)
    assert a0 <= a1 <= b1 <= b0
    assert t.window_counters() == {"k": 3.0}


def _attributes():
    snap = {(m.__name__, k): v for m in MODULES for k, v in vars(m).items()}
    snap.update({("CubicalComplex", k): v for k, v in vars(complexes.CubicalComplex).items()})
    return snap


@pytest.mark.parametrize("mode", ["plain", "traced"])
def test_runs_leave_module_attributes_untouched(mode):
    before = _attributes()
    for name in ("mf-wilson-q2-box12", "exact-grid-q2-box2"):
        out = worker.run_workload(workloads.tiny(workloads.WORKLOADS[name]), 5, 0.3, mode)
        assert out["failed"] == 0 and out["attempted"] >= 1
    after = _attributes()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_wrappers_are_removed_after_an_error():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with spans.Instrumented(spans.Tracer()):
            assert sampler.sweep is not before[("cpp_lab.sampler", "sweep")]
            raise RuntimeError("boom")
    assert all(_attributes()[k] is v for k, v in before.items())


def test_deleted_functions_are_reported_missing():
    targets = (spans.Target("gfq", "no_such_function", "x"),
               spans.Target("no_such_module", "f", "y"),
               spans.Target("complexes.NoSuchClass", "f", "z"),
               spans.Target("gfq", "rref", "gfq.rref"))
    with spans.Instrumented(spans.Tracer(), targets) as inst:
        assert gfq.rref.__wrapped__ is not None
    assert inst.missing == ["gfq.no_such_function", "no_such_module.f",
                            "complexes.NoSuchClass.f"]
    assert not hasattr(gfq.rref, "__wrapped__")


def test_traced_and_untraced_runs_give_the_same_series():
    w = workloads.tiny(workloads.WORKLOADS["wilson-identity-q2-box12"])
    plain = worker.run_workload(w, 9, 0.3, "plain")
    traced = worker.run_workload(w, 9, 0.3, "traced")
    n = min(len(plain["digests"]), len(traced["digests"]))
    assert n > 10 and plain["digests"][:n] == traced["digests"][:n]
    other = worker.run_workload(w, 10, 0.3, "plain")
    assert other["digests"][:n] != plain["digests"][:n]


@pytest.mark.parametrize("args, message", [
    (["--workload", "no-such-workload", "--seed", "1"], "invalid choice"),
    (["--workload", "exact-grid-q2-box2", "--seed", "-1"], "--seed must be >= 0"),
])
def test_bad_arguments_exit_2_with_a_message(args, message):
    proc = _run(*args, "--seconds", "1", "--trace", "0")
    assert proc.returncode == 2
    assert message in proc.stderr
    assert proc.stdout == ""


def test_without_the_source_tree_it_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "exact-grid-q2-box2", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True,
                          cwd=tmp_path, timeout=60)
    assert proc.returncode == 2
    assert "src/cpp_lab" in proc.stderr
    assert proc.stdout == ""
