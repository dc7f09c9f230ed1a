"""Nested timing spans and the wrappers that record them.

A traced run replaces selected functions of `cpp_lab` with wrappers that
open a span, call the original and close the span.  Each span stores its
name, its parent span and its start and end times, so a layer's self time
is its span's duration minus the durations of its direct child spans.
Nothing in the package runs concurrently, so a single stack of open spans
gives every span its parent.

Wrappers are installed on the attribute the package actually looks up at
call time (a module global or a class attribute) and removed afterwards,
restoring the original objects.  An attribute that no longer exists is
recorded as missing instead of raising.
"""
from __future__ import annotations

import importlib
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable

now = time.monotonic


class Tracer:
    """Spans kept in memory as parallel arrays; ids index the arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]
        self.active = True
        self.counters: dict[str, float] = {}
        self.window_start = float("inf")
        self.counters_at_window: dict[str, float] = {}

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.t0)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.t1.append(0.0)
        self._stack.append(sid)
        self.t0.append(now())
        return sid

    def close(self, sid: int) -> None:
        self.t1[sid] = now()
        self._stack.pop()

    def mark(self, t: float) -> None:
        """Open the measured window at time `t`."""
        self.window_start = t
        self.counters_at_window = dict(self.counters)

    def window_counters(self) -> dict[str, float]:
        return {k: v - self.counters_at_window.get(k, 0.0) for k, v in self.counters.items()}

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def span_list(self) -> list[tuple[str, int, float, float]]:
        """(name, parent id, start, end) for every recorded span."""
        return [(self.names[n], p, a, b)
                for n, p, a, b in zip(self.name, self.parent, self.t0, self.t1)]


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its children's durations.

    `spans` is a sequence of (name, parent id, start, end), parent -1 for a
    root; a child's id is its index and it always follows its parent.
    """
    child = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[k] for k, (_, _, start, end) in enumerate(spans)]


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


def aggregate(spans, since: float = float("-inf")) -> dict[str, LayerStats]:
    """Per-name call counts, inclusive and self times of spans starting at
    or after `since`.  Inclusive time counts only the outermost span of a
    name, so a name that calls itself is not counted twice."""
    selfs = self_times(spans)
    out: dict[str, LayerStats] = {}
    for k, (name, parent, start, end) in enumerate(spans):
        if start < since:
            continue
        st = out.setdefault(name, LayerStats())
        st.calls += 1
        st.self_s += selfs[k]
        st.durations.append(end - start)
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            st.total_s += end - start
    return out


# Hooks see the call's arguments before it runs and its result after; what
# they compute is outside the span, so it does not count as layer time.

def _rows_in(tracer, args, kwargs):
    rows = list(args[0] if args else kwargs["rows"])
    tracer.count("gf2.rows_in", len(rows))
    tracer.count("gf2.bits_in", sum(r.bit_count() for r in rows))
    return (rows,) + tuple(args[1:]), kwargs


def _pivots_out(tracer, result):
    tracer.count("gf2.rank_out", len(result))
    tracer.count("gf2.bits_out", sum(r.bit_count() for r in result.values()))


def _rref_in(tracer, args, kwargs):
    shape = getattr(args[0] if args else kwargs["mat"], "shape", ())
    if len(shape) == 2:
        tracer.count("rref.entries_in", shape[0] * shape[1])
    return args, kwargs


def _nbytes_out(tracer, result):
    tracer.count("boundary_matrix.bytes", getattr(result, "nbytes", 0))


def _space_dim_out(tracer, result):
    tracer.count("cocycle_space.dim", result.dim)


def _states_out(tracer, result):
    tracer.count("pair_betti_table.states", len(result))


def _open_fracs_out(tracer, result):
    P2, P1 = result
    tracer.count("percolation.samples")
    tracer.count("percolation.open2", P2.count / max(1, P2.complex.num_cells(P2.dim)))
    tracer.count("percolation.open1", P1.count / max(1, P1.complex.num_cells(P1.dim)))


@dataclass(frozen=True)
class Target:
    """One wrapped attribute: `owner` is a module or `module.Class` path."""

    owner: str
    attr: str
    span: str
    before: Callable | None = None
    after: Callable | None = None


TARGETS = (
    Target("complexes", "build_box", "complexes.build"),
    Target("complexes.CubicalComplex", "incidence", "complexes.incidence"),
    Target("complexes.CubicalComplex", "boundary_matrix", "complexes.boundary_matrix",
           after=_nbytes_out),
    Target("sampler", "sweep", "sampler.sweep"),
    Target("sampler", "resample_percolation", "sampler.resample_percolation",
           after=_open_fracs_out),
    Target("sampler", "resample_spins", "sampler.resample_spins"),
    Target("gfq", "gf2_ref_bits", "gfq.gf2_ref_bits", before=_rows_in, after=_pivots_out),
    Target("gfq", "gf2_kernel_sample", "gfq.gf2_kernel_sample"),
    Target("gfq", "rref", "gfq.rref", before=_rref_in),
    Target("gfq", "kernel_basis", "gfq.kernel_basis"),
    Target("homology", "relative_cocycle_space", "homology.relative_cocycle_space",
           after=_space_dim_out),
    Target("homology", "cocycle_matrix", "homology.cocycle_matrix"),
    Target("homology", "v_gamma", "homology.v_gamma"),
    Target("homology", "pair_cocycle_dim", "homology.pair_cocycle_dim"),
    Target("measures", "exact_wilson", "measures.exact_wilson"),
    Target("measures", "pair_betti_table", "measures.pair_betti_table",
           after=_states_out),
    Target("measures", "vgamma_table", "measures.vgamma_table"),
    Target("measures", "enumerate_rho", "measures.enumerate_rho"),
    Target("measures", "wilson_class_sums", "measures.wilson_class_sums"),
)


def _resolve_owner(path: str):
    module, _, cls = path.partition(".")
    try:
        owner = importlib.import_module(f"cpp_lab.{module}")
    except ModuleNotFoundError:
        return None
    return getattr(owner, cls, None) if cls else owner


def _wrap(tracer: Tracer, target: Target, original):
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return original(*args, **kwargs)
        if target.before is not None:
            args, kwargs = target.before(tracer, args, kwargs)
        sid = tracer.open(target.span)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(sid)
        if target.after is not None:
            target.after(tracer, result)
        return result

    wrapper.__wrapped__ = original
    wrapper.__name__ = getattr(original, "__name__", target.attr)
    return wrapper


class Instrumented:
    """Context manager installing span wrappers on TARGETS.

    On exit every replaced attribute gets its original object back.
    `missing` lists targets whose owner or attribute does not exist.
    """

    def __init__(self, tracer: Tracer, targets=TARGETS):
        self.tracer = tracer
        self.targets = targets
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for t in self.targets:
            owner = _resolve_owner(t.owner)
            original = None if owner is None else vars(owner).get(t.attr)
            if original is None:
                self.missing.append(f"{t.owner}.{t.attr}")
                continue
            self._saved.append((owner, t.attr, original))
            setattr(owner, t.attr, _wrap(self.tracer, t, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False
