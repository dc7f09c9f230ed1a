"""The benchmark workloads, each run in one process against the public
entry points of `cpp_lab`: `complexes.build_box`, `observables.rect_loop`,
`sampler.run_chain` and `measures.exact_wilson`.

A Monte Carlo workload hands `run_chain` an observable dict that starts
with a clock (the end of the sweep) and ends with a clock (the end of the
sample).  The sample-end clock checks the state, folds the sample into the
series digest and, once the time budget is spent, stops the chain by
raising `_Stop`.  The time spent checking lies between one sample's end and
the next one's start, so it is not part of any sample interval.
"""
from __future__ import annotations

import hashlib
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from cpp_lab import complexes, measures, observables, sampler
from cpp_lab.errors import DegenerateDenominator

from .spans import Tracer, now

# Samples of a Monte Carlo run left out of the timings and the estimates.
# The chain starts from f = 0 with everything closed; on every workload here
# the open counts settle within two sweeps.
WARMUP = 5
# `run_chain` allocates its output arrays for n_samples up front; runs stop
# on time long before this many samples.
SAMPLE_CAP = 100_000
# The Wilson identity check allows this many combined standard errors.
IDENTITY_SIGMAS = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    q: int
    widths: tuple[int, ...]
    kind: str                 # "mf", "identity", "sample" or "exact"
    p2: float = 0.0
    p1: float = 0.0
    loops: tuple[int, ...] = ()


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("mf-wilson-q2-box12", q=2, widths=(12, 12, 12), kind="mf",
             p2=0.9, p1=0.1, loops=(2, 4, 6)),
    Workload("wilson-identity-q2-box12", q=2, widths=(12, 12, 12), kind="identity",
             p2=0.5, p1=0.9, loops=(2, 4, 6)),
    Workload("sample-q3-box6", q=3, widths=(6, 6, 6), kind="sample",
             p2=0.5, p1=0.5, loops=(2,)),
    Workload("exact-grid-q2-box2", q=2, widths=(2, 2), kind="exact"),
)}


def tiny(w: Workload) -> Workload:
    """The same workload on a 3^3 box (Monte Carlo) or a 2x1 box (exact)."""
    if w.kind == "exact":
        return replace(w, widths=(1, 2))
    return replace(w, widths=(3, 3, 3), loops=(2,))


class _Stop(Exception):
    """Raised from the sample-end clock to end a chain on time."""


def _bits(mask: int, n: int) -> np.ndarray:
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8 or 1, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:n].astype(bool)


class Recorder:
    """Timestamps, digests and check outcomes of one workload process.

    Sample k spans from the end of the previous sample's check (or the end
    of set-up) to `t_end[k]`.  The first `warmup` samples are not timed;
    the tracer's measured window opens after them.
    """

    def __init__(self, seconds: float, warmup: int, setup_only: bool = False,
                 tracer: Tracer | None = None):
        self.seconds = seconds
        self.warmup = warmup
        self.setup_only = setup_only
        self.tracer = tracer
        self.t_setup_end: float | None = None
        self.deadline = math.inf
        self.t_end: list[float] = []
        self.t_resume: list[float] = []
        self.digests: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._hash = hashlib.sha256()

    def setup_done(self) -> None:
        if self.t_setup_end is None:
            self.t_setup_end = now()
            self.deadline = self.t_setup_end + self.seconds
            if self.setup_only:
                raise _Stop
            if self.warmup == 0 and self.tracer is not None:
                self.tracer.mark(self.t_setup_end)

    @contextmanager
    def untraced(self):
        """Benchmark-side work (checks) must not add to the layer spans."""
        if self.tracer is None:
            yield
            return
        self.tracer.active = False
        try:
            yield
        finally:
            self.tracer.active = True

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(message)

    def sample_done(self, values, check) -> None:
        """Close a sample: run its check, digest its values, stop on time."""
        self.t_end.append(now())
        with self.untraced():
            check()
        self._hash.update(repr(values).encode())
        self.digests.append(self._hash.hexdigest()[:16])
        self.t_resume.append(now())
        if len(self.t_resume) == self.warmup and self.tracer is not None:
            self.tracer.mark(self.t_resume[-1])
        if self.t_resume[-1] >= self.deadline:
            raise _Stop

    def intervals(self) -> list[float]:
        starts = [self.t_setup_end] + self.t_resume[:-1]
        return [e - s for s, e in zip(starts, self.t_end)]


def run(w: Workload, seed: int, seconds: float, setup_only: bool = False,
        tracer: Tracer | None = None) -> tuple[Recorder, dict]:
    """Run one workload for `seconds` after set-up (or only its set-up).

    Returns the recorder and the outcome: `pct_from`, the first sample
    counted in the percentiles, and the checked estimates.
    """
    if w.kind == "exact":
        rec = Recorder(seconds, 0, setup_only, tracer)
        try:
            return rec, _run_exact(w, seed, rec)
        except _Stop:
            return rec, {}
    rec = Recorder(seconds, WARMUP + 1, setup_only, tracer)
    return rec, _run_mc(w, seed, rec)


def _mc_observables(w: Workload, X) -> dict:
    obs = {}
    if w.kind == "sample":
        obs["open2"] = observables.open_count_observable("P2")
        obs["open1"] = observables.open_count_observable("P1")
    for n in w.loops:
        fam = observables.rect_loop(n, X.d, X, w.q)
        if w.kind == "sample":
            obs[f"wilson:{n}"] = observables.wilson_observable(fam.gamma, w.q)
            continue
        for part, gamma in (("full", fam.gamma), ("half", fam.gamma_prime)):
            obs[f"W:{part}_{n}"] = observables.wilson_observable(gamma, w.q)
            if w.kind == "identity":
                obs[f"V:{part}_{n}"] = observables.vgamma_observable(gamma, w.q)
    return obs


def _run_mc(w: Workload, seed: int, rec: Recorder) -> dict:
    X = complexes.build_box(len(w.widths), w.widths)
    named = _mc_observables(w, X)
    series = {name: [] for name in named}
    tracer = rec.tracer
    n_cells = X.num_cells(1)
    n_plaq = X.num_cells(2)

    def recorded(fn, column):
        def obs(f, P2, P1):
            sid = tracer.open("observables.eval") if tracer else -1
            value = fn(f, P2, P1)
            if tracer:
                tracer.close(sid)
            column.append(value)
            return value
        return obs

    def sweep_end(f, P2, P1):
        rec.setup_done()
        return 0.0

    def sample_end(f, P2, P1):
        def compatible():
            fv = np.asarray(f, dtype=np.int64) % w.q
            df = measures.delta_cochain(fv, X, 1, w.q)
            ok = not fv[_bits(P1.bits, n_cells)].any() and \
                not df[_bits(P2.bits, n_plaq)].any()
            rec.check(ok, f"sample {len(rec.t_end) - 1}: f or df nonzero on an open cell")
        rec.sample_done([column[-1] for column in series.values()], compatible)
        return 0.0

    chain_obs = {"_sweep_end": sweep_end}
    chain_obs.update({name: recorded(fn, series[name]) for name, fn in named.items()})
    chain_obs["_sample_end"] = sample_end
    cfg = sampler.RunConfig(q=w.q, i=1, p2=w.p2, p1=w.p1, n_samples=SAMPLE_CAP,
                            burn_in=0, seed=seed)
    try:
        sampler.run_chain(X, cfg, chain_obs)
    except _Stop:
        pass
    if rec.setup_only:
        return {}
    with rec.untraced():
        estimates = _check_estimates(w, series, rec)
    return {"pct_from": rec.warmup, "estimates": estimates}


def _check_estimates(w: Workload, series: dict, rec: Recorder) -> dict:
    est = {name: sampler.batch_means(np.asarray(values[WARMUP + 1:], dtype=float))
           for name, values in series.items()}
    for name, e in est.items():
        rec.check(math.isfinite(e.mean) and math.isfinite(e.std_err),
                  f"{name}: estimate {e.mean} +- {e.std_err} is not finite")
    out = {name: [e.mean, e.std_err] for name, e in est.items()}
    for n in w.loops:
        if w.kind == "identity":
            for part in ("full", "half"):
                W, V = est[f"W:{part}_{n}"], est[f"V:{part}_{n}"]
                bound = IDENTITY_SIGMAS * math.hypot(W.std_err, V.std_err)
                gap = abs(W.mean - V.mean)
                rec.check(gap <= bound, f"{part}_{n}: |E[W] - P(V)| = {gap:.4f} > {bound:.4f}")
        elif w.kind == "mf":
            try:
                ratio = observables.mf_ratio(est[f"W:full_{n}"], est[f"W:half_{n}"])
            except DegenerateDenominator as exc:
                rec.check(False, f"mf ratio n={n}: {exc}")
                continue
            rec.check(math.isfinite(ratio.mean) and math.isfinite(ratio.std_err),
                      f"mf ratio n={n} is not finite")
            out[f"mf_ratio_{n}"] = [ratio.mean, ratio.std_err]
    return out


def grid_point(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A seeded (k2, k1) point with one-digit numerators and denominators."""
    return tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2))


def _run_exact(w: Workload, seed: int, rec: Recorder) -> dict:
    X = complexes.build_box(len(w.widths), w.widths)
    rec.setup_done()
    gamma = observables.rect_loop(w.widths[1], len(w.widths), X, w.q,
                                  width=w.widths[0]).gamma
    rng = random.Random(seed)
    try:
        while True:
            k2, k1 = grid_point(rng)
            res = measures.exact_wilson(measures.ModelParams(q=w.q, i=1, k2=k2, k1=k1),
                                        X, gamma)
            values = (str(k2), str(k1), str(res.lhs_exact), str(res.rhs))
            rec.sample_done(values, lambda: rec.check(
                res.lhs_exact == res.rhs,
                f"(k2,k1)=({k2},{k1}): E[W] = {res.lhs_exact} but rho(V) = {res.rhs}"))
    except _Stop:
        pass
    # The first point also builds the exact tables, so the percentiles
    # leave it out; throughput counts it.
    return {"pct_from": 1 if len(rec.t_end) > 2 else 0, "estimates": {}}
