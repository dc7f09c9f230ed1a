"""Data-augmentation Markov chain alternating the two exact conditionals.

One sweep resamples the percolation pair given the spins (independent
openings restricted to satisfied cells) and then the spins given the pair
(a uniform relative cocycle, drawn by assigning i.i.d. uniform GF(q)
coefficients to a kernel basis).  Both updates are exact conditional
draws, so the chain targets the coupling for any sweep order; chains are
reproducible from a 64-bit seed, with per-chain sub-seeds derived by
hashing (seed, chain index).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import gfq, homology
from .complexes import PercSubcomplex
from .errors import DegenerateDenominator, ValidationError
from .measures import delta_cochain
from .observables import Estimate, mf_ratio, rect_loop, vgamma_observable, wilson_observable

ObservableFn = Callable[[np.ndarray, PercSubcomplex, PercSubcomplex], float]


@dataclass(frozen=True)
class RunConfig:
    q: int
    i: int
    p2: float
    p1: float
    n_samples: int
    burn_in: int = 10_000
    thinning: int = 1
    seed: int = 0
    n_chains: int = 1

    def __post_init__(self):
        gfq.require_prime(self.q)
        if not (0.0 <= self.p2 <= 1.0 and 0.0 <= self.p1 <= 1.0):
            raise ValidationError(f"p2={self.p2}, p1={self.p1} must lie in [0,1]")
        if self.n_samples < 1 or self.thinning < 1 or self.burn_in < 0 or self.n_chains < 1:
            raise ValidationError("need n_samples >= 1, thinning >= 1, burn_in >= 0, n_chains >= 1")


@dataclass
class ChainState:
    f: np.ndarray
    P2: PercSubcomplex
    P1: PercSubcomplex
    step: int
    rng: np.random.Generator


def chain_rng(seed: int, chain_index: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), int(chain_index))))


def init_state(X, cfg: RunConfig, chain_index: int = 0) -> ChainState:
    """Start from f = 0 with everything closed (always compatible)."""
    f = np.zeros(X.num_cells(cfg.i), dtype=np.int64)
    return ChainState(
        f=f,
        P2=PercSubcomplex.empty(X, cfg.i + 1),
        P1=PercSubcomplex.empty(X, cfg.i),
        step=0,
        rng=chain_rng(cfg.seed, chain_index),
    )


def resample_percolation(f, cfg: RunConfig, X, rng) -> tuple[PercSubcomplex, PercSubcomplex]:
    """Draw (P2, P1) given f: satisfied cells open independently."""
    i, q = cfg.i, cfg.q
    df = delta_cochain(f, X, i, q)
    open2 = (df == 0) & (rng.random(df.shape[0]) < cfg.p2)
    fv = np.asarray(f) % q
    open1 = (fv == 0) & (rng.random(fv.shape[0]) < cfg.p1)
    return (
        PercSubcomplex(X, i + 1, gfq.vector_to_bits(open2)),
        PercSubcomplex(X, i, gfq.vector_to_bits(open1)),
    )


def resample_spins(P2: PercSubcomplex, P1: PercSubcomplex, q: int, rng) -> np.ndarray:
    """Uniform draw from the compatible cochains Z^i(P2, P1)."""
    return homology.cocycle_system(P2.complex, P1.dim, q, P2.bits, P1.bits).sample(rng)


def sweep(state: ChainState, cfg: RunConfig, X) -> ChainState:
    """One full update: percolation resample, then spin resample."""
    P2, P1 = resample_percolation(state.f, cfg, X, state.rng)
    f = resample_spins(P2, P1, cfg.q, state.rng)
    return ChainState(f=f, P2=P2, P1=P1, step=state.step + 1, rng=state.rng)


def batch_means(series: np.ndarray) -> Estimate:
    """Mean with a batch-means standard error."""
    n = len(series)
    mean = float(series.mean()) if n else math.nan
    if n < 4:
        se = float(series.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
        return Estimate(mean=mean, std_err=se, n_samples=n)
    nb = max(2, min(64, int(math.sqrt(n))))
    blen = n // nb
    trimmed = series[: nb * blen].reshape(nb, blen)
    bm = trimmed.mean(axis=1)
    se = float(bm.std(ddof=1) / math.sqrt(nb))
    return Estimate(mean=mean, std_err=se, n_samples=n)


@dataclass
class RunResult:
    config: RunConfig
    estimates: dict[str, Estimate]
    series: dict[str, list[np.ndarray]] = field(default_factory=dict)

    def series_csv_rows(self) -> list[tuple[int, int, str, float]]:
        """Rows (chain, sweep, observable, value) in deterministic order."""
        rows = []
        for name in sorted(self.series):
            for c, arr in enumerate(self.series[name]):
                for t, v in enumerate(arr):
                    rows.append((c, t, name, float(v)))
        rows.sort(key=lambda r: (r[0], r[1], r[2]))
        return rows


def _run_one_chain(X, cfg: RunConfig, observables, chain_index: int) -> dict[str, np.ndarray]:
    state = init_state(X, cfg, chain_index)
    for _ in range(cfg.burn_in):
        state = sweep(state, cfg, X)
    out = {name: np.empty(cfg.n_samples) for name in observables}
    for t in range(cfg.n_samples):
        for _ in range(cfg.thinning):
            state = sweep(state, cfg, X)
        for name, fn in observables.items():
            out[name][t] = fn(state.f, state.P2, state.P1)
    return out


def run_chain(X, cfg: RunConfig, observables: dict[str, ObservableFn],
              keep_series: bool = False) -> RunResult:
    """Run n_chains independent chains and pool their estimates.

    Deterministic for a fixed (seed, config): every chain owns its own
    generator and results are folded in chain order.
    """
    per_chain = [_run_one_chain(X, cfg, observables, c)
                 for c in range(cfg.n_chains)]

    estimates = {}
    series = {}
    for name in observables:
        chain_series = [pc[name] for pc in per_chain]
        ests = [batch_means(s) for s in chain_series]
        mean = float(np.mean([e.mean for e in ests]))
        se = math.sqrt(sum(e.std_err ** 2 for e in ests)) / len(ests)
        estimates[name] = Estimate(mean=mean, std_err=se,
                                   n_samples=cfg.n_samples * cfg.n_chains)
        if keep_series:
            series[name] = chain_series
    return RunResult(config=cfg, estimates=estimates, series=series)


def write_series_csv(path, result: RunResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["chain", "sweep", "observable", "value"])
        for row in result.series_csv_rows():
            writer.writerow([row[0], row[1], row[2], repr(row[3])])


def mf_ratio_scan(X, cfg: RunConfig, ns: list[int], route: str = "wilson") -> list[dict]:
    """Finite-n Marcu-Fredenhagen ratios, one chain shared by all loops.

    route 'wilson' measures W variables on the spins; 'topological'
    measures the V events on the percolation pair.  Rows carry the CSV
    schema (n, p2, p1, q, estimate, std_err).
    """
    if route not in ("wilson", "topological"):
        raise ValidationError(f"unknown route {route!r}")
    if cfg.i != 1:
        raise ValidationError("the finite-n ratio scan is defined for i = 1")
    observables = {}
    loops = {}
    for n in ns:
        fam = rect_loop(n, X.d, X, cfg.q)
        loops[n] = fam
        make = wilson_observable if route == "wilson" else vgamma_observable
        observables[f"full_{n}"] = make(fam.gamma, cfg.q)
        observables[f"half_{n}"] = make(fam.gamma_prime, cfg.q)
    result = run_chain(X, cfg, observables)
    rows = []
    for n in ns:
        try:
            est = mf_ratio(result.estimates[f"full_{n}"], result.estimates[f"half_{n}"])
        except DegenerateDenominator:
            est = Estimate(mean=math.nan, std_err=math.nan,
                           n_samples=result.estimates[f"full_{n}"].n_samples)
        rows.append({
            "n": n,
            "p2": cfg.p2,
            "p1": cfg.p1,
            "q": cfg.q,
            "estimate": est.mean,
            "std_err": est.std_err,
            "full": result.estimates[f"full_{n}"],
            "half": result.estimates[f"half_{n}"],
        })
    return rows
