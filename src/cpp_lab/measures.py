"""Exact weights and small-instance enumeration oracles.

Three coupled measures on a finite cell complex X with prime q:

  * mu    -- spin measure on i-cochains, weight (1+k1)^#{f=0} (1+k2)^#{df=0}
  * rho   -- percolation pair measure, weight k2^|P2| k1^|P1| r^{b_i(P2,P1)}
             (r = q is the plain model; other r give the auxiliary model)
  * kappa -- the coupling on (f, P2, P1), weight k2^|P2| k1^|P1| times
             1{f = 0 on P1 and df = 0 on P2}

So every pair and coupling weight is one per-count factor k2^a k1^c
(a = |P2|, c = |P1|) times r^b or a compatibility test; the factor comes
from `_k_pow_factors` alone.

Both sides of the Wilson identity E_mu[W_gamma] = rho(V_gamma) are
class-count sums, each count times its class weight: cochains counted by
(z1, z2) for each residue f(gamma) (`wilson_class_sums`), pair states by
(|P2|, |P1|, b_i) (`_rho_vgamma`).  The counts do not depend on the
parameters, so both sides read them from X.cache, built once per complex;
a warm point only weighs the nonzero classes.

All oracle arithmetic is exact: parameters are rationals in the
k = p/(1-p) coordinates, and p = 1 (infinite k) is carried as k = None.
Closed cells then have weight 1 - p = 0, so the factor vanishes unless
every cell of that dimension is open.  The Wilson expectation is exact at
every prime q (see `wilson_expectation_exact`).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import gfq, homology
from .complexes import Chain, PercSubcomplex, graph_complex
from .errors import (DEFAULT_STATE_GUARD, DegenerateParameter, DimensionMismatch, TooLarge,
                     ValidationError)

KRat = Fraction | None  # None encodes k = infinity, i.e. p = 1


def _as_k(value, name: str) -> KRat:
    if value is None:
        return None
    k = Fraction(value)
    if k < 0:
        raise ValidationError(f"{name} must be >= 0, got {k}")
    return k


@dataclass(frozen=True)
class ModelParams:
    """Model parameters in the k = p/(1-p) = e^beta - 1 coordinates."""

    q: int
    i: int
    k2: KRat
    k1: KRat
    r: Fraction | None = None

    def __post_init__(self):
        gfq.require_prime(self.q)
        if self.i < 0:
            raise ValidationError(f"i must be >= 0, got {self.i}")
        object.__setattr__(self, "k2", _as_k(self.k2, "k2"))
        object.__setattr__(self, "k1", _as_k(self.k1, "k1"))
        r = Fraction(self.q) if self.r is None else Fraction(self.r)
        if r < 0:
            raise ValidationError(f"r must be >= 0, got {r}")
        object.__setattr__(self, "r", r)

    @classmethod
    def from_p(cls, q: int, i: int, p2, p1, r=None) -> "ModelParams":
        def to_k(p, name):
            p = Fraction(p)
            if not 0 <= p <= 1:
                raise ValidationError(f"{name} must be in [0,1], got {p}")
            return None if p == 1 else p / (1 - p)

        return cls(q=q, i=i, k2=to_k(p2, "p2"), k1=to_k(p1, "p1"), r=r)

    @property
    def p2(self) -> Fraction:
        return Fraction(1) if self.k2 is None else self.k2 / (1 + self.k2)

    @property
    def p1(self) -> Fraction:
        return Fraction(1) if self.k1 is None else self.k1 / (1 + self.k1)

    @property
    def is_plain(self) -> bool:
        return self.r == self.q


def delta_cochain(f, X, j: int, q: int) -> np.ndarray:
    """Coboundary values (df)(sigma) = f(boundary sigma) on all (j+1)-cells,
    taken over the last axis of f (leading axes are a batch)."""
    fv = np.asarray(f, dtype=np.int64)
    if j + 1 > X.d:
        return np.zeros(fv.shape[:-1] + (0,), dtype=np.int64)
    faces, signs = X.incidence(j + 1)
    return (np.take(fv, faces, axis=-1) * signs).sum(axis=-1) % q


def _finite_k(params: ModelParams, what: str) -> tuple[Fraction, Fraction]:
    if params.k2 is None or params.k1 is None:
        raise DegenerateParameter(f"{what} requires finite k (p < 1)")
    return params.k2, params.k1


def _k_pow_factors(k: KRat, n: int) -> list[Fraction]:
    """k^c for c = 0..n open cells out of n; at p = 1 (k = None) only the
    full set, c = n, has nonzero weight."""
    if k is None:
        return [Fraction(0)] * n + [Fraction(1)]
    return [k ** c for c in range(n + 1)]


def _count_factor(params: ModelParams, X, a: int, c: int) -> Fraction:
    """k2^a k1^c for a open (i+1)-cells and c open i-cells."""
    i = params.i
    return (_k_pow_factors(params.k2, X.num_cells(i + 1))[a]
            * _k_pow_factors(params.k1, X.num_cells(i))[c])


def mu_weight(f, params: ModelParams, X) -> Fraction:
    """Unnormalized spin weight, proportional to exp(-H(f))."""
    k2, k1 = _finite_k(params, "mu")
    fv = np.asarray(f, dtype=np.int64) % params.q
    z1 = int((fv == 0).sum())
    z2 = int((delta_cochain(fv, X, params.i, params.q) == 0).sum())
    return (1 + k1) ** z1 * (1 + k2) ** z2


def cpp_weight(P2: PercSubcomplex, P1: PercSubcomplex, params: ModelParams, X) -> Fraction:
    """Unnormalized percolation-pair weight k2^|P2| k1^|P1| r^b.

    With k = None (p = 1) the weight is zero unless the corresponding
    subcomplex is full, matching the p-coordinate form of the measure.
    """
    w = _count_factor(params, X, P2.count, P1.count)
    if w == 0:
        return w
    b = homology.cocycle_system(X, params.i, params.q, P2.bits, P1.bits).dim
    return w * params.r ** b


def _coupling_weight(f, dg, P2: PercSubcomplex, P1: PercSubcomplex,
                     params: ModelParams, X) -> Fraction:
    """k2^|P2| k1^|P1| if f = dg on every open i-cell and df = 0 on every
    open (i+1)-cell, else 0."""
    q, i = params.q, params.i
    fv = np.asarray(f, dtype=np.int64) % q
    ok1 = gfq.vector_to_bits(fv == dg)
    ok2 = gfq.vector_to_bits(delta_cochain(fv, X, i, q) == 0)
    if P1.bits & ~ok1 or P2.bits & ~ok2:
        return Fraction(0)
    return _count_factor(params, X, P2.count, P1.count)


def kappa_weight(f, P2: PercSubcomplex, P1: PercSubcomplex, params: ModelParams, X) -> Fraction:
    """Coupling weight; zero iff some open cell violates its constraint."""
    return _coupling_weight(f, 0, P2, P1, params, X)


# ---------------------------------------------------------------------------
# Exact distributions
# ---------------------------------------------------------------------------

@dataclass
class Dist:
    """An exact finite distribution: configuration -> rational weight > 0."""

    entries: dict
    total: Fraction

    @classmethod
    def from_weights(cls, weights: dict) -> "Dist":
        entries = {k: w for k, w in weights.items() if w}
        total = sum(entries.values(), Fraction(0))
        if total <= 0:
            raise ValidationError("distribution has zero total weight")
        return cls(entries=entries, total=total)

    def prob(self, key) -> Fraction:
        return self.entries.get(key, Fraction(0)) / self.total

    def normalized(self) -> dict:
        return {k: w / self.total for k, w in self.entries.items()}

    def marginal(self, project: Callable) -> "Dist":
        acc: dict = {}
        for k, w in self.entries.items():
            pk = project(k)
            acc[pk] = acc.get(pk, Fraction(0)) + w
        return Dist(entries=acc, total=self.total)

    def expectation(self, fn: Callable) -> Fraction:
        return sum((w * Fraction(fn(k)) for k, w in self.entries.items()),
                   Fraction(0)) / self.total

    def max_discrepancy(self, other: "Dist", key_map: Callable = lambda k: k) -> Fraction:
        mine = {key_map(k): v for k, v in self.normalized().items()}
        theirs = other.normalized()
        worst = Fraction(0)
        for k in set(mine) | set(theirs):
            d = abs(mine.get(k, Fraction(0)) - theirs.get(k, Fraction(0)))
            worst = max(worst, d)
        return worst

    def csv_rows(self, key_str: Callable = repr) -> list[tuple[str, int, int]]:
        rows = []
        for k in sorted(self.entries, key=key_str):
            w = self.entries[k]
            rows.append((key_str(k), w.numerator, w.denominator))
        return rows

    def to_json(self, key_str: Callable = repr) -> dict:
        return {
            "total": {"num": self.total.numerator, "den": self.total.denominator},
            "entries": [
                {"config": cid, "num": n, "den": d} for cid, n, d in self.csv_rows(key_str)
            ],
        }


def _guard(states: int, max_states: int) -> None:
    if states > max_states:
        raise TooLarge(states, max_states)


# Cochains per chunk of the walk that counts the spin classes.  On the 2x2
# box at q = 3 (3^12 cochains, i = 1) the cold count took 0.36 s at 2^8
# rows, 0.20 s at 2^10, 0.22 s at 2^12 and 0.26 s at 2^16, while a chunk's
# temporary tables cost about 500 B per row (0.5 MB at 2^10, 31 MB at 2^16).
_CHUNK = 1 << 10


def _cochain_digits(start: int, stop: int, n: int, q: int) -> np.ndarray:
    """Cochains start..stop-1 of the q^n, as rows of digits, first cell most
    significant."""
    ar = np.arange(start, stop)
    out = np.empty((stop - start, n), dtype=np.int64)
    for k in range(n):
        out[:, n - 1 - k] = (ar // q ** k) % q
    return out


def all_cochains(n: int, q: int, max_states: int = DEFAULT_STATE_GUARD) -> np.ndarray:
    """All q^n cochains as an array of digits, first cell most significant."""
    count = q ** n
    _guard(count, max_states)
    return _cochain_digits(0, count, n, q)


def _cochain_chunks(n: int, q: int):
    """All q^n cochains in all_cochains order, _CHUNK rows at a time."""
    count = q ** n
    for start in range(0, count, _CHUNK):
        yield _cochain_digits(start, min(start + _CHUNK, count), n, q)


def mu_class_data(params: ModelParams, X, max_states: int = DEFAULT_STATE_GUARD):
    """Per-cochain zero counts for the full spin space.

    Returns (F, z1, z2) with F the (q^n, n) cochain table and z1/z2 the
    numbers of vanishing spins/plaquette sums.
    """
    q, i = params.q, params.i
    F = all_cochains(X.num_cells(i), q, max_states)
    z1 = (F == 0).sum(axis=1)
    z2 = (delta_cochain(F, X, i, q) == 0).sum(axis=1)
    return F, z1, z2


def _spin_pow_factors(k: KRat, n: int) -> list[Fraction]:
    """(1+k)^z for z = 0..n vanishing values out of n.  At p = 1 (k = None)
    only z = n keeps weight: (1+k)^z (1-p)^n = (1-p)^(n-z), which is 0 at
    p = 1 unless z = n."""
    return _k_pow_factors(None if k is None else 1 + k, n)


def _mu_weight_table(params: ModelParams, X) -> list[list[Fraction]]:
    pw1 = _spin_pow_factors(params.k1, X.num_cells(params.i))
    pw2 = _spin_pow_factors(params.k2, X.num_cells(params.i + 1))
    return [[a * b for b in pw2] for a in pw1]


def enumerate_mu(params: ModelParams, X,
                 max_states: int = DEFAULT_STATE_GUARD) -> Dist:
    """Exact spin distribution; keys are cochain tuples."""
    _finite_k(params, "mu")
    F, z1, z2 = mu_class_data(params, X, max_states)
    table = _mu_weight_table(params, X)
    weights = {
        tuple(int(v) for v in row): table[int(a)][int(b)]
        for row, a, b in zip(F, z1, z2)
    }
    return Dist.from_weights(weights)


def _state_table(X, i: int, q: int, gamma: Chain | None,
                 max_states: int) -> np.ndarray:
    """b_i (gamma None) or the V_gamma flag of every pair state, indexed by
    (bits2 << n1) | bits1 and cached in X.cache.

    A walk that builds a V_gamma table also fills the b_i table if it is
    missing, from the same systems."""
    betti_key = ("pair_betti", i, q)
    key = betti_key if gamma is None else ("vgamma", i, q, gamma.coeffs)
    if key not in X.cache:
        n1 = X.num_cells(i)
        n2 = X.num_cells(i + 1)
        _guard(1 << (n1 + n2), max_states)
        betti = None if betti_key in X.cache else np.zeros(1 << (n1 + n2), dtype=np.int16)
        flags = None if gamma is None else np.zeros(1 << (n1 + n2), dtype=bool)
        for bits2 in range(1 << n2):
            base = bits2 << n1
            for bits1 in range(1 << n1):
                system = homology.cocycle_system(X, i, q, bits2, bits1)
                if betti is not None:
                    betti[base | bits1] = system.dim
                if flags is not None:
                    flags[base | bits1] = system.contains(gamma)
        if betti is not None:
            X.cache[betti_key] = betti
        if flags is not None:
            X.cache[key] = flags
    return X.cache[key]


def pair_betti_table(X, i: int, q: int,
                     max_states: int = DEFAULT_STATE_GUARD) -> np.ndarray:
    """b_i(P2, P1) for every pair, indexed by (bits2 << n1) | bits1."""
    return _state_table(X, i, q, None, max_states)


def vgamma_table(X, i: int, q: int, gamma: Chain,
                 max_states: int = DEFAULT_STATE_GUARD) -> np.ndarray:
    """V_gamma indicator for every pair, indexed like pair_betti_table."""
    if gamma.dim != i or gamma.q != q:
        raise DimensionMismatch("gamma has wrong dimension or modulus")
    return _state_table(X, i, q, gamma, max_states)


def _pair_classes(params: ModelParams, X, max_states: int) -> tuple[np.ndarray, list]:
    """The flat (|P2|, |P1|, b_i) class of every pair state, in
    pair_betti_table order, and the class weights k2^a k1^c r^b."""
    i = params.i
    n1 = X.num_cells(i)
    n2 = X.num_cells(i + 1)
    betti = pair_betti_table(X, i, params.q, max_states)
    pop = np.bitwise_count(np.arange(1 << max(n1, n2))).astype(np.int64)
    classes = ((pop[:1 << n2, None] * (n1 + 1) + pop[:1 << n1]) * (n1 + 1)).ravel() + betti
    rpow = [params.r ** b for b in range(n1 + 1)]
    weights = [w2 * w1 * rb for w2 in _k_pow_factors(params.k2, n2)
               for w1 in _k_pow_factors(params.k1, n1) for rb in rpow]
    return classes, weights


def enumerate_rho(params: ModelParams, X,
                  max_states: int = DEFAULT_STATE_GUARD) -> Dist:
    """Exact pair distribution; keys are (bits2, bits1)."""
    n1 = X.num_cells(params.i)
    classes, W = _pair_classes(params, X, max_states)
    return Dist.from_weights({divmod(s, 1 << n1): W[k]
                              for s, k in enumerate(classes.tolist()) if W[k]})


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _submask_pairs(mask2: int, mask1: int):
    for bits1 in _submasks(mask1):
        for bits2 in _submasks(mask2):
            yield bits2, bits1


def _coupling_states(F: np.ndarray, X, i: int, q: int):
    """Each cochain f (a row of F) with the (bits2, bits1) pairs of
    positive coupling weight: P2 within {df = 0}, P1 within {f = 0}."""
    zeros2 = delta_cochain(F, X, i, q) == 0
    for row, z1, z2 in zip(F, F == 0, zeros2):
        yield row, _submask_pairs(gfq.vector_to_bits(z2), gfq.vector_to_bits(z1))


def enumerate_kappa(params: ModelParams, X,
                    max_states: int = DEFAULT_STATE_GUARD) -> Dist:
    """Exact coupling distribution on (f, P2, P1).

    Keys are (f tuple, bits2, bits1); only states of positive weight are
    stored, but the guard applies to the full product space.
    """
    if not params.is_plain:
        raise ValidationError("the coupling is defined for the plain model r = q")
    k2, k1 = _finite_k(params, "kappa enumeration")
    q, i = params.q, params.i
    n1 = X.num_cells(i)
    n2 = X.num_cells(i + 1)
    _guard(q ** n1 << (n1 + n2), max_states)
    F = all_cochains(n1, q, max_states)
    pw1 = _k_pow_factors(k1, n1)
    pw2 = _k_pow_factors(k2, n2)
    weights = {}
    for row, pairs in _coupling_states(F, X, i, q):
        fkey = tuple(int(v) for v in row)
        for bits2, bits1 in pairs:
            weights[(fkey, bits2, bits1)] = pw1[bits1.bit_count()] * pw2[bits2.bit_count()]
    return Dist.from_weights(weights)


def kappa_marginals(params: ModelParams, X,
                    max_states: int = DEFAULT_STATE_GUARD) -> tuple[Dist, Dist]:
    """Exact marginals of the coupling, streamed without materializing it.

    Walks every positive-weight (f, P2, P1) state once, accumulating the
    f-marginal and the (P2, P1)-marginal with integer-scaled exact weights.
    Returns (spin marginal, pair marginal).
    """
    if not params.is_plain:
        raise ValidationError("the coupling is defined for the plain model r = q")
    k2, k1 = _finite_k(params, "kappa marginalization")
    q, i = params.q, params.i
    n1 = X.num_cells(i)
    n2 = X.num_cells(i + 1)
    F, z1, z2 = mu_class_data(params, X, max_states)
    # workload = number of positive-weight coupling states
    work = int(sum(1 << int(a + b) for a, b in zip(z1, z2)))
    _guard(work, max_states)
    # integer weights scaled by den(k1)^n1 den(k2)^n2
    pw1 = [k1.numerator ** c * k1.denominator ** (n1 - c) for c in range(n1 + 1)]
    pw2 = [k2.numerator ** c * k2.denominator ** (n2 - c) for c in range(n2 + 1)]
    marg_f: dict = {}
    marg_pair: dict = {}
    for row, pairs in _coupling_states(F, X, i, q):
        tot_f = 0
        for bits2, bits1 in pairs:
            w = pw1[bits1.bit_count()] * pw2[bits2.bit_count()]
            tot_f += w
            marg_pair[(bits2, bits1)] = marg_pair.get((bits2, bits1), 0) + w
        marg_f[tuple(int(v) for v in row)] = tot_f
    return Dist.from_weights(marg_f), Dist.from_weights(marg_pair)


# ---------------------------------------------------------------------------
# Wilson expectations and the identity E_mu[W_gamma] = rho(V_gamma)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WilsonResult:
    lhs_exact: Fraction   # E_mu[W_gamma]
    rhs: Fraction         # rho(V_gamma)

    @property
    def abs_difference(self) -> float:
        return float(abs(self.lhs_exact - self.rhs))


def _spin_counts(params: ModelParams, X, gamma: Chain, max_states: int) -> list[dict]:
    """For each residue c in Z_q, the number of cochains f with f(gamma) = c
    in each nonzero class (z1, z2) = (#{f = 0}, #{df = 0}), as a dict of
    Python ints, counted once per complex in chunks and kept in X.cache."""
    i, q = params.i, params.q
    key = ("spin_counts", i, q, gamma.coeffs)
    if key not in X.cache:
        n1 = X.num_cells(i)
        m = X.num_cells(i + 1) + 1
        _guard(q ** n1, max_states)
        g = gamma.vector(n1)
        size = q * (n1 + 1) * m
        counts = np.zeros(size, dtype=np.int64)
        for F in _cochain_chunks(n1, q):
            z1 = (F == 0).sum(axis=1)
            z2 = (delta_cochain(F, X, i, q) == 0).sum(axis=1)
            counts += np.bincount(((F @ g) % q * (n1 + 1) + z1) * m + z2, minlength=size)
        X.cache[key] = [{divmod(z, m): n for z, n in enumerate(row) if n}
                        for row in counts.reshape(q, -1).tolist()]
    return X.cache[key]


def wilson_class_sums(params: ModelParams, X, gamma: Chain,
                      max_states: int = DEFAULT_STATE_GUARD) -> list[Fraction]:
    """A_c = sum of mu-weights of cochains with f(gamma) = c, for c in Z_q:
    the sum of count * (1+k1)^z1 (1+k2)^z2 over the classes of residue c."""
    counts = _spin_counts(params, X, gamma, max_states)
    pw1 = _spin_pow_factors(params.k1, X.num_cells(params.i))
    pw2 = _spin_pow_factors(params.k2, X.num_cells(params.i + 1))
    return [sum((n * pw1[z1] * pw2[z2] for (z1, z2), n in row.items()), Fraction(0))
            for row in counts]


def wilson_expectation_exact(sums: Sequence[Fraction], q: int) -> Fraction:
    """E_mu[W_gamma] from the class sums A_c, exactly at every prime q.

    f -> kf (k in Z_q^*) keeps the mu-weight and sends f(gamma) = c to kc,
    so A_c = A_1 for every c != 0.  The nontrivial q-th roots of unity sum
    to -1, hence E[W] = (A_0 - A_1)/Z = (q A_0 - Z)/((q - 1) Z).
    """
    total = sum(sums, Fraction(0))
    return (q * sums[0] - total) / ((q - 1) * total)


def _rho_vgamma(params: ModelParams, X, gamma: Chain, max_states: int) -> Fraction:
    """rho(V_gamma) = sum N_V[a,c,b] k2^a k1^c r^b / sum N[a,c,b] k2^a k1^c r^b.

    N (N_V) counts the pair states (in V_gamma) of each nonzero class
    (a, c, b) = (|P2|, |P1|, b_i).  The counts do not depend on k2, k1 or r
    (they are the coefficients of a cellular Tutte-type polynomial), so they
    are built once per complex from the state tables and kept in X.cache as
    {(a, c, b): count}; a warm point only weighs the nonzero classes."""
    i, q = params.i, params.q
    n1 = X.num_cells(i)
    m = n1 + 1  # class id (a * m + c) * m + b, as in _pair_classes
    key = ("pair_counts", i, q)
    vkey = ("vgamma_counts", i, q, gamma.coeffs)
    if vkey not in X.cache:
        # the V_gamma walk also fills the b_i table that _pair_classes reads
        flags = vgamma_table(X, i, q, gamma, max_states)
        classes, _ = _pair_classes(params, X, max_states)
        for k, states in ((key, classes), (vkey, classes[flags])):
            X.cache[k] = {(c // (m * m), c // m % m, c % m): n
                          for c, n in enumerate(np.bincount(states).tolist()) if n}
    counts, v_counts = X.cache[key], X.cache[vkey]
    pw2 = _k_pow_factors(params.k2, X.num_cells(i + 1))
    pw1 = _k_pow_factors(params.k1, n1)
    rpow = [params.r ** b for b in range(m)]
    w = {k: pw2[k[0]] * pw1[k[1]] * rpow[k[2]] for k in counts}
    total = sum((n * w[k] for k, n in counts.items()), Fraction(0))
    if total <= 0:
        raise ValidationError("distribution has zero total weight")
    return sum((n * w[k] for k, n in v_counts.items()), Fraction(0)) / total


def exact_wilson(params: ModelParams, X, gamma: Chain,
                 max_states: int = DEFAULT_STATE_GUARD) -> WilsonResult:
    """Both sides of the Wilson identity, from full enumeration."""
    sums = wilson_class_sums(params, X, gamma, max_states)
    return WilsonResult(lhs_exact=wilson_expectation_exact(sums, params.q),
                        rhs=_rho_vgamma(params, X, gamma, max_states))


# ---------------------------------------------------------------------------
# Ghost vertex equivalence (i = 0)
# ---------------------------------------------------------------------------

def ghost_vertex_check(params: ModelParams, n_vertices: int,
                       edges: Sequence[tuple[int, int]],
                       max_states: int = DEFAULT_STATE_GUARD) -> bool:
    """Exact equivalence of the i=0 coupling with the ghost-vertex coupling.

    Builds G' by joining every vertex to a ghost vertex g, maps each
    (f, P2, P1) state to (f extended by f(g)=0, P2 + ghost edges of P1),
    and verifies the coupling weights agree exactly on all states.
    """
    if params.i != 0:
        raise ValidationError("the ghost construction applies to i = 0 only")
    k2, k1 = _finite_k(params, "ghost check")
    q = params.q
    G = graph_complex(n_vertices, edges)
    ne = len(edges)
    _guard((q ** n_vertices) << (n_vertices + ne), max_states)

    ghost_edges = list(edges) + [(v, n_vertices) for v in range(n_vertices)]
    Gp = graph_complex(n_vertices + 1, ghost_edges)
    pw2 = _k_pow_factors(k2, ne)
    pw1 = _k_pow_factors(k1, n_vertices)

    for f in itertools.product(range(q), repeat=n_vertices):
        fv = np.array(f, dtype=np.int64)
        # G' weight: the edge test df' = 0 on every open edge of G', the
        # ghost edge to v being open iff v is in P1
        okp = gfq.vector_to_bits(delta_cochain(np.concatenate([fv, [0]]), Gp, 0, q) == 0)
        for bits2 in range(1 << ne):
            for bits1 in range(1 << n_vertices):
                P2 = PercSubcomplex(G, 1, bits2)
                P1 = PercSubcomplex(G, 0, bits1)
                w = kappa_weight(fv, P2, P1, params, G)
                pbits = bits2 | (bits1 << ne)
                wp = 0 if pbits & ~okp else pw2[bits2.bit_count()] * pw1[bits1.bit_count()]
                if w != wp:
                    return False
    return True
