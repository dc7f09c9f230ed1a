"""Exact linear algebra over the prime field GF(q).

Matrices are dense numpy int64 arrays with entries reduced mod q; q is
validated once per model (see `require_prime`), not per element.  Dense
`rref` serves q >= 5.  Bit-packed paths for q = 2 (rows as python ints)
and q = 3 (rows as two python-int bit planes) back the hot loops of the
sampler and the oracles.  Their pivot is a row's highest set bit, which
`int.bit_length` reads without allocating; kernel draws take the free
columns in decreasing bit order.  Callers that want lowest-index pivots
store index k at bit n-1-k (`bit_reverse`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonPrimeModulus, ZeroInverse


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def require_prime(q: int) -> int:
    if not is_prime(q):
        raise NonPrimeModulus(f"q = {q} is not prime")
    return q


def fq_inv(a: int, q: int) -> int:
    """Multiplicative inverse of a in GF(q), q prime."""
    a %= q
    if a == 0:
        raise ZeroInverse("0 has no inverse in GF(q)")
    # Fermat: a^(q-2) = a^(-1) for prime q.
    return pow(a, q - 2, q)


def asarray_mod(mat, q: int) -> np.ndarray:
    m = np.asarray(mat, dtype=np.int64)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {m.shape}")
    return m % q


@dataclass(frozen=True)
class RrefResult:
    matrix: np.ndarray
    rank: int
    pivot_cols: tuple[int, ...]


def rref(mat, q: int) -> RrefResult:
    """Reduced row echelon form over GF(q) with row swaps for pivoting."""
    m = asarray_mod(mat, q)  # a fresh `m % q`, eliminated in place
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            m[[r, p]] = m[[p, r]]
        inv = fq_inv(int(m[r, c]), q)
        if inv != 1:
            m[r] = (m[r] * inv) % q
        others = np.nonzero(m[:, c])[0]
        others = others[others != r]
        if others.size:
            m[others] = (m[others] - np.outer(m[others, c], m[r])) % q
        pivots.append(c)
        r += 1
    return RrefResult(matrix=m, rank=len(pivots), pivot_cols=tuple(pivots))


def reduce_vector(red: RrefResult, vec, q: int) -> np.ndarray:
    """Residual of a row vector after elimination against RREF rows.

    Zero residual iff vec lies in the row space of the reduced matrix.
    """
    v = np.asarray(vec, dtype=np.int64) % q
    if v.shape != (red.matrix.shape[1],):
        raise DimensionMismatch(f"vector length {v.shape} vs {red.matrix.shape[1]} columns")
    v = v.copy()
    for r, pc in enumerate(red.pivot_cols):
        if v[pc]:
            v = (v - v[pc] * red.matrix[r]) % q
    return v


# ---------------------------------------------------------------------------
# GF(2) bit-packed rows: column j of a row is bit j of a python int.
# ---------------------------------------------------------------------------

def gf2_ref_bits(rows) -> dict[int, int]:
    """Row echelon form (not reduced): {pivot_col: row}, pivot = highest bit."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            hit = pivots.get(top)
            if hit is None:
                pivots[top] = row
                break
            row ^= hit
    return pivots


def gf2_residual_bits(pivots: dict[int, int], vec: int) -> int:
    """Reduce vec against echelon rows (pivot = highest bit); 0 iff vec
    is in their span."""
    while vec:
        top = vec.bit_length() - 1
        hit = pivots.get(top)
        if hit is None:
            return vec
        vec ^= hit
    return 0


def gf2_kernel_sample(pivots: dict[int, int], col_mask: int, rng) -> int:
    """Uniform sample from the kernel of a GF(2) matrix in echelon form.

    Equivalent to drawing uniform coefficients for a kernel basis: free
    coordinates are i.i.d. fair bits drawn in decreasing bit order, pivots
    follow by back-substitution in increasing column order (a row's pivot
    is its highest set bit, so every other coordinate it touches is solved
    before it).  Columns outside col_mask are pinned to zero instead of
    being free; every pivot column lies in col_mask.  On a wide col_mask
    the free columns are found and filled on an unpacked numpy copy of it.
    """
    x = 0
    if col_mask.bit_length() < 64:
        # below 64 columns the list beats numpy's fixed per-call cost: numpy
        # at every width ran acceptance 11's 4-column chain 17% and 04's MC
        # part 10% slower (BENCH_redundant-rows.json, "gates")
        free = [c for c in reversed(bit_ids(col_mask)) if c not in pivots]
        if free:
            for c, bit in zip(free, rng.integers(0, 2, size=len(free))):
                if bit:
                    x |= 1 << c
    else:
        width = (col_mask.bit_length() + 7) // 8
        cols = np.unpackbits(np.frombuffer(col_mask.to_bytes(width, "little"), dtype=np.uint8),
                             bitorder="little")
        cols[np.fromiter(pivots, dtype=np.intp, count=len(pivots))] = 0
        free = np.flatnonzero(cols)[::-1]
        if free.size:
            cols[free] = rng.integers(0, 2, size=free.size)
            x = int.from_bytes(np.packbits(cols, bitorder="little").tobytes(), "little")
    for pc in sorted(pivots):
        if ((pivots[pc] & x).bit_count()) & 1:
            x |= 1 << pc
    return x


# ---------------------------------------------------------------------------
# GF(3) bitsliced rows (Boothby-Bradshaw 2009): a row is a pair of disjoint
# python ints (ones, twos), column j holding 1 (2) when bit j of ones (twos)
# is set.
# ---------------------------------------------------------------------------

def gf3_ref_bits(rows) -> dict[int, tuple[int, int]]:
    """Row echelon form (not reduced) of (ones, twos) rows:
    {pivot_col: row}, pivot = highest bit, pivot coefficient 1."""
    pivots: dict[int, tuple[int, int]] = {}
    for ones, twos in rows:
        while ones or twos:
            top = max(ones.bit_length(), twos.bit_length()) - 1
            hit = pivots.get(top)
            if hit is None:
                if twos >> top:  # scale by 2 = -1: swap the planes
                    ones, twos = twos, ones
                pivots[top] = (ones, twos)
                break
            ones, twos = _gf3_cancel(ones, twos, top, hit)
    return pivots


def _gf3_cancel(ones: int, twos: int, top: int, hit: tuple[int, int]) -> tuple[int, int]:
    """row - c * hit, where c is the row's coefficient at `top`, hit's pivot
    (coefficient 1): row + hit when c = 2, row + (-hit) when c = 1."""
    b1, b2 = hit if twos >> top else hit[::-1]
    # bitwise a + b over GF(3), a = (ones, twos), b = (b1, b2)
    t = (ones | b2) ^ (twos | b1)
    return (twos | b2) ^ t, (ones | b1) ^ t


def gf3_residual_bits(pivots: dict[int, tuple[int, int]], ones: int,
                      twos: int) -> tuple[int, int]:
    """Reduce (ones, twos) against echelon rows (pivot = highest bit);
    (0, 0) iff it is in their span."""
    while ones or twos:
        top = max(ones.bit_length(), twos.bit_length()) - 1
        hit = pivots.get(top)
        if hit is None:
            break
        ones, twos = _gf3_cancel(ones, twos, top, hit)
    return ones, twos


def gf3_kernel_sample(pivots: dict[int, tuple[int, int]], col_mask: int,
                      rng) -> tuple[int, int]:
    """Uniform sample (ones, twos) from the kernel of a GF(3) matrix in
    echelon form, as `gf2_kernel_sample`: free coordinates i.i.d. uniform
    in {0, 1, 2} drawn in decreasing bit order, pivots by back-substitution
    in increasing column order, columns outside col_mask pinned to zero.
    """
    free = [c for c in reversed(bit_ids(col_mask)) if c not in pivots]
    ones = twos = 0
    if free:
        draws = rng.integers(0, 3, size=len(free))
        for c, v in zip(free, draws.tolist()):
            if v == 1:
                ones |= 1 << c
            elif v == 2:
                twos |= 1 << c
    for pc in sorted(pivots):
        h1, h2 = pivots[pc]
        # the row's sum over solved columns: 1*1 and 2*2 count 1, 1*2 counts 2
        s = ((h1 & ones).bit_count() + (h2 & twos).bit_count()
             + 2 * ((h1 & twos).bit_count() + (h2 & ones).bit_count())) % 3
        if s == 1:  # x_pc = -s
            twos |= 1 << pc
        elif s == 2:
            ones |= 1 << pc
    return ones, twos


# bit j of byte b moves to bit 7-j
_BYTE_REVERSE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def bit_reverse(bits: int, n: int) -> int:
    """Move bit k of an n-bit set to bit n-1-k; bits at or above n are dropped."""
    width = (n + 7) // 8
    raw = (bits & ((1 << n) - 1)).to_bytes(width, "little").translate(_BYTE_REVERSE)
    return int.from_bytes(raw, "big") >> (8 * width - n)


# From this bit length up `bit_ids` unpacks with numpy.  The two cross near
# 96 bits; at 756 bits numpy takes 7-12 us against 28 us for the string
# walk, at 4 bits 2.8 against 0.5 us (timeit, Python 3.11, numpy 2.4).
_BIT_IDS_NUMPY = 128


def bit_ids(bits: int) -> list[int]:
    """Indices of the set bits of an int bitset in increasing order, in
    time linear in its bit length."""
    if bits.bit_length() < _BIT_IDS_NUMPY:
        return [k for k, c in enumerate(reversed(bin(bits))) if c == "1"]
    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist()


def bits_to_vector(bits: int, n: int) -> np.ndarray:
    """Unpack an int bitset into a 0/1 vector of length n (bit j -> index j)."""
    raw = bits.to_bytes((n + 7) // 8 or 1, "little")
    arr = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return arr[:n].astype(np.int64)


def vector_to_bits(vec) -> int:
    """Pack a vector's odd entries into an int bitset (index j -> bit j)."""
    arr = (np.asarray(vec, dtype=np.int64) % 2).astype(np.uint8)
    packed = np.packbits(arr, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")
