"""Reference distributions and conditionals the tests check the measures
against: independent percolation, the plaquette random cluster model, the
one-point conditional law and the Wilson class sums, each from its
definition."""
from fractions import Fraction

import numpy as np

from cpp_lab import homology
from cpp_lab.complexes import Chain, PercSubcomplex
from cpp_lab.errors import DEFAULT_STATE_GUARD, TooLarge
from cpp_lab.measures import Dist, ModelParams, cpp_weight, mu_class_data


def bernoulli_bits_dist(n: int, p: Fraction) -> Dist:
    """Independent open/closed cells: weight p^|bits| (1-p)^(n-|bits|)."""
    p = Fraction(p)
    weights = {}
    for bits in range(1 << n):
        c = bits.bit_count()
        w = p ** c * (1 - p) ** (n - c)
        if w:
            weights[bits] = w
    return Dist.from_weights(weights)


def prcm_dist(X, j: int, q: int, p: Fraction,
              max_states: int = DEFAULT_STATE_GUARD) -> Dist:
    """The j-dimensional plaquette random cluster model on X.

    Weight p^|P| (1-p)^(n-|P|) * |H^(j-1)(P; Z_q)|.
    """
    n = X.num_cells(j)
    if 1 << n > max_states:
        raise TooLarge(1 << n, max_states)
    return Dist.from_weights({
        bits: w * Fraction(q) ** homology.betti(PercSubcomplex(X, j, bits), j - 1, q)
        for bits, w in bernoulli_bits_dist(n, p).entries.items()})


def one_point_conditional(params: ModelParams, X, bits2: int, bits1: int,
                          dim_offset: int, cell: int) -> Fraction:
    """P(cell open | everything else) under rho/rho-hat from exact weights.

    dim_offset 0 conditions an i-cell of P1, 1 an (i+1)-cell of P2.
    """
    i = params.i
    if dim_offset == 0:
        on = PercSubcomplex(X, i, bits1 | (1 << cell))
        off = PercSubcomplex(X, i, bits1 & ~(1 << cell))
        P2 = PercSubcomplex(X, i + 1, bits2)
        w_on = cpp_weight(P2, on, params, X)
        w_off = cpp_weight(P2, off, params, X)
    else:
        on = PercSubcomplex(X, i + 1, bits2 | (1 << cell))
        off = PercSubcomplex(X, i + 1, bits2 & ~(1 << cell))
        P1 = PercSubcomplex(X, i, bits1)
        w_on = cpp_weight(on, P1, params, X)
        w_off = cpp_weight(off, P1, params, X)
    return w_on / (w_on + w_off)


def wilson_class_sums(params: ModelParams, X, gamma: Chain,
                      max_states: int = DEFAULT_STATE_GUARD) -> list[Fraction]:
    """A_c = sum of (1+k1)^#{f=0} (1+k2)^#{df=0} over the cochains f with
    f(gamma) = c, from the full cochain table: one bincount of the classes
    (z1, z2) per residue c.  Finite k only."""
    F, z1, z2 = mu_class_data(params, X, max_states)
    gvals = (F @ gamma.vector(F.shape[1])) % params.q
    m = X.num_cells(params.i + 1) + 1
    classes = z1 * m + z2
    sums = []
    for c in range(params.q):
        counts = np.bincount(classes[gvals == c]).tolist()
        sums.append(sum((n * (1 + params.k1) ** (k // m) * (1 + params.k2) ** (k % m)
                         for k, n in enumerate(counts) if n), Fraction(0)))
    return sums
