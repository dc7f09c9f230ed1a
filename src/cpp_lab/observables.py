"""Loop constructors, Wilson variables, and the Marcu-Fredenhagen ratio."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from . import homology
from .complexes import Cell, Chain, PercSubcomplex
from .errors import DegenerateDenominator, DimensionMismatch, DoesNotFit


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_err: float
    n_samples: int


@dataclass(frozen=True)
class LoopFamily:
    """A rectangular loop with its two half-paths.

    gamma is the counterclockwise boundary of [0, width] x [0, n] in the
    first two coordinates; the halves meet at the midpoints of the two
    vertical sides, so gamma = gamma_prime + gamma_double_prime and the
    halves have equal length when the loop is square.
    """

    n: int
    width: int
    gamma: Chain
    gamma_prime: Chain
    gamma_double_prime: Chain
    x_corner: Cell
    y_corner: Cell


def _edge_id(X, base, axis):
    return X.cell_id(Cell(tuple(base), (axis,)))


def rect_loop(n: int, d: int, X, q: int, width: int | None = None) -> LoopFamily:
    """The standard n x n loop (optionally width x n) at the origin plane."""
    if d < 2 or X.d != d:
        raise DimensionMismatch(f"need an ambient of dimension d = {d} >= 2")
    if n < 2 or n % 2:
        raise DoesNotFit(f"side n = {n} must be even and >= 2")
    w = n if width is None else int(width)
    if X.kind == "box":
        if X.widths[0] < w or X.widths[1] < n:
            raise DoesNotFit(f"{w} x {n} loop does not fit in box {X.widths}")
    elif X.kind == "torus":
        if X.period <= max(w, n):
            raise DoesNotFit(f"{w} x {n} loop does not fit in torus of period {X.period}")
    rest = (0,) * (d - 2)
    half = n // 2

    def entry(base, axis, coeff):
        return (_edge_id(X, base + rest, axis), coeff)

    bottom = [entry((x, 0), 0, 1) for x in range(w)]
    right = [entry((w, y), 1, 1) for y in range(n)]
    top = [entry((x, n), 0, -1) for x in range(w)]
    left = [entry((0, y), 1, -1) for y in range(n)]
    gamma = Chain.build(1, q, bottom + right + top + left)

    upper = [entry((w, y), 1, 1) for y in range(half, n)] + top + \
        [entry((0, y), 1, -1) for y in range(half, n)]
    lower = [entry((0, y), 1, -1) for y in range(half)] + bottom + \
        [entry((w, y), 1, 1) for y in range(half)]
    return LoopFamily(
        n=n,
        width=w,
        gamma=gamma,
        gamma_prime=Chain.build(1, q, upper),
        gamma_double_prime=Chain.build(1, q, lower),
        x_corner=Cell((0, half) + rest, ()),
        y_corner=Cell((w, half) + rest, ()),
    )


def perimeter(gamma: Chain) -> int:
    """Number of cells in the support (coefficients do not matter)."""
    return len(gamma.coeffs)


def mf_ratio(full: Estimate, half: Estimate) -> Estimate:
    """Marcu-Fredenhagen ratio estimate half^2 / full with first-order errors."""
    if full.mean <= 2 * full.std_err:
        raise DegenerateDenominator(
            f"denominator {full.mean} within 2 std errors ({full.std_err}) of 0")
    mean = half.mean ** 2 / full.mean
    var = (2 * half.mean / full.mean) ** 2 * half.std_err ** 2 \
        + (half.mean ** 2 / full.mean ** 2) ** 2 * full.std_err ** 2
    return Estimate(mean=mean, std_err=math.sqrt(var),
                    n_samples=min(full.n_samples, half.n_samples))


# -- observable factories for the sampler -----------------------------------

def wilson_observable(gamma: Chain, q: int):
    """W~ = (q [f(gamma) = 0] - 1)/(q - 1), the mean of Re W over the
    multiples mf (m in Z_q^*).

    Given the pair, f is uniform on a Z_q-subspace, so W~ is the expectation
    of Re W given the pair and the orbit {mf}: it has the mean of W and no
    higher variance, and equals W at q = 2.
    """
    # looked up, so that no float is made per sample
    values = [1.0] + [-1 / (q - 1)] * (q - 1)

    def obs(f, P2, P1):
        return values[gamma.evaluate(f)]
    return obs


def vgamma_observable(gamma: Chain, q: int):
    def obs(f, P2, P1):
        pair = homology.RelPair(P2, P1)
        return 1.0 if homology.v_gamma(pair, gamma, q) else 0.0
    return obs


def open_count_observable(which: str):
    if which not in ("P2", "P1"):
        raise DimensionMismatch("which must be 'P2' or 'P1'")

    # one float per count, shared by every sample with that count
    values: dict[int, float] = {}

    def obs(f, P2: PercSubcomplex, P1: PercSubcomplex):
        count = (P2 if which == "P2" else P1).count
        value = values.get(count)
        if value is None:
            value = values[count] = float(count)
        return value
    return obs


def write_mf_csv(path, rows) -> None:
    """CSV schema: n, p2, p1, q, estimate, std_err."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "p2", "p1", "q", "estimate", "std_err"])
        for row in rows:
            writer.writerow([row["n"], repr(row["p2"]), repr(row["p1"]),
                             row["q"], repr(row["estimate"]), repr(row["std_err"])])
