"""Helpers that only the tests call: a chain's boundary, growing and
comparing percolation subcomplexes, their JSON round trip, and the
general-gauge coupling (its weight and its conditional spin draw)."""
from fractions import Fraction

import numpy as np

from cpp_lab.complexes import (Chain, CubicalComplex, PercSubcomplex, build_box,
                               build_torus, complex_to_json)
from cpp_lab.errors import InvalidDimension, ValidationError
from cpp_lab.measures import ModelParams, _coupling_weight, delta_cochain
from cpp_lab.sampler import resample_spins


def chain_boundary(X, gamma: Chain) -> Chain:
    """Boundary of a sparse chain."""
    entries = []
    for idx, c in gamma.coeffs:
        cell = X.cell_at(gamma.dim, idx)
        for face, sign in X.boundary_of(cell):
            entries.append((X.cell_id(face), sign * c))
    return Chain.build(gamma.dim - 1, gamma.q, entries)


def with_cell(P: PercSubcomplex, idx: int) -> PercSubcomplex:
    """P with cell idx open."""
    return PercSubcomplex(P.complex, P.dim, P.bits | (1 << idx))


def is_subset(P: PercSubcomplex, Q: PercSubcomplex) -> bool:
    """Whether every open cell of P is open in Q (same complex and dim)."""
    return P.union(Q).bits == Q.bits


def complex_from_json(data: dict) -> CubicalComplex:
    if data["kind"] == "box":
        return build_box(data["d"], data["widths"])
    if data["kind"] == "torus":
        return build_torus(data["d"], data["period"])
    raise InvalidDimension(f"unknown complex kind {data.get('kind')!r}")


def subcomplex_to_json(P: PercSubcomplex) -> dict:
    return {
        "complex": complex_to_json(P.complex),
        "dim": P.dim,
        "open_ids": P.open_ids(),
    }


def subcomplex_from_json(data: dict, X: CubicalComplex | None = None) -> PercSubcomplex:
    if X is None:
        X = complex_from_json(data["complex"])
    return PercSubcomplex.from_ids(X, data["dim"], data["open_ids"])


def kappa_gauge_weight(f, g, P2: PercSubcomplex, P1: PercSubcomplex,
                       params: ModelParams, X) -> Fraction:
    """General-gauge coupling weight: the edge constraint is f = dg."""
    q, i = params.q, params.i
    dg = delta_cochain(np.asarray(g, dtype=np.int64) % q, X, i - 1, q) if i >= 1 else 0
    return _coupling_weight(f, dg, P2, P1, params, X)


def sample_general_gauge(P2: PercSubcomplex, P1: PercSubcomplex, q: int, rng
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Draw (f, g) given the pair in the general-gauge coupling.

    g is uniform on the (i-1)-cochains; f = h + dg with h a uniform
    relative cocycle.
    """
    X = P2.complex
    i = P1.dim
    if i < 1:
        raise ValidationError("general gauge needs i >= 1")
    g = rng.integers(0, q, size=X.num_cells(i - 1)).astype(np.int64)
    h = resample_spins(P2, P1, q, rng)
    f = (h + delta_cochain(g, X, i - 1, q)) % q
    return f, g
