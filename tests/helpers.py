"""Helpers that only the tests call: a chain's boundary, growing and
comparing percolation subcomplexes, their JSON round trip, the
general-gauge coupling (its weight and its conditional spin draw), a
numpy reference for the peel of the gauge path, and a plain union-find."""
from fractions import Fraction

import numpy as np

from cpp_lab.complexes import (Chain, CubicalComplex, PercSubcomplex, build_box,
                               build_torus, complex_to_json)
from cpp_lab.errors import InvalidDimension, ValidationError
from cpp_lab.homology import _unpack
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


def _incident(cells: np.ndarray, n: int) -> np.ndarray:
    """For a table of ids below n (n meaning none), one row per id, and one
    more, listing the table rows that hold it, padded with len(cells)."""
    flat = cells.ravel()
    owner = np.repeat(np.arange(len(cells)), cells.shape[1])
    keep = flat < n
    order = np.argsort(flat[keep], kind="stable")
    flat, owner = flat[keep][order], owner[keep][order]
    counts = np.bincount(flat, minlength=n)
    out = np.full((n + 1, max(1, counts.max(initial=0))), len(cells))
    out[flat, np.arange(len(flat)) - (np.cumsum(counts) - counts)[flat]] = owner
    return out


def _distinct(ids: np.ndarray) -> np.ndarray:
    """The distinct values of ids, sorted."""
    ids = np.sort(ids)
    keep = np.ones(len(ids), dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def peel_reference(X, bits2: int, bits1: int, tree: np.ndarray):
    """The peel of `homology._gauge_system` after the tree edges `tree`,
    one numpy round per peel round, on the edge and 2-cell ids of a box or
    torus: the unknown edges W left by the peel (increasing ids) and the
    residual rows, the open 2-cells with two or more unknown edges
    (decreasing ids)."""
    n1, n2 = X.num_cells(1), X.num_cells(2)
    edges, _ = X.incidence(2)
    cofaces = _incident(edges, n1)
    unknown = ~_unpack(bits1, n1)
    unknown[tree] = False
    # count[n2] is the padding of the coface table, and the rows of closed
    # 2-cells start at 0 and only fall
    as_int = unknown.view(np.uint8)
    count = np.zeros(n2 + 1, dtype=np.int64)
    count[:n2] = np.where(_unpack(bits2, n2), sum(as_int[slot] for slot in edges.T), 0)
    rows = np.flatnonzero(count == 1)
    while rows.size:
        forced = _distinct(edges[rows][unknown[edges[rows]]])
        unknown[forced] = False
        hit = cofaces[forced].ravel()
        np.subtract.at(count, hit, 1)
        rows = hit[count[hit] == 1]
    return np.flatnonzero(unknown), np.flatnonzero(count[:n2] >= 2)[::-1]


def vertex_components(n0: int, ends) -> list[int]:
    """A plain union-find over n0 vertices and the edges (tail, head) of
    `ends`: the representative of every vertex."""
    parent = list(range(n0))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in ends:
        parent[find(a)] = find(b)
    return [find(v) for v in range(n0)]
