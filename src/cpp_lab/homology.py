"""Relative (co)homology of percolation pairs, V_gamma, and area oracles.

For a percolation pair (P2, P1) of dimensions (i+1, i) the relative
cochain group below degree i vanishes, so H^i(P2, P1) coincides with the
space of relative cocycles: cochains vanishing on the open cells of P1
whose coboundary vanishes on the open cells of P2.  `cocycle_system`
eliminates bitsliced rows for q in {2, 3} (`gfq.gf2_ref_bits`,
`gfq.gf3_ref_bits`) and a dense coboundary block for q >= 5 (`gfq.rref`),
one row per open (i+1)-cell.  For i = 1 and q in {2, 3} on boxes and tori
of period >= 2 with at least `_GAUGE_MIN_EDGES` edges it gauge-fixes the
system instead (`_gauge_system`): a spanning forest of the P1 clusters
takes the coboundaries dg of the 0-cochains constant on them, a peel
forces most other edges to 0, both as rounds of word-parallel operations
on per-direction bitsets, and only the rows left are eliminated.  Every Betti
number is read off it: rank H^j = dim Z^j - (|C^(j-1)| - dim Z^(j-1)).
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import gfq
from .complexes import Chain, PercSubcomplex
from .errors import BudgetExceeded, DimensionMismatch


@dataclass(frozen=True)
class RelPair:
    """A percolation pair (P2, P1) of dimensions (i+1, i)."""

    P2: PercSubcomplex
    P1: PercSubcomplex

    def __post_init__(self):
        if self.P1.complex is not self.P2.complex:
            raise DimensionMismatch("pair subcomplexes live on different complexes")
        if self.P2.dim != self.P1.dim + 1:
            raise DimensionMismatch(
                f"pair dims must be (i+1, i), got ({self.P2.dim}, {self.P1.dim})")

    @property
    def complex(self):
        return self.P2.complex

    @property
    def i(self) -> int:
        return self.P1.dim


def _face_masks(X, j: int, q: int) -> list:
    """Boundary rows of j-cells over GF(q), q in {2, 3}, on bits: (j-1)-cell
    k at bit n_(j-1)-1-k (the `CocycleSystem` convention).  A q = 2 row is
    one mask of the odd coefficients, a q = 3 row the planes (ones, twos);
    coincident faces (period-1 tori) have their signs summed first."""
    key = ("face_masks", j, q)
    if key not in X.cache:
        faces, signs = X.incidence(j)
        coeffs = signs % q
        if (faces[:, :, None] == faces[:, None, :]).sum() > faces.size:
            # each face's summed sign in its first slot, 0 in its others
            keys = (np.arange(len(faces))[:, None] * X.num_cells(j - 1) + faces).ravel()
            order = np.argsort(keys, kind="stable")
            starts = np.flatnonzero(np.r_[True, np.diff(keys[order]) != 0])
            coeffs = np.zeros(keys.size, dtype=np.int64)
            coeffs[order[starts]] = np.add.reduceat(signs.ravel()[order], starts) % q
            coeffs = coeffs.reshape(faces.shape)
        X.cache[key] = _pack_rows(coeffs, X.num_cells(j - 1) - 1 - faces, q)
    return X.cache[key]


def _pack_rows(coeffs: np.ndarray, shifts: np.ndarray, q: int) -> list:
    """Bitsliced GF(q) rows, q in {2, 3}: slot k of row r puts coefficient
    coeffs[r, k] at bit shifts[r, k] (>= 0), and the slots of a row with a
    nonzero coefficient hit distinct bits.  A q = 2 row is one mask, a q = 3
    row the planes (ones, twos)."""
    shifts = shifts.T.tolist()
    planes = []
    for c in range(1, q):
        # one slot at a time, as 0 or 1 << bit; a row's bits are distinct,
        # so OR-ing its slots adds them
        rows = [0] * len(coeffs)
        for on, at in zip((coeffs == c).T.astype(np.int64).tolist(), shifts):
            rows = map(operator.or_, rows, map(int.__lshift__, on, at))
        planes.append(list(rows))
    return planes[0] if q == 2 else list(zip(*planes))


def _join(labels: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Union the nodes low[k] and high[k] for every k, from `labels` (each
    node's label, every label a root: labels[labels] = labels).  Hooks the
    lower root of every join onto the higher one, then jumps pointers until
    every label is a root again; each union ends labelled by its highest
    initial label (Shiloach-Vishkin)."""
    while True:
        a, b = labels[low], labels[high]
        apart = a != b
        if not apart.any():
            return labels
        low, high, a, b = low[apart], high[apart], a[apart], b[apart]
        labels[np.minimum(a, b)] = np.maximum(a, b)
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


# The gauge path of `cocycle_system` (i = 1, q in {2, 3}) on complexes with
# at least this many edges, a 10^3 box: the smallest box side at which it
# was no slower than the elimination at (0.9, 0.1) and (0.5, 0.9) for
# q = 2 and 3 (BENCH_gauge-fixed.json, "cutoff").  That was measured with
# the elimination's row filter and a numpy forest and peel, both since
# replaced; the cut-off stands until it is measured again on this path.
_GAUGE_MIN_EDGES = 3630


class _Axis(NamedTuple):
    """One axis of the vertex layout of a box or torus: the id stride of a
    step along it and, on a torus, the shift that wraps its top slab onto
    its bottom one and the n_0-bit masks of the vertices below the top
    slab, on it and on the bottom slab (0 on a box, which does not wrap)."""

    stride: int
    wrap: int
    inner: int
    top: int
    bottom: int


def _step(bits: int, axis: _Axis, up: bool) -> int:
    """A layout plane moved one step along an axis: up takes bit v to
    v + e, down takes v + e to v.  On a torus the slab that leaves wraps
    round.  On a box it is a bare shift, exact on the bits off its top
    slab (up) and at the positions off it (down); no edge or 2-cell of a
    box has its tail or base on the top slab of an axis it spans, so the
    callers step only planes of those, or mask the result with one."""
    if not axis.wrap:
        return bits << axis.stride if up else bits >> axis.stride
    if up:
        return (bits & axis.inner) << axis.stride | (bits & axis.top) >> axis.wrap
    return (bits >> axis.stride) & axis.inner | (bits & axis.bottom) << axis.wrap


def _pack(flags: np.ndarray) -> int:
    """Booleans as a bitset (index k -> bit k)."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _unpack(bits: int, n: int) -> np.ndarray:
    """A bitset as n booleans (bit k -> index k)."""
    raw = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool)


class _GaugeTables(NamedTuple):
    """The per-complex tables of the gauge path on a box or torus: the tail
    and the head of every edge (boundary head - tail), the edges of every
    2-cell and their signs, and the padded vertex layout of the bitset
    rounds.  In the layout, bit u * n_0 + v holds the direction-u edge with
    tail v and bit k * n_0 + v the 2-cell of direction pair `pairs[k]` with
    base corner v; `edge_at` and `face_at` give the bit of every edge and
    2-cell id (both increase with the id), and `present` the planes of the
    bits that hold an edge.  The forest's candidate edges come as two
    layouts, one after the other, the first with the edges whose far end
    is their head and the second with those whose far end is their tail:
    `far_at` gives that far vertex at each of their bits (0 where no edge
    is) and `bit_at` the bit of the edge in one layout."""

    tail: np.ndarray
    head: np.ndarray
    edges: np.ndarray
    edge_signs: np.ndarray
    n0: int
    axes: tuple[_Axis, ...]
    pairs: tuple[tuple[int, int], ...]
    edge_at: np.ndarray
    face_at: np.ndarray
    far_at: np.ndarray
    bit_at: np.ndarray
    present: tuple[int, ...]


def _gauge_tables(X) -> _GaugeTables | None:
    """The gauge tables of X, cached in `X.cache`; None unless X is a box
    or a torus of period >= 2 in d >= 2 (on a period-1 torus an edge has
    one vertex and a 2-cell a face twice)."""
    key = ("gauge_tables",)
    if key not in X.cache:
        tables = None
        if X.kind in ("box", "torus") and X.d >= 2 and (X.kind == "box" or X.period >= 2):
            d, n0 = X.d, X.num_cells(0)
            shape = np.array([w + 1 for w in X.widths] if X.period is None else [X.period] * d)
            strides = n0 // np.cumprod(shape)
            if X.period is None:
                axes = tuple(_Axis(int(s), 0, 0, 0, 0) for s in strides)
            else:
                coords = np.arange(n0)[None, :] // strides[:, None] % shape[:, None]
                axes = tuple(_Axis(int(s), int(s) * (X.period - 1), _pack(c < X.period - 1),
                                   _pack(c == X.period - 1), _pack(c == 0))
                             for s, c in zip(strides, coords))
            pairs = tuple(itertools.combinations(range(d), 2))
            # the cells of one direction set take consecutive ids, their
            # base corners in vertex order; a box has none on the top slab
            # of an axis they span
            counts = n0 // shape * (shape - 1) if X.period is None else np.full(d, n0)
            ends, _ = X.incidence(1)
            head, tail = ends.T
            edges, edge_signs = X.incidence(2)
            edge_at = np.repeat(np.arange(d) * n0, counts) + tail
            face_counts = [counts[u] // shape[w] * (shape[w] - 1) if X.period is None else n0
                           for u, w in pairs]
            # the second face of a 2-cell is its bottom edge along the
            # later axis, whose tail is the base corner
            face_at = np.repeat(np.arange(len(pairs)) * n0, face_counts) + tail[edges[:, 1]]
            head_at = np.zeros(d * n0, dtype=np.int64)
            head_at[edge_at] = head
            present = np.zeros(d * n0, dtype=bool)
            present[edge_at] = True
            bits = np.arange(d * n0)
            tables = _GaugeTables(tail, head, edges, edge_signs, n0, axes, pairs, edge_at,
                                  face_at, np.concatenate([head_at, bits % n0]),
                                  np.concatenate([bits, bits]), tuple(_planes(present, n0)))
        X.cache[key] = tables
    return X.cache[key]


def _planes(flags: np.ndarray, n0: int) -> list[int]:
    """Layout booleans as n_0-bit planes, plane k from bit k * n_0."""
    whole, full = _pack(flags), (1 << n0) - 1
    return [(whole >> (k * n0)) & full for k in range(len(flags) // n0)]


def _to_layout(cells: np.ndarray, at: np.ndarray, count: int, n0: int) -> list[int]:
    """Booleans over cell ids as `count` layout planes, the cell with id k
    at bit at[k] of the layout."""
    flags = np.zeros(count * n0, dtype=bool)
    flags[at] = cells
    return _planes(flags, n0)


def _set_bits(planes: list[int], n0: int) -> np.ndarray:
    """The set bits of layout planes, in increasing order."""
    whole = sum(plane << (k * n0) for k, plane in enumerate(planes))
    return np.flatnonzero(_unpack(whole, len(planes) * n0))


def _forest(tables: _GaugeTables, opened: list[int], closed: list[int],
            labels: np.ndarray) -> np.ndarray:
    """The layout bits of the spanning tree of the clusters (their labels
    from `_join`), from a BFS through the closed edges over vertex
    bitsets.  Each level is the set of vertices one closed edge from the
    last level that are not reached yet, closed under the open edges by
    spreading until it stops changing; each cluster joins the tree through
    the lowest-id closed edge from the last level into it."""
    axes = tables.axes

    def cluster(front: int) -> int:
        while True:
            grown = front
            # each axis spreads what the last one reached
            for axis, edges in zip(axes, opened):
                grown |= _step(grown & edges, axis, True) | (_step(grown, axis, False) & edges)
            if grown == front:
                return front
            front = grown

    # complements are XORs with a known superset: `~` on a python int
    # makes it negative, and a mask with it costs several plain ones
    last = cluster(1 << tables.n0 // 2)
    unreached = ((1 << tables.n0) - 1) ^ last
    # the candidates whose far end is their head, and those whose far end
    # is their tail
    ahead, behind = [0] * len(axes), [0] * len(axes)
    while True:
        # the closed edges with their tail, and with their head, in the last level
        tails = [last & edges for edges in closed]
        heads = [_step(last, axis, False) & edges for axis, edges in zip(axes, closed)]
        new = 0
        for axis, out, into in zip(axes, tails, heads):
            new |= _step(out, axis, True) | into
        new &= unreached
        if not new:
            break
        new = cluster(new)
        for u, axis in enumerate(axes):
            ahead[u] |= tails[u] & _step(new, axis, False)
            behind[u] |= heads[u] & new
        unreached ^= new
        last = new
    # the layout order is the id order
    at = _set_bits(ahead + behind, tables.n0)
    size = len(axes) * tables.n0
    first = np.full(tables.n0, size)
    np.minimum.at(first, labels[tables.far_at[at]], tables.bit_at[at])
    return first[first < size]


def _peel(tables: _GaugeTables, unknown: list[int], faces: list[int]) -> list[int]:
    """Clear, round by round, every unknown edge that is the only one of
    an open 2-cell (the layout planes `faces`), in place in the planes
    `unknown`; returns the open 2-cells left with two or more, as layout
    planes.  Per direction pair (u, w) a half-adder counts the unknown
    edges of each 2-cell: u at its base and one step along w, w at its
    base and one step along u.  The fixpoint of the peel is unique, so the
    round order does not change it."""
    axes = tables.axes
    while True:
        forced, rows = False, []
        for (u, w), opened in zip(tables.pairs, faces):
            a, b = unknown[u], _step(unknown[u], axes[w], False)
            c, e = unknown[w], _step(unknown[w], axes[u], False)
            odd1, odd2 = a ^ b, c ^ e
            two = (a & b) | (c & e) | (odd1 & odd2)
            one = opened & (odd1 ^ odd2)
            one ^= one & two
            if one:
                # the cleared edges are the unknown ones among the four
                unknown[u] ^= unknown[u] & (one | _step(one, axes[w], True))
                unknown[w] ^= unknown[w] & (one | _step(one, axes[u], True))
                forced = True
            rows.append(opened & two)
        if not forced:
            return rows


def _gauge_fix(tables: _GaugeTables, bits2: int, bits1: int):
    """The cluster labels of the open edges (`_join`), the layout bits of
    the tree edges, the unknown edges W left by the peel (increasing ids)
    and the residual rows (decreasing ids) of the gauge path; see
    `_gauge_system`."""
    n0, n1, d = tables.n0, len(tables.tail), len(tables.axes)
    open1 = _unpack(bits1, n1)
    labels = _join(np.arange(n0), tables.tail[open1], tables.head[open1])
    opened = _to_layout(open1, tables.edge_at, d, n0)
    closed = [edges ^ o for edges, o in zip(tables.present, opened)]
    tree = _forest(tables, opened, closed, labels)
    flags = np.zeros(d * n0, dtype=bool)
    flags[tree] = True
    unknown = [c ^ t for c, t in zip(closed, _planes(flags, n0))]
    faces = _to_layout(_unpack(bits2, len(tables.edges)), tables.face_at, len(tables.pairs), n0)
    rows = _peel(tables, unknown, faces)
    return (labels, tree, np.searchsorted(tables.edge_at, _set_bits(unknown, n0)),
            np.searchsorted(tables.face_at, _set_bits(rows, n0))[::-1])


class _Gauge(NamedTuple):
    """What a gauge-path `CocycleSystem` keeps besides its residual rows:
    the unknown edges W in increasing id order (column k of the residual
    system is W[k]), the cluster index of every vertex, the number of
    clusters, and the tables of the complex."""

    cells: np.ndarray
    cluster: np.ndarray
    clusters: int
    tables: _GaugeTables

    def restrict(self, gamma: Chain, q: int) -> list[tuple[int, int]] | None:
        """gamma's entries on W as (column, coefficient), or None when the
        boundary of gamma does not sum to 0 mod q over some cluster."""
        if not gamma.coeffs:
            return []
        ids, coeffs = (np.array(v) for v in zip(*gamma.coeffs))
        at = np.concatenate([self.cluster[self.tables.head[ids]],
                             self.cluster[self.tables.tail[ids]]])
        if (np.bincount(at, np.concatenate([coeffs, -coeffs])) % q).any():
            return None
        cols = np.searchsorted(self.cells, ids)
        on = cols < len(self.cells)
        on[on] = self.cells[cols[on]] == ids[on]
        return list(zip(cols[on].tolist(), coeffs[on].tolist()))

    def extend(self, f_w: np.ndarray, q: int, rng) -> np.ndarray:
        """The cochain f' + dg: f' is f_w on W and 0 elsewhere, g is uniform
        in Z_q per cluster."""
        g = rng.integers(0, q, size=self.clusters)[self.cluster]
        f = g[self.tables.head] - g[self.tables.tail]
        f[self.cells] += f_w
        return f % q


def _gauge_system(X, q: int, bits2: int, bits1: int) -> CocycleSystem | None:
    """The cocycle system of degree 1 over GF(q), q in {2, 3}, gauge-fixed;
    None unless X is a box or a torus of period >= 2 (see `_gauge_tables`).

    Z^1(P2, P1) holds dg for every 0-cochain g constant on the clusters of
    P1 (vertices joined by open edges).  A spanning tree T of the clusters
    through closed edges fixes g up to a constant, so f = f' + dg is a
    bijection between Z^1(P2, P1) and the pairs (g mod constants, f') with
    f' in Z^1(P2, P1) vanishing on T.  T comes from a BFS over the clusters
    from the cluster of vertex n_0 // 2, each cluster reached through the
    lowest-id edge that reaches it.  For f' the closed edges off T are
    unknown; an open 2-cell with one unknown edge left forces it to 0, one
    with none left is redundant (the elementary reductions of cubical
    homology, Kaczynski-Mischaikow-Mrozek 2004).  The BFS levels and the
    peel rounds are a few shifts, ANDs and ORs each on per-direction
    bitsets of the vertex layout (`_forest`, `_peel`).  The open 2-cells
    with two or more unknowns left are eliminated over the unknown edges W,
    renumbered compactly, so dim = |T| + |W| - rank.
    """
    tables = _gauge_tables(X)
    if tables is None:
        return None
    n0, n1 = X.num_cells(0), X.num_cells(1)
    labels, tree, cells, rows = _gauge_fix(tables, bits2, bits1)
    unknown = np.zeros(n1, dtype=bool)
    unknown[cells] = True
    width = len(cells)
    shift = np.zeros(n1, dtype=np.int64)
    shift[cells] = np.arange(width - 1, -1, -1)
    # decreasing ids, as on the elimination path
    edges = tables.edges[rows]
    coeffs = np.where(unknown[edges], tables.edge_signs[rows] % q, 0)
    packed = _pack_rows(coeffs, shift[edges], q)
    pivots = gfq.gf2_ref_bits(packed) if q == 2 else gfq.gf3_ref_bits(packed)
    roots = labels == np.arange(n0)
    gauge = _Gauge(cells, (np.cumsum(roots) - 1)[labels], int(roots.sum()), tables)
    return CocycleSystem(q, width, (1 << width) - 1, len(tree) + width - len(pivots),
                         pivots=pivots, gauge=gauge)


@dataclass(slots=True)
class CocycleSystem:
    """The coboundary rows of the open (i+1)-cells of P2, restricted to the
    closed i-cells (those not open in P1) and eliminated over GF(q).

    Open P1 cells are pinned to 0, so the kernel of these rows, extended by
    zero, is Z^i(P2, P1).  For q in {2, 3} `closed` is a bitmask and
    `pivots` the bitsliced echelon rows (a GF(2) mask, or GF(3) planes
    (ones, twos) with pivot coefficient 1), both indexing i-cell k at bit
    n_i-1-k: the pivot is a row's highest bit, so under this mapping it is
    the row's lowest cell id, as in the dense RREF.  For q >= 5 `closed`
    holds the closed ids in increasing order and `red` the dense RREF over
    them.

    A gauge-path system (`_gauge_system`) keeps, in the same fields, the
    residual rows over the unknown edges W: n_i = |W|, `closed` has every
    bit of W set, and `gauge` maps W back to the edges and holds the P1
    clusters; its pivots are not those of the full row set.
    """

    q: int
    n_i: int
    closed: int | np.ndarray
    dim: int
    pivots: dict[int, int] | dict[int, tuple[int, int]] | None = None
    red: gfq.RrefResult | None = None
    gauge: _Gauge | None = None

    def contains(self, gamma: Chain) -> bool:
        """Whether gamma lies in the row space of the cocycle constraints,
        i.e. bounds an (i+1)-chain of P2 rel P1 (the event V_gamma).  On the
        gauge path that is: the boundary of gamma sums to 0 over every
        cluster (gamma annihilates every dg) and gamma on W lies in the
        residual row space (gamma annihilates every f')."""
        entries = gamma.coeffs
        if self.gauge is not None:
            entries = self.gauge.restrict(gamma, self.q)
            if entries is None:
                return False
        if self.q == 2:
            gbits = 0
            for idx, c in entries:
                if c % 2:
                    gbits |= 1 << idx
            gbits = gfq.bit_reverse(gbits, self.n_i)
            return gfq.gf2_residual_bits(self.pivots, gbits & self.closed) == 0
        if self.q == 3:
            planes = [0, 0]
            for idx, c in entries:
                if c % 3:
                    planes[c % 3 - 1] |= 1 << (self.n_i - 1 - idx)
            ones, twos = (p & self.closed for p in planes)
            return gfq.gf3_residual_bits(self.pivots, ones, twos) == (0, 0)
        g = gamma.vector(self.n_i)[self.closed]
        return not gfq.reduce_vector(self.red, g, self.q).any()

    def sample(self, rng) -> np.ndarray:
        """Uniform element of Z^i(P2, P1) as a dense cochain.

        Free coordinates are drawn i.i.d. uniform in increasing column
        order (no draw when dim = 0) and pivots follow from them, the same
        stream as uniform coefficients on the dense kernel basis.  On the
        gauge path that draw gives f' on W, and g follows, one uniform value
        per cluster in cluster order.
        """
        if self.q in (2, 3):
            if self.q == 2:
                bits = gfq.gf2_kernel_sample(self.pivots, self.closed, rng)
                f = gfq.bits_to_vector(gfq.bit_reverse(bits, self.n_i), self.n_i)
            else:
                ones, twos = gfq.gf3_kernel_sample(self.pivots, self.closed, rng)
                f = (gfq.bits_to_vector(gfq.bit_reverse(ones, self.n_i), self.n_i)
                     + 2 * gfq.bits_to_vector(gfq.bit_reverse(twos, self.n_i), self.n_i))
            return f if self.gauge is None else self.gauge.extend(f, self.q, rng)
        f = np.zeros(self.n_i, dtype=np.int64)
        if self.dim:
            pivot_cols = list(self.red.pivot_cols)
            free = np.setdiff1d(np.arange(len(self.closed)), pivot_cols)
            coeffs = rng.integers(0, self.q, size=self.dim)
            f[self.closed[free]] = coeffs
            f[self.closed[pivot_cols]] = -(self.red.matrix[:self.red.rank][:, free] @ coeffs) % self.q
        return f


def cocycle_system(X, i: int, q: int, bits2: int, bits1: int) -> CocycleSystem:
    """The relative cocycle system of the pair given as bitsets: open
    (i+1)-cells `bits2`, open i-cells `bits1`.

    The last system built is kept in the single slot
    `X.cache["cocycle_system"]`, keyed by (i, q, bits2, bits1), so a sweep's
    spin draw and the observables and weights read on the same pair share
    one elimination; callers must not mutate the result.  On a miss the old
    system is released before the new one is built, so two systems are
    never alive at once.  The row of every open (i+1)-cell is eliminated.
    For i = 1 and q in {2, 3} on boxes and tori of period >= 2 with at least
    `_GAUGE_MIN_EDGES` edges, the system is gauge-fixed instead (`_gauge_system`):
    the face masks are not built, and the seeded draw is not the
    elimination path's.
    """
    key = (i, q, bits2, bits1)
    slot = X.cache.pop("cocycle_system", None)
    if slot is not None and slot[0] == key:
        X.cache["cocycle_system"] = slot
        return slot[1]
    del slot  # the old system goes before the new one is built
    if i == 1 and q in (2, 3) and X.num_cells(1) >= _GAUGE_MIN_EDGES:
        system = _gauge_system(X, q, bits2, bits1)
        if system is not None:
            X.cache["cocycle_system"] = (key, system)
            return system
    n_i = X.num_cells(i)
    open_ids = gfq.bit_ids(bits2)
    if q in (2, 3):
        closed = ((1 << n_i) - 1) & ~gfq.bit_reverse(bits1, n_i)
        masks = _face_masks(X, i + 1, q) if bits2 else []
        # decreasing ids: the row space, and so the pivot set, is unchanged,
        # and the elimination fills in less
        if q == 2:
            pivots = gfq.gf2_ref_bits(masks[s] & closed for s in reversed(open_ids))
        else:
            pivots = gfq.gf3_ref_bits((masks[s][0] & closed, masks[s][1] & closed)
                                      for s in reversed(open_ids))
        system = CocycleSystem(q, n_i, closed, closed.bit_count() - len(pivots), pivots=pivots)
    else:
        closed = np.flatnonzero(gfq.bits_to_vector(bits1, n_i) == 0)
        red = gfq.rref(X.coboundary_matrix(i, open_ids, closed), q)
        system = CocycleSystem(q, n_i, closed, len(closed) - red.rank, red=red)
    X.cache["cocycle_system"] = (key, system)
    return system


def _all_cells(X, k: int) -> int:
    return (1 << X.num_cells(k)) - 1


def _cohomology_rank(X, rel: dict[int, int], j: int, q: int) -> int:
    """rank H^j = dim Z^j - (|rel[j-1]| - dim Z^(j-1)) of the cochain complex
    on the k-cell bitsets rel[k] (a missing key means no cells), with each
    dim Z^k read off a `cocycle_system`."""
    gfq.require_prime(q)

    def z_dim(k: int) -> int:
        opened = _all_cells(X, k) & ~rel.get(k, 0)
        return cocycle_system(X, k, q, rel.get(k + 1, 0), opened).dim

    if not rel.get(j, 0):
        return 0
    below = rel.get(j - 1, 0)
    return z_dim(j) - (below.bit_count() - z_dim(j - 1) if below else 0)


def subcomplex_cohomology_rank(X, s_cells: dict[int, set[int] | None],
                               a_cells: dict[int, set[int] | None],
                               j: int, q: int) -> int:
    """rank H^j(S, A) for explicit subcomplexes S >= A of X.

    Cells per dimension are given as sets of ids, with None meaning all
    cells of X in that dimension and a missing key meaning none.
    """
    def bits(cells: dict, k: int) -> int:
        ids = cells.get(k, ())
        mask = _all_cells(X, k) if ids is None else sum(1 << c for c in set(ids))
        if mask >> X.num_cells(k):
            raise DimensionMismatch(f"a {k}-cell id is outside the complex")
        return mask

    rel = {k: bits(s_cells, k) & ~bits(a_cells, k) for k in s_cells}
    return _cohomology_rank(X, rel, j, q)


def rel_betti(pair: RelPair, j: int, q: int) -> int:
    """Relative Betti number b_j(P2, P1) over GF(q)."""
    X, i = pair.complex, pair.i
    # j = i reads the system keyed (i, q, P2.bits, P1.bits), the sampler's
    rel = {i: _all_cells(X, i) & ~pair.P1.bits, i + 1: pair.P2.bits}
    return _cohomology_rank(X, rel, j, q)


def betti(obj, j: int, q: int) -> int:
    """Absolute Betti number of a complex or a percolation subcomplex."""
    if isinstance(obj, PercSubcomplex):
        X = obj.complex
        rel = {k: _all_cells(X, k) for k in range(obj.dim)}
        rel[obj.dim] = obj.bits
    else:
        X = obj
        rel = {k: _all_cells(X, k) for k in range(X.d + 1)}
    return _cohomology_rank(X, rel, j, q)


def v_gamma(pair: RelPair, gamma: Chain, q: int) -> bool:
    """Whether gamma is null-homologous rel P1 using (i+1)-chains in P2.

    Equivalent to solvability of [boundary | P1-inclusion] x = gamma, i.e.
    gamma lying in the row space of the cocycle constraint matrix.
    """
    if gamma.dim != pair.i or gamma.q != q:
        raise DimensionMismatch("gamma has wrong dimension or modulus")
    return cocycle_system(pair.complex, pair.i, q, pair.P2.bits, pair.P1.bits).contains(gamma)


def euler_characteristic(obj) -> int:
    """Alternating sum of cell counts of a complex, subcomplex, or pair."""
    if isinstance(obj, RelPair):
        i = obj.i
        n_i = obj.complex.num_cells(i)
        return (-1) ** i * (n_i - obj.P1.count) + (-1) ** (i + 1) * obj.P2.count
    if isinstance(obj, PercSubcomplex):
        X = obj.complex
        total = sum((-1) ** j * X.num_cells(j) for j in range(obj.dim))
        return total + (-1) ** obj.dim * obj.count
    return sum((-1) ** j * n for j, n in enumerate(obj.cell_counts()))


def min_area(gamma: Chain, X, q: int, budget: int = 1_000_000) -> int | None:
    """Minimal plaquette count of a 2-chain tau with boundary gamma.

    Exhaustive search over 2-cell subsets in increasing cardinality; exact
    but exponential, intended as a test oracle only.  Returns None when no
    bounding chain exists in the ambient complex; raises BudgetExceeded
    after examining `budget` candidate subsets.
    """
    if gamma.dim != 1:
        raise DimensionMismatch("min_area expects a 1-chain")
    if not gamma.coeffs:
        return 0
    n2 = X.num_cells(2)
    if not cocycle_system(X, 1, q, (1 << n2) - 1, 0).contains(gamma):
        return None
    examined = 0
    for k in range(1, n2 + 1):
        for subset in itertools.combinations(range(n2), k):
            examined += 1
            if examined > budget:
                raise BudgetExceeded(f"min_area examined {budget} subsets")
            if cocycle_system(X, 1, q, sum(1 << s for s in subset), 0).contains(gamma):
                return k
    return None
