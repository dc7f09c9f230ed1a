"""Cell complexes: cubical boxes and discrete tori, and explicit complexes.

Both kinds share one core, `CellComplex`: a subclass gives its cells in
id order, their ids and `boundary_of(cell)`, and the core derives the
sparse incidence lists and, scattered from them on demand, restricted
integer coboundary matrices.  All structure a complex keeps (the incidence
lists, GF(2) face masks, gauge tables, exact pair tables and the last
relative cocycle system) lives in its one `cache` dict, as long as the
complex does.

Cubical cells are axis-aligned unit cubes identified by (base corner,
spanned axis set).  Ids are assigned lexicographically on (dirs, base),
which keeps coboundary matrices and RNG streams reproducible across runs;
a cubical complex computes them from the id block of each axis set and
stores no cells.  An explicit complex keeps its named cells in lists.

Boundary convention: a j-cell spanning axes u_1 < ... < u_j has

    boundary = sum_m (-1)^(m-1) * (top face in direction u_m - bottom face),

the standard cubical convention; it satisfies boundary(boundary) = 0.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import gfq
from .errors import (DEFAULT_STATE_GUARD, DimensionMismatch, InvalidDimension, NotATorus,
                     TooLarge)


class Cell(NamedTuple):
    base: tuple[int, ...]
    dirs: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.dirs)


class CellComplex:
    """Shared core of a finite cell complex.

    Subclasses set `kind` and `d` and define `num_cells(j)`, `cells(j)` (the
    j-cells in id order), `cell_id(cell)` and `boundary_of(cell)`.
    """

    kind: str
    d: int

    def __init__(self):
        self.cache: dict = {}

    def cell_counts(self) -> tuple[int, ...]:
        return tuple(self.num_cells(j) for j in range(self.d + 1))

    def incidence(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Face ids and signs of every j-cell, shape (n_j, width) each, where
        width is the longest boundary of a j-cell.

        Shorter boundaries are padded with sign-0 entries pointing at face 0.
        """
        key = ("incidence", j)
        if key not in self.cache:
            cells = self.cells(j)
            width = max((len(self.boundary_of(c)) for c in cells), default=0)
            faces = np.zeros((len(cells), width), dtype=np.int64)
            signs = np.zeros((len(cells), width), dtype=np.int64)
            for row, cell in enumerate(cells):
                for k, (face, sign) in enumerate(self.boundary_of(cell)):
                    faces[row, k] = self.cell_id(face)
                    signs[row, k] = sign
            self.cache[key] = (faces, signs)
        return self.cache[key]

    def coboundary_matrix(self, j: int, rows, cols) -> np.ndarray:
        """Integer coboundary C^j -> C^(j+1), restricted to the (j+1)-cell ids
        `rows` and the j-cell ids `cols`, scattered from `incidence(j + 1)`.

        The transpose of the boundary matrix on (j+1)-cells when both are
        full ranges.  Raises `TooLarge` before allocating more than
        `DEFAULT_STATE_GUARD` entries.
        """
        entries = len(rows) * len(cols)
        if entries > DEFAULT_STATE_GUARD:
            raise TooLarge(entries, DEFAULT_STATE_GUARD, what="dense coboundary matrix",
                           unit="entries")
        mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
        if not len(rows) or not len(cols):
            return mat
        faces, signs = self.incidence(j + 1)
        rows = np.asarray(rows, dtype=np.int64)
        col = np.full(self.num_cells(j), -1, dtype=np.int64)
        col[cols] = np.arange(len(cols))
        sub = col[faces[rows]]
        # faces outside `cols` are dropped; coincident faces (period-1 tori) sum;
        # the zero-sign padding of explicit complexes adds nothing
        r, k = np.nonzero(sub >= 0)
        np.add.at(mat, (r, sub[r, k]), signs[rows[r], k])
        return mat


class CubicalComplex(CellComplex):
    """A finite box or discrete torus.  It stores no cells: ids, cells and
    counts are computed from the id blocks of the direction sets."""

    def __init__(self, kind: str, d: int, widths=None, period=None):
        if d < 1:
            raise InvalidDimension(f"d = {d} must be >= 1")
        self.kind = kind
        self.d = d
        if kind == "box":
            widths = tuple(int(w) for w in widths)
            if len(widths) != d or any(w < 1 for w in widths):
                raise InvalidDimension(f"bad box widths {widths}")
            self.widths = widths
            self.period = None
        elif kind == "torus":
            period = int(period)
            if period < 1:
                raise InvalidDimension(f"bad torus period {period}")
            self.widths = None
            self.period = period
        else:
            raise InvalidDimension(f"unknown kind {kind!r}")
        super().__init__()
        # one block of consecutive ids per direction set, the sets of a
        # dimension in lexicographic order and the bases of a set in
        # row-major order: per dimension, each set's first id and base shape
        self._blocks: list[dict[tuple[int, ...], tuple[int, tuple[int, ...]]]] = []
        self._counts: list[int] = []
        for j in range(d + 1):
            start, blocks = 0, {}
            for dirs in itertools.combinations(range(d), j):
                blocks[dirs] = (start, self._shape(dirs))
                start += math.prod(blocks[dirs][1])
            self._blocks.append(blocks)
            self._counts.append(start)

    def _shape(self, dirs: tuple[int, ...]) -> tuple[int, ...]:
        """Base ranges of the cells spanning `dirs`, one per axis."""
        if self.kind == "torus":
            return (self.period,) * self.d
        return tuple(w if k in dirs else w + 1 for k, w in enumerate(self.widths))

    # -- cell bookkeeping ---------------------------------------------------

    def num_cells(self, j: int) -> int:
        return self._counts[j] if 0 <= j <= self.d else 0

    def cells(self, j: int) -> list[Cell]:
        """The j-cells in id order, built on each call."""
        return [Cell(base, dirs) for dirs, (_, shape) in self._blocks[j].items()
                for base in itertools.product(*map(range, shape))]

    def cell_id(self, cell: Cell) -> int:
        """The first id of the cell's block plus the row-major index of its
        base; KeyError for a cell the complex does not have."""
        base, dirs = self.normalize(cell)
        block = self._blocks[len(dirs)].get(dirs) if len(dirs) <= self.d else None
        if block is None or len(base) != self.d:
            raise KeyError(cell)
        start, shape = block
        offset = 0
        for b, n in zip(base, shape):
            # whole coordinates only: a base of 1.5 names no cell
            if not 0 <= b < n or b % 1:
                raise KeyError(cell)
            offset = offset * n + b
        return start + int(offset)

    def cell_at(self, j: int, idx: int) -> Cell:
        """The cell with id idx; IndexError when there is none."""
        idx = operator.index(idx)
        if not 0 <= idx < self.num_cells(j):
            raise IndexError(f"no {j}-cell has id {idx}")
        for dirs, (start, shape) in reversed(self._blocks[j].items()):
            if start <= idx:
                break
        offset, base = idx - start, []
        for n in reversed(shape):
            offset, b = divmod(offset, n)
            base.append(b)
        return Cell(tuple(base[::-1]), dirs)

    def normalize(self, cell: Cell) -> Cell:
        if self.kind == "torus":
            n = self.period
            return Cell(tuple(b % n for b in cell.base), cell.dirs)
        return cell

    def translate(self, cell: Cell, shift: Sequence[int]) -> Cell:
        base = tuple(b + s for b, s in zip(cell.base, shift))
        return self.normalize(Cell(base, cell.dirs))

    # -- boundary structure ---------------------------------------------------

    def boundary_of(self, cell: Cell) -> list[tuple[Cell, int]]:
        """Signed codimension-1 faces of a cell (2*dim entries)."""
        if cell.dim < 1:
            raise InvalidDimension("0-cells have empty boundary")
        out = []
        for m, u in enumerate(cell.dirs):
            sub = tuple(v for v in cell.dirs if v != u)
            sign = 1 if m % 2 == 0 else -1
            top_base = tuple(b + (1 if k == u else 0) for k, b in enumerate(cell.base))
            out.append((self.normalize(Cell(top_base, sub)), sign))
            out.append((self.normalize(Cell(cell.base, sub)), -sign))
        return out

    def incidence(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """As `CellComplex.incidence`, read off the id blocks instead of
        `boundary_of`.  The tests keep it in step with `boundary_of`.  The
        gauge tables, the face masks and `measures.delta_cochain` read these
        lists; on a 12^3 box the per-cell loop takes about 35 and 60-110 ms
        for j = 1 and 2, this read under 1 ms."""
        if not 1 <= j <= self.d:
            raise InvalidDimension(f"{j}-cells have no incidence lists")
        key = ("incidence", j)
        if key not in self.cache:
            below = self._blocks[j - 1]
            blocks = []
            for dirs, (_, shape) in self._blocks[j].items():
                base = np.indices(shape).reshape(self.d, -1)
                cols = []
                for u in dirs:
                    first, sub_shape = below[tuple(v for v in dirs if v != u)]
                    top = base.copy()
                    top[u] += 1
                    if self.kind == "torus":
                        top[u] %= self.period
                    cols += [first + np.ravel_multi_index(corner, sub_shape)
                             for corner in (top, base)]
                blocks.append(np.stack(cols, axis=1))
            faces = np.concatenate(blocks)
            # the m-th spanned axis gives its top face (-1)^m, its bottom -(-1)^m
            pattern = np.array([1, -1, -1, 1] * j, dtype=np.int64)[:2 * j]
            self.cache[key] = (faces, np.tile(pattern, (len(faces), 1)))
        return self.cache[key]

    # -- torus duality ---------------------------------------------------------

    def bullet_dual(self, cell: Cell) -> Cell:
        """The (d-j)-cell of the half-shifted lattice crossing a j-cell.

        The shifted lattice is identified back with the torus by the fixed
        translation that moves dual vertices onto integer points; applying
        the map twice therefore returns the original cell translated by -1
        in every coordinate.
        """
        if self.kind != "torus":
            raise NotATorus("bullet dual is defined on tori only")
        spanned = set(cell.dirs)
        co_dirs = tuple(k for k in range(self.d) if k not in spanned)
        base = tuple(
            b if k in spanned else (b - 1) % self.period
            for k, b in enumerate(cell.base)
        )
        return Cell(base, co_dirs)


def build_box(d: int, widths: Sequence[int]) -> CubicalComplex:
    """Box complex [0,w_1] x ... x [0,w_d] with free boundary."""
    return CubicalComplex("box", d, widths=widths)


def build_torus(d: int, n: int) -> CubicalComplex:
    """Discrete torus of period n (opposite faces identified)."""
    return CubicalComplex("torus", d, period=n)


# ---------------------------------------------------------------------------
# Percolation subcomplexes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PercSubcomplex:
    """Open j-cells of a percolation subcomplex, as a bitset over cell ids.

    The full (j-1)-skeleton is implicitly contained.
    """

    complex: CellComplex = field(repr=False)
    dim: int
    bits: int

    @classmethod
    def empty(cls, X, j: int) -> "PercSubcomplex":
        return cls(X, j, 0)

    @classmethod
    def full(cls, X, j: int) -> "PercSubcomplex":
        return cls(X, j, (1 << X.num_cells(j)) - 1)

    @classmethod
    def from_ids(cls, X, j: int, ids: Iterable[int]) -> "PercSubcomplex":
        bits = 0
        for i in ids:
            bits |= 1 << i
        return cls(X, j, bits)

    @property
    def count(self) -> int:
        return self.bits.bit_count()

    def has(self, idx: int) -> bool:
        return bool((self.bits >> idx) & 1)

    def open_ids(self) -> list[int]:
        return gfq.bit_ids(self.bits)

    def union(self, other: "PercSubcomplex") -> "PercSubcomplex":
        self._check_compatible(other)
        return PercSubcomplex(self.complex, self.dim, self.bits | other.bits)

    def intersection(self, other: "PercSubcomplex") -> "PercSubcomplex":
        self._check_compatible(other)
        return PercSubcomplex(self.complex, self.dim, self.bits & other.bits)

    def _check_compatible(self, other: "PercSubcomplex") -> None:
        if other.complex is not self.complex or other.dim != self.dim:
            raise DimensionMismatch("subcomplexes live on different cell sets")


def dual_subcomplex(P: PercSubcomplex) -> PercSubcomplex:
    """Bullet dual: open duals of the closed j-cells, dimension d - j."""
    X = P.complex
    if X.kind != "torus":
        raise NotATorus("subcomplex duals are defined on tori only")
    j = P.dim
    bits = 0
    for idx in gfq.bit_ids(((1 << X.num_cells(j)) - 1) & ~P.bits):
        bits |= 1 << X.cell_id(X.bullet_dual(X.cell_at(j, idx)))
    return PercSubcomplex(X, X.d - j, bits)


# ---------------------------------------------------------------------------
# Sparse chains / cochains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chain:
    """Sparse GF(q) vector indexed by cell ids of one dimension."""

    dim: int
    q: int
    coeffs: tuple[tuple[int, int], ...]

    @classmethod
    def build(cls, dim: int, q: int, entries: dict[int, int] | Iterable[tuple[int, int]]) -> "Chain":
        acc: dict[int, int] = {}
        items = entries.items() if isinstance(entries, dict) else entries
        for idx, c in items:
            acc[idx] = (acc.get(idx, 0) + c) % q
        cleaned = tuple(sorted((i, c) for i, c in acc.items() if c))
        return cls(dim=dim, q=q, coeffs=cleaned)

    @classmethod
    def zero(cls, dim: int, q: int) -> "Chain":
        return cls(dim, q, ())

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.coeffs)

    def __add__(self, other: "Chain") -> "Chain":
        if other.dim != self.dim or other.q != self.q:
            raise DimensionMismatch("chain dimensions or moduli differ")
        return Chain.build(self.dim, self.q, list(self.coeffs) + list(other.coeffs))

    def __neg__(self) -> "Chain":
        return Chain.build(self.dim, self.q, [(i, -c) for i, c in self.coeffs])

    def vector(self, n: int) -> np.ndarray:
        v = np.zeros(n, dtype=np.int64)
        for i, c in self.coeffs:
            v[i] = c
        return v

    def evaluate(self, f) -> int:
        """Pairing sum_cells coeff * f[cell] mod q, for a dense cochain f."""
        return int(sum(c * int(f[i]) for i, c in self.coeffs) % self.q)


def boundary_chain(X, cell: Cell, q: int) -> Chain:
    """The boundary of a single cell as a (dim-1)-chain."""
    entries = [(X.cell_id(face), sign) for face, sign in X.boundary_of(cell)]
    return Chain.build(cell.dim - 1, q, entries)


# ---------------------------------------------------------------------------
# Explicit complexes (hand-coded incidence lists) for non-cubical fixtures
# ---------------------------------------------------------------------------

class ExplicitComplex(CellComplex):
    """A finite cell complex given by named cells and signed boundaries.
    Names are unique across dimensions, as the boundary table needs."""

    def __init__(self, cell_names: Sequence[Sequence[str]],
                 boundary: dict[str, Sequence[tuple[str, int]]]):
        self.kind = "explicit"
        self.d = len(cell_names) - 1
        self._boundary = dict(boundary)
        self._cells = [list(level) for level in cell_names]
        self._index = [{c: k for k, c in enumerate(level)} for level in self._cells]
        super().__init__()

    def num_cells(self, j: int) -> int:
        return len(self._cells[j]) if 0 <= j <= self.d else 0

    def cells(self, j: int) -> list[str]:
        return self._cells[j]

    def cell_id(self, name: str) -> int:
        for index in self._index:
            if name in index:
                return index[name]
        raise KeyError(name)

    def name_id(self, j: int, name: str) -> int:
        return self._index[j][name]

    def boundary_of(self, name: str) -> Sequence[tuple[str, int]]:
        return self._boundary.get(name, ())


def graph_complex(n_vertices: int, edges: Sequence[tuple[int, int]]) -> ExplicitComplex:
    """1-dimensional complex of a graph; edge (u, v) has boundary v - u."""
    vnames = [f"v{i}" for i in range(n_vertices)]
    enames = [f"e{k}" for k in range(len(edges))]
    boundary = {}
    for k, (u, v) in enumerate(edges):
        if not (0 <= u < n_vertices and 0 <= v < n_vertices) or u == v:
            raise InvalidDimension(f"bad edge ({u}, {v})")
        boundary[f"e{k}"] = [(f"v{v}", 1), (f"v{u}", -1)]
    return ExplicitComplex([vnames, enames], boundary)


def two_squares_complex() -> ExplicitComplex:
    """Two squares sharing an edge, only the left one filled.

    Six vertices v1..v6, seven oriented edges e1..e7 and one face f1 with
    boundary e1+e2+e3+e4.  Ids follow the listed order (e1 -> 0, ...).
    """
    vertices = ["v1", "v2", "v3", "v4", "v5", "v6"]
    edges = ["e1", "e2", "e3", "e4", "e5", "e6", "e7"]
    faces = ["f1"]
    boundary = {
        "e1": [("v2", 1), ("v1", -1)],
        "e2": [("v1", 1), ("v4", -1)],
        "e3": [("v4", 1), ("v3", -1)],
        "e4": [("v3", 1), ("v2", -1)],
        "e5": [("v4", 1), ("v5", -1)],
        "e6": [("v5", 1), ("v6", -1)],
        "e7": [("v6", 1), ("v3", -1)],
        "f1": [("e1", 1), ("e2", 1), ("e3", 1), ("e4", 1)],
    }
    return ExplicitComplex([vertices, edges, faces], boundary)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def complex_to_json(X) -> dict:
    if X.kind == "box":
        return {"kind": "box", "d": X.d, "widths": list(X.widths)}
    if X.kind == "torus":
        return {"kind": "torus", "d": X.d, "period": X.period}
    raise InvalidDimension(f"cannot serialize complex kind {X.kind!r}")
