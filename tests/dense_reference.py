"""Dense references the tests check the package against.

Each is built from the definitions alone (a complex's `boundary_of` and
`gfq.rref`), not from the sparse incidence, bitset or restricted
coboundary code it checks.
"""
import numpy as np

from cpp_lab import gfq


def boundary_matrix(X, j: int) -> np.ndarray:
    """Integer boundary matrix of the j-cells, accumulated cell by cell:
    rows are (j-1)-cells, columns j-cells, and coincident faces (period-1
    tori) have their signs summed."""
    mat = np.zeros((X.num_cells(j - 1), X.num_cells(j)), dtype=np.int64)
    for col, cell in enumerate(X._cells[j]):
        for face, sign in X.boundary_of(cell):
            mat[X._index[j - 1][face], col] += sign
    return mat


def kernel_basis(mat, q: int) -> np.ndarray:
    """Basis of {v : mat @ v = 0 mod q}, shape (cols - rank, cols)."""
    red = gfq.rref(mat, q)
    cols = red.matrix.shape[1]
    pivset = set(red.pivot_cols)
    free = [c for c in range(cols) if c not in pivset]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, pc in enumerate(red.pivot_cols):
            basis[k, pc] = (-int(red.matrix[r, fc])) % q
    return basis


def cocycle_matrix(pair, q: int) -> np.ndarray:
    """Constraint matrix whose kernel is Z^i(P2, P1): one identity row per
    open i-cell of P1, one coboundary row per open (i+1)-cell of P2."""
    X = pair.complex
    i = pair.i
    n_i = X.num_cells(i)
    rows = []
    for e in pair.P1.open_ids():
        r = np.zeros(n_i, dtype=np.int64)
        r[e] = 1
        rows.append(r)
    if X.num_cells(i + 1):
        delta = boundary_matrix(X, i + 1).T % q  # rows: (i+1)-cells, cols: i-cells
        for s in pair.P2.open_ids():
            rows.append(delta[s])
    if not rows:
        return np.zeros((0, n_i), dtype=np.int64)
    return np.vstack(rows)


def cocycle_basis(pair, q: int) -> np.ndarray:
    """Basis of the compatible cochains Z^i(P2, P1) over GF(q), one per row."""
    return kernel_basis(cocycle_matrix(pair, q), q)


def cocycle_sample(pair, q: int, rng) -> np.ndarray:
    """The dense spin draw over GF(q) on the RREF of the coboundary block
    (open (i+1)-cells by closed i-cells): free closed i-cells get i.i.d.
    uniform values in increasing id order, one draw and none when there
    are no free cells, and the pivots follow from them."""
    X, i = pair.complex, pair.i
    n_i = X.num_cells(i)
    closed = np.array(sorted(set(range(n_i)) - set(pair.P1.open_ids())), dtype=np.int64)
    red = gfq.rref(boundary_matrix(X, i + 1).T[np.ix_(pair.P2.open_ids(), closed)], q)
    f = np.zeros(n_i, dtype=np.int64)
    dim = len(closed) - red.rank
    if dim:
        pivot_cols = list(red.pivot_cols)
        free = np.setdiff1d(np.arange(len(closed)), pivot_cols)
        coeffs = rng.integers(0, q, size=dim)
        f[closed[free]] = coeffs
        f[closed[pivot_cols]] = -(red.matrix[:red.rank][:, free] @ coeffs) % q
    return f
