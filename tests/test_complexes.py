"""Cell complexes: counts, boundary structure, duals, serialization."""
import math

import numpy as np
import pytest

from cpp_lab import homology, measures
from cpp_lab.complexes import (Cell, Chain, PercSubcomplex, boundary_chain,
                               build_box, build_torus, complex_to_json,
                               dual_subcomplex, two_squares_complex)
from cpp_lab.errors import InvalidDimension, NotATorus
from dense_reference import boundary_matrix
from helpers import (chain_boundary, complex_from_json, is_subset, subcomplex_from_json,
                     subcomplex_to_json)
from test_homology import triangle_and_square_complex


def coboundary(X, j):
    """The full integer coboundary C^j -> C^(j+1), rows (j+1)-cells."""
    return X.coboundary_matrix(j, range(X.num_cells(j + 1)), range(X.num_cells(j)))


def box_cell_count(widths, dirs):
    n = 1
    for k, w in enumerate(widths):
        n *= w if k in dirs else w + 1
    return n


def test_box_counts_match_combinatorial_oracle():
    import itertools
    for widths in ([2, 2], [1, 1], [3, 2], [2, 1, 2]):
        d = len(widths)
        X = build_box(d, widths)
        for j in range(d + 1):
            expected = sum(box_cell_count(widths, dirs)
                           for dirs in itertools.combinations(range(d), j))
            assert X.num_cells(j) == expected


def test_box_worked_counts():
    assert build_box(2, [2, 2]).cell_counts() == (9, 12, 4)
    assert build_box(1, [1]).cell_counts() == (2, 1)
    assert build_box(3, [1, 1, 1]).cell_counts() == (8, 12, 6, 1)


def test_torus_counts():
    assert build_torus(2, 2).cell_counts() == (4, 8, 4)
    assert build_torus(3, 2).cell_counts() == (8, 24, 24, 8)
    assert build_torus(1, 3).cell_counts() == (3, 3)
    for d, n in ((2, 3), (3, 2)):
        X = build_torus(d, n)
        for j in range(d + 1):
            assert X.num_cells(j) == n ** d * math.comb(d, j)


def test_torus_euler_characteristic_vanishes():
    X = build_torus(2, 2)
    assert sum((-1) ** j * c for j, c in enumerate(X.cell_counts())) == 0


def test_invalid_dimensions():
    with pytest.raises(InvalidDimension):
        build_box(0, [])
    with pytest.raises(InvalidDimension):
        build_box(2, [2, 0])
    with pytest.raises(InvalidDimension):
        build_torus(2, 0)


def test_edge_boundary_is_head_minus_tail():
    X = build_box(2, [2, 2])
    edge = Cell(base=(0, 0), dirs=(0,))
    faces = dict(X.boundary_of(edge))
    assert faces[Cell((1, 0), ())] == 1
    assert faces[Cell((0, 0), ())] == -1


def test_square_boundary_closes():
    X = build_box(2, [2, 2])
    square = Cell(base=(0, 0), dirs=(0, 1))
    gamma = boundary_chain(X, square, 5)
    assert len(gamma.coeffs) == 4
    assert set(c for _, c in gamma.coeffs) == {1, 4}  # +-1 mod 5
    assert chain_boundary(X, gamma).coeffs == ()


@pytest.mark.parametrize("X", [build_box(2, [2, 2]), build_box(3, [1, 2, 1]),
                               build_torus(2, 2), build_torus(3, 2),
                               build_torus(2, 1)])
def test_boundary_squared_zero_and_face_closure(X):
    for j in range(1, X.d + 1):
        if j >= 2:
            prod = coboundary(X, j - 2).T @ coboundary(X, j - 1).T
            assert not prod.any()
        for cell in X.cells(j):
            for face, sign in X.boundary_of(cell):
                assert abs(sign) == 1
                X.cell_id(face)  # raises KeyError if not face-closed


@pytest.mark.parametrize("X", [build_box(3, [2, 2, 2]), build_torus(2, 1),
                               build_torus(2, 2), triangle_and_square_complex()])
def test_boundary_matrix_matches_per_cell_accumulation(X):
    for j in range(1, X.d + 1):
        assert np.array_equal(coboundary(X, j - 1).T, boundary_matrix(X, j))


def test_equal_complexes_share_no_cached_object():
    X, Y = build_box(2, [2, 2]), build_box(2, [2, 2])
    for Z in (X, Y):
        coboundary(Z, 1)
        homology.cocycle_system(Z, 1, 2, 0b1011, 0b101).dim
    assert X.cache is not Y.cache
    assert X.cache.keys() == Y.cache.keys()
    for key in X.cache:
        assert X.cache[key] is not Y.cache[key]
    assert not np.shares_memory(X.incidence(2)[0], Y.incidence(2)[0])


def test_exact_tables_live_in_the_single_cache():
    X = build_box(2, [1, 1])
    params = measures.ModelParams(q=2, i=1, k2=1, k1=1)
    gamma = boundary_chain(X, X.cells(2)[0], 2)
    measures.exact_wilson(params, X, gamma)
    assert [name for name in vars(X) if name.endswith("_cache")] == []
    assert ("pair_betti", 1, 2) in X.cache
    assert any(key[0] == "vgamma" for key in X.cache)
    # the class counts are small dicts of Python ints, and the two state
    # tables stay the only per-state arrays
    for key in (("pair_counts", 1, 2), ("vgamma_counts", 1, 2, gamma.coeffs)):
        assert all(type(n) is int for n in X.cache[key].values())
    # the spin side: one {(z1, z2): count} dict per residue, and no table of
    # the q^n1 cochains
    spin_counts = X.cache[("spin_counts", 1, 2, gamma.coeffs)]
    assert len(spin_counts) == 2
    assert all(type(n) is int for row in spin_counts for n in row.values())
    assert sum(n for row in spin_counts for n in row.values()) == 2 ** X.num_cells(1)
    states = 1 << (X.num_cells(1) + X.num_cells(2))
    arrays = [(key, v.shape) for key, value in X.cache.items()
              for v in (value if isinstance(value, (tuple, list)) else (value,))
              if isinstance(v, np.ndarray)]
    assert not [key for key, shape in arrays if shape[:1] == (2 ** X.num_cells(1),)]
    per_state = [key for key, shape in arrays if shape == (states,)]
    assert sorted(per_state, key=str) == [("pair_betti", 1, 2), ("vgamma", 1, 2, gamma.coeffs)]


def test_cell_id_round_trip():
    for X in (build_box(2, [2, 2]), build_torus(3, 2)):
        for j in range(X.d + 1):
            for idx, cell in enumerate(X.cells(j)):
                assert X.cell_id(cell) == idx
                assert X.cell_at(j, idx) == cell


def reference_cells(X, j):
    """The j-cells in the documented id order: lexicographic on (dirs, base)."""
    import itertools
    out = []
    for dirs in itertools.combinations(range(X.d), j):
        if X.kind == "torus":
            ranges = [range(X.period)] * X.d
        else:
            ranges = [range(w if k in dirs else w + 1) for k, w in enumerate(X.widths)]
        out += [Cell(base, dirs) for base in itertools.product(*ranges)]
    return out


@pytest.mark.parametrize("X", [build_box(2, [2, 3]), build_box(3, [2, 1, 2]),
                               build_torus(2, 1), build_torus(3, 2), build_torus(2, 3),
                               build_torus(3, 3), build_box(1, [3]), build_torus(4, 2)])
def test_cells_share_base_tuples_and_keep_ids_and_incidence(X):
    corners = {cell.base: cell.base for cell in X.cells(0)}
    for j in range(X.d + 1):
        cells = reference_cells(X, j)
        assert X.cells(j) == cells
        for idx, cell in enumerate(cells):
            assert X.cell_id(cell) == idx
            assert X.cell_at(j, idx) == cell
            # one base tuple per corner, shared by the cells of every dimension
            assert X.cell_at(j, idx).base is corners[cell.base]
        if j:
            faces, signs = X.incidence(j)
            for idx, cell in enumerate(cells):
                bdry = [(X.cell_id(face), sign) for face, sign in X.boundary_of(cell)]
                assert list(zip(faces[idx].tolist(), signs[idx].tolist())) == bdry


def test_bullet_dual_dimensions_and_directions():
    X = build_torus(3, 2)
    vertex = Cell((0, 0, 0), ())
    assert X.bullet_dual(vertex).dim == 3
    x_edge = Cell((0, 0, 0), (0,))
    assert X.bullet_dual(x_edge).dirs == (1, 2)


def test_bullet_dual_double_is_unit_translation():
    for N in (2, 3):
        X = build_torus(3, N)
        for cell in X.cells(1) + X.cells(2):
            twice = X.bullet_dual(X.bullet_dual(cell))
            assert X.translate(twice, (1, 1, 1)) == X.normalize(cell)


def test_bullet_dual_reverses_incidence():
    X = build_torus(3, 2)
    for cell in X.cells(2)[:6]:
        dual = X.bullet_dual(cell)
        for face, _ in X.boundary_of(cell):
            dual_face = X.bullet_dual(face)
            cofaces = {X.normalize(c) for c, _ in X.boundary_of(dual_face)}
            assert dual in cofaces


def test_bullet_dual_requires_torus():
    X = build_box(2, [2, 2])
    with pytest.raises(NotATorus):
        X.bullet_dual(Cell((0, 0), ()))
    P = PercSubcomplex.empty(X, 1)
    with pytest.raises(NotATorus):
        dual_subcomplex(P)


def test_dual_subcomplex_complement_counts():
    X = build_torus(2, 2)
    assert dual_subcomplex(PercSubcomplex.full(X, 1)).count == 0
    assert dual_subcomplex(PercSubcomplex.empty(X, 1)).count == 8
    P = PercSubcomplex.from_ids(X, 1, [0, 3, 5])
    D = dual_subcomplex(P)
    assert D.count == 5 and D.dim == 1
    assert P.count + D.count == X.num_cells(1)


def test_dual_subcomplex_reverses_inclusion():
    X = build_torus(2, 2)
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = int(rng.integers(0, 1 << 8))
        P = PercSubcomplex(X, 1, a & int(rng.integers(0, 1 << 8)))
        Q = PercSubcomplex(X, 1, a)
        assert is_subset(P, Q)
        assert is_subset(dual_subcomplex(Q), dual_subcomplex(P))


def test_two_squares_complex_matches_worked_example():
    fx = two_squares_complex()
    assert fx.cell_counts() == (6, 7, 1)
    stated_d1 = np.array([
        [-1, 1, 0, 0, 0, 0, 0],
        [1, 0, 0, -1, 0, 0, 0],
        [0, 0, -1, 1, 0, 0, -1],
        [0, -1, 1, 0, 1, 0, 0],
        [0, 0, 0, 0, -1, 1, 0],
        [0, 0, 0, 0, 0, -1, 1],
    ])
    assert np.array_equal(coboundary(fx, 0).T, stated_d1)
    assert np.array_equal(coboundary(fx, 1).T.ravel(),
                          [1, 1, 1, 1, 0, 0, 0])
    assert not (coboundary(fx, 0).T @ coboundary(fx, 1).T).any()


def test_chain_arithmetic():
    g1 = Chain.build(1, 3, {0: 1, 2: 2})
    g2 = Chain.build(1, 3, {0: 2, 1: 1})
    s = g1 + g2
    assert s.as_dict() == {1: 1, 2: 2}
    assert (-g1).as_dict() == {0: 2, 2: 1}
    assert g1.support == (0, 2)
    assert g1.evaluate([1, 5, 1]) == (1 * 1 + 2 * 1) % 3


def test_json_round_trips():
    for X in (build_box(2, [2, 3]), build_torus(3, 2)):
        Y = complex_from_json(complex_to_json(X))
        assert Y.cell_counts() == X.cell_counts()
        assert Y.kind == X.kind
    X = build_torus(2, 2)
    P = PercSubcomplex.from_ids(X, 1, [1, 4])
    data = subcomplex_to_json(P)
    Q = subcomplex_from_json(data)
    assert Q.dim == P.dim and Q.open_ids() == P.open_ids()
