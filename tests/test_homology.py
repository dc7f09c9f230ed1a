"""Cocycle spaces, Betti numbers, V_gamma, Euler characteristic, min area."""
import copy
import functools
import itertools
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpp_lab import gfq, homology
from cpp_lab.complexes import (Cell, CellComplex, Chain, ExplicitComplex, PercSubcomplex,
                               boundary_chain, build_box, build_torus,
                               dual_subcomplex, two_squares_complex)
from cpp_lab.homology import (RelPair, _face_masks, betti, cocycle_system, euler_characteristic,
                              min_area, rel_betti, subcomplex_cohomology_rank, v_gamma)
from cpp_lab.errors import BudgetExceeded, DimensionMismatch, DoesNotFit, TooLarge
from cpp_lab.measures import delta_cochain
from cpp_lab.observables import rect_loop
from dense_reference import boundary_matrix, cocycle_basis, cocycle_matrix, cocycle_sample
from helpers import chain_boundary, peel_reference, vertex_components, with_cell


def random_pair(X, i, rnd):
    n2 = X.num_cells(i + 1)
    n1 = X.num_cells(i)
    return RelPair(PercSubcomplex(X, i + 1, rnd.getrandbits(n2)),
                   PercSubcomplex(X, i, rnd.getrandbits(n1)))


def test_fully_constrained_pair_has_no_cocycles():
    for X in (build_box(2, [2, 2]), build_torus(2, 2)):
        pair = RelPair(PercSubcomplex.full(X, 2), PercSubcomplex.full(X, 1))
        assert len(cocycle_basis(pair, 3)) == 0


def test_worked_example_cocycle_dimensions():
    fx = two_squares_complex()
    q = 3
    # P2 = {f1}, P1 empty: the compatible cochains are Z^1 of the complex
    pair = RelPair(PercSubcomplex.full(fx, 2), PercSubcomplex.empty(fx, 1))
    basis = cocycle_basis(pair, q)
    assert len(basis) == 6
    for vec in basis:
        assert not ((boundary_matrix(fx, 2).T @ vec) % q).any()
    # A = everything except e5, e6, e7: three free edge values remain
    keep_closed = [fx.name_id(1, n) for n in ("e5", "e6", "e7")]
    open_edges = [e for e in range(7) if e not in keep_closed]
    pair = RelPair(PercSubcomplex.full(fx, 2),
                   PercSubcomplex.from_ids(fx, 1, open_edges))
    assert len(cocycle_basis(pair, q)) == 3


def test_worked_example_absolute_betti():
    fx = two_squares_complex()
    for q in (2, 3, 5):
        assert betti(fx, 0, q) == 1
        assert betti(fx, 1, q) == 1
        assert betti(fx, 2, q) == 0


def test_relative_betti_vanishes_below_i():
    rnd = random.Random(3)
    X = build_torus(2, 2)
    for _ in range(10):
        pair = random_pair(X, 1, rnd)
        assert rel_betti(pair, 0, 2) == 0
        assert rel_betti(pair, 0, 3) == 0


def test_torus_absolute_betti_numbers():
    X = build_torus(2, 2)
    for q in (2, 3):
        assert [betti(X, j, q) for j in range(3)] == [1, 2, 1]
    # the same numbers through a full percolation subcomplex
    assert betti(PercSubcomplex.full(X, 2), 1, 2) == 2


def test_cocycle_count_matches_rel_betti():
    rnd = random.Random(5)
    for X in (build_box(2, [2, 2]), build_torus(2, 2)):
        for _ in range(15):
            pair = random_pair(X, 1, rnd)
            for q in (2, 3):
                assert len(cocycle_basis(pair, q)) == rel_betti(pair, 1, q)


def count_compatible_by_brute_force(X, i, q, pair):
    """Independent oracle: enumerate all q^n_i cochains and count the
    compatible ones directly from the definitions."""
    import itertools

    import numpy as np
    n_i = X.num_cells(i)
    delta = boundary_matrix(X, i + 1).T % q if i + 1 <= X.d else None
    count = 0
    for f in itertools.product(range(q), repeat=n_i):
        fv = np.array(f, dtype=np.int64)
        if any(fv[e] for e in pair.P1.open_ids()):
            continue
        if delta is not None and any(
                (delta[s] @ fv) % q for s in pair.P2.open_ids()):
            continue
        count += 1
    return count


@pytest.mark.parametrize("X,i", [
    (build_box(2, [1, 1]), 1),
    (build_torus(2, 1), 1),   # self-glued cells, summed incidence
    (build_torus(1, 3), 0),
])
def test_rel_betti_against_brute_force_cochain_count(X, i):
    rnd = random.Random(37)
    for q in (2, 3):
        for _ in range(8):
            pair = random_pair(X, i, rnd)
            expected = count_compatible_by_brute_force(X, i, q, pair)
            assert q ** rel_betti(pair, i, q) == expected


def test_gf2_and_generic_betti_paths_agree():
    # cocycle_system dispatches on q; check the q=2 bit path against the
    # generic elimination run at q=2 on the dense constraint matrix
    rnd = random.Random(41)
    for X in (build_box(2, [2, 2]), build_torus(2, 2), build_torus(2, 1)):
        for _ in range(20):
            pair = random_pair(X, 1, rnd)
            generic = X.num_cells(1) - gfq.rref(cocycle_matrix(pair, 2), 2).rank
            assert rel_betti(pair, 1, 2) == generic


def triangle_and_square_complex() -> ExplicitComplex:
    """A triangle and a square sharing edge e1; the triangle's incidence row
    is padded with a zero-sign entry pointing at e0, one of its own faces."""
    boundary = {
        "e0": [("b", 1), ("a", -1)], "e1": [("c", 1), ("b", -1)],
        "e2": [("a", 1), ("c", -1)], "e3": [("d", 1), ("c", -1)],
        "e4": [("e", 1), ("d", -1)], "e5": [("b", 1), ("e", -1)],
        "t": [("e0", 1), ("e1", 1), ("e2", 1)],
        "s": [("e1", 1), ("e3", 1), ("e4", 1), ("e5", 1)],
    }
    return ExplicitComplex([list("abcde"), [f"e{k}" for k in range(6)], ["t", "s"]],
                           boundary)


RAGGED = triangle_and_square_complex()
SYSTEM_COMPLEXES = (build_box(2, [2, 2]), build_torus(2, 1), build_torus(2, 2),
                    build_torus(2, 3), build_box(3, [2, 2, 2]), RAGGED)


@st.composite
def pair_cases(draw, complexes=SYSTEM_COMPLEXES):
    X = draw(st.sampled_from(complexes))
    i = draw(st.sampled_from([0, 1]))
    q = draw(st.sampled_from([2, 3, 5]))
    n_i = X.num_cells(i)
    bits2 = draw(st.integers(0, (1 << X.num_cells(i + 1)) - 1))
    bits1 = draw(st.integers(0, (1 << n_i) - 1))
    coeffs = draw(st.dictionaries(st.integers(0, n_i - 1), st.integers(1, q - 1),
                                  max_size=4))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return X, i, q, bits2, bits1, Chain.build(i, q, coeffs), seed


# larger complexes, drawn with most (i+1)-cells open: boundary(boundary) = 0
# then makes many rows dependent, across periodic and multi-cube complexes
DENSE_COMPLEXES = (build_torus(3, 2), build_torus(3, 3), build_box(3, [3, 3, 2]))


@st.composite
def dense_pair_cases(draw):
    X, i, q, _, bits1, gamma, seed = draw(pair_cases(DENSE_COMPLEXES))
    full = (1 << X.num_cells(i + 1)) - 1
    closed = draw(st.integers(0, full))
    for _ in range(draw(st.integers(0, 3))):
        closed &= draw(st.integers(0, full))
    return X, i, q, full & ~closed, bits1, gamma, seed


@settings(max_examples=300, deadline=None)
@given(st.one_of(pair_cases(), dense_pair_cases()))
@example((RAGGED, 1, 2, 0b01, 0, Chain.zero(1, 2), 0))
# every cell open
@example((SYSTEM_COMPLEXES[4], 1, 2, (1 << 36) - 1, 0, Chain.zero(1, 2), 0))
@example((SYSTEM_COMPLEXES[3], 0, 5, (1 << 18) - 1, 0b1, Chain.build(0, 5, {3: 1}), 7))
@example((SYSTEM_COMPLEXES[4], 0, 3, (1 << 54) - 1, 0b1001, Chain.build(0, 3, {5: 2}), 3))
def test_cocycle_system_agrees_with_dense_reference(case):
    X, i, q, bits2, bits1, gamma, seed = case
    pair = RelPair(PercSubcomplex(X, i + 1, bits2), PercSubcomplex(X, i, bits1))
    X.cache.pop("cocycle_system", None)  # build the system, not a kept one
    system = cocycle_system(X, i, q, bits2, bits1)
    basis = cocycle_basis(pair, q)
    assert system.dim == len(basis)

    red = gfq.rref(cocycle_matrix(pair, q), q)
    n_i = X.num_cells(i)
    # the pivot set is the row space's, whatever order the rows came in:
    # with the open P1 cells it is the dense RREF's
    if q in (2, 3):
        lead = {n_i - 1 - k for k in system.pivots}
    else:
        lead = set(system.closed[list(system.red.pivot_cols)].tolist())
    assert lead | set(pair.P1.open_ids()) == set(red.pivot_cols)
    gammas = [gamma]
    bmat = boundary_matrix(X, i + 1) % q
    # the bitsets double as random row (i+1-cell) and column (i-cell) subsets
    rows, cols = gfq.bit_ids(bits2), gfq.bit_ids(bits1)
    assert np.array_equal(X.coboundary_matrix(i, rows, cols) % q,
                          bmat.T[np.ix_(rows, cols)])
    gammas += [Chain.build(i, q, enumerate(bmat[:, s])) for s in pair.P2.open_ids()[:2]]
    for g in gammas:
        dense = not gfq.reduce_vector(red, g.vector(n_i), q).any()
        assert system.contains(g) == dense
    for g in gammas[1:]:
        assert system.contains(g)

    rng = np.random.default_rng(seed)
    clone = copy.deepcopy(rng)
    f = system.sample(rng)
    assert f.shape == (n_i,)
    assert not f[pair.P1.open_ids()].any()
    assert not delta_cochain(f, X, i, q)[pair.P2.open_ids()].any()
    # the stream contract: uniform coefficients on the dense kernel basis
    expected = np.zeros(n_i, dtype=np.int64)
    if len(basis):
        expected = clone.integers(0, q, size=len(basis)) @ basis % q
    assert np.array_equal(f, expected)
    assert rng.bit_generator.state == clone.bit_generator.state


GF3_COMPLEXES = (build_box(2, [2, 2]), build_box(2, [3, 2]), build_box(3, [2, 2, 1]),
                 build_torus(2, 1), build_torus(2, 2), build_torus(3, 1), build_torus(3, 2))


@st.composite
def gf3_cases(draw):
    X = draw(st.sampled_from(GF3_COMPLEXES))
    i = draw(st.sampled_from([0, 1]))
    n_i = X.num_cells(i)
    bits2 = draw(st.integers(0, (1 << X.num_cells(i + 1)) - 1))
    bits1 = draw(st.integers(0, (1 << n_i) - 1))
    cells = st.integers(0, n_i - 1)
    gammas = [Chain.build(i, 3, draw(st.dictionaries(cells, st.integers(1, 2), max_size=5)))]
    # a combination of the system's rows, plus anything on open P1 cells,
    # lies in its row space
    bmat = boundary_matrix(X, i + 1)
    combo = draw(st.dictionaries(st.sampled_from(gfq.bit_ids(bits2)),
                                 st.integers(1, 2), max_size=4)) if bits2 else {}
    noise = draw(st.dictionaries(st.sampled_from(gfq.bit_ids(bits1)),
                                 st.integers(1, 2), max_size=3)) if bits1 else {}
    entries = [(e, c * int(bmat[e, s])) for s, c in combo.items() for e in range(n_i)]
    gammas.append(Chain.build(i, 3, entries + list(noise.items())))
    return X, i, bits2, bits1, gammas, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=300, deadline=None)
@given(gf3_cases())
def test_gf3_cocycle_system_matches_the_dense_solver(case):
    X, i, bits2, bits1, gammas, seed = case
    pair = RelPair(PercSubcomplex(X, i + 1, bits2), PercSubcomplex(X, i, bits1))
    X.cache.pop("cocycle_system", None)
    system = cocycle_system(X, i, 3, bits2, bits1)
    n_i = X.num_cells(i)
    closed = sorted(set(range(n_i)) - set(pair.P1.open_ids()))
    red = gfq.rref(boundary_matrix(X, i + 1).T[np.ix_(pair.P2.open_ids(), closed)], 3)
    assert system.dim == len(closed) - red.rank
    assert {n_i - 1 - k for k in system.pivots} == {closed[c] for c in red.pivot_cols}
    for g in gammas:
        dense = not gfq.reduce_vector(red, g.vector(n_i)[closed], 3).any()
        assert system.contains(g) == dense
    assert system.contains(gammas[1])
    rng, clone = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(system.sample(rng), cocycle_sample(pair, 3, clone))
    assert rng.bit_generator.state == clone.bit_generator.state


@pytest.mark.parametrize("X", [build_box(2, [3, 2]), build_box(3, [2, 3, 1]), build_torus(2, 1),
                               build_torus(2, 2), build_torus(3, 1), build_torus(3, 2),
                               build_torus(3, 3), build_torus(4, 1), two_squares_complex(), RAGGED])
def test_face_masks_sum_the_signs_of_each_face(X):
    for j in range(1, X.d + 1):
        faces, signs = X.incidence(j)
        top = X.num_cells(j - 1) - 1
        for q in (2, 3):
            expected = []
            for row, row_signs in zip(faces.tolist(), signs.tolist()):
                coeffs = {}
                for f, sign in zip(row, row_signs):
                    coeffs[f] = coeffs.get(f, 0) + sign
                planes = [sum(1 << (top - f) for f, c in coeffs.items() if c % q == v)
                          for v in range(1, q)]
                expected.append(planes[0] if q == 2 else tuple(planes))
            assert _face_masks(X, j, q) == expected


def test_cocycle_system_of_cells_whose_boundary_has_a_boundary():
    def complex_with(face_boundary):
        edges = {"e0": [("b", 1), ("a", -1)], "e1": [("c", 1), ("b", -1)],
                 "e2": [("a", 1), ("c", -1)]}
        return ExplicitComplex([list("abc"), ["e0", "e1", "e2"], ["f"]],
                               {**edges, "f": face_boundary})

    # the path e0 + e1 from a to c: boundary(boundary f) = c - a
    assert cocycle_system(complex_with([("e0", 1), ("e1", 1)]), 0, 2, 0b111, 0).dim == 1
    # the closed triangle: boundary(boundary f) = 0
    assert cocycle_system(complex_with([("e0", 1), ("e1", 1), ("e2", 1)]), 0, 2, 0b111, 0).dim == 1


def test_small_complexes_build_the_system_without_numpy(monkeypatch):
    # below 128 bits `gfq.bit_ids` walks the string, and the bitsliced rows
    # are python ints once the face masks are cached
    square, small, flat = build_box(2, [2, 2]), build_box(3, [2, 2, 2]), build_torus(3, 1)
    cases = [
        (square, 0b1011, 0b101),
        (flat, 0b111, 0),
        (small, (1 << 36) - 1, 0),  # every plaquette open
    ]
    expected = []
    for X, bits2, bits1 in cases:
        X.cache.pop("cocycle_system", None)
        expected.append(cocycle_system(X, 1, 2, bits2, bits1).dim)
    monkeypatch.setattr(homology, "np", None)
    monkeypatch.setattr(gfq, "np", None)
    for (X, bits2, bits1), dim in zip(cases, expected):
        X.cache.pop("cocycle_system", None)
        assert cocycle_system(X, 1, 2, bits2, bits1).dim == dim


# boxes and tori of period >= 2, the complexes the gauge path serves
GAUGE_COMPLEXES = (build_box(2, [2, 2]), build_box(2, [3, 2]), build_box(3, [2, 2, 1]),
                   build_box(3, [2, 2, 2]), build_torus(2, 2), build_torus(2, 3),
                   build_torus(3, 2), build_torus(3, 3))


def loop_chains(X, q: int) -> list[Chain]:
    """The n = 2 loop of `rect_loop` and its open half gamma', where they fit."""
    try:
        fam = rect_loop(2, X.d, X, q)
    except DoesNotFit:
        return []
    return [fam.gamma, fam.gamma_prime]


def skewed_bits(draw, n: int) -> int:
    """A random n-bit set, made sparser or denser by and-ing or or-ing in
    more of them, so that clusters, forests and peels of every size occur."""
    full = (1 << n) - 1
    bits = draw(st.integers(0, full))
    for _ in range(draw(st.integers(0, 2))):
        bits &= draw(st.integers(0, full))
    for _ in range(draw(st.integers(0, 2))):
        bits |= draw(st.integers(0, full))
    return bits


@st.composite
def gauge_cases(draw):
    X = draw(st.sampled_from(GAUGE_COMPLEXES))
    q = draw(st.sampled_from([2, 3]))
    n1 = X.num_cells(1)
    bits2, bits1 = skewed_bits(draw, X.num_cells(2)), skewed_bits(draw, n1)
    edges = st.integers(0, n1 - 1)
    gammas = loop_chains(X, q) + [
        Chain.build(1, q, draw(st.dictionaries(edges, st.integers(1, q - 1), max_size=5)))
        for _ in range(3)]
    bmat = boundary_matrix(X, 2)
    gammas += [Chain.build(1, q, enumerate(bmat[:, s])) for s in range(min(2, X.num_cells(2)))]
    return X, q, bits2, bits1, gammas, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=300, deadline=None)
@given(gauge_cases())
def test_gauge_path_agrees_with_the_elimination(case):
    X, q, bits2, bits1, gammas, seed = case
    X.cache.pop("cocycle_system", None)
    system = cocycle_system(X, 1, q, bits2, bits1)
    assert system.gauge is None  # these complexes are below the cut-off
    gauge = homology._gauge_system(X, q, bits2, bits1)
    assert gauge.dim == system.dim
    for g in gammas:
        assert gauge.contains(g) == system.contains(g)
    f = gauge.sample(np.random.default_rng(seed))
    assert f.shape == (X.num_cells(1),) and ((0 <= f) & (f < q)).all()
    assert not f[gfq.bit_ids(bits1)].any()
    assert not delta_cochain(f, X, 1, q)[gfq.bit_ids(bits2)].any()


def test_gauge_path_agrees_with_the_elimination_on_a_12_box(monkeypatch):
    X = build_box(3, [12, 12, 12])
    rng = np.random.default_rng(5)
    answers = []
    for q, (p2, p1) in itertools.product((2, 3), [(0.9, 0.1), (0.78, 0.05), (0.5, 0.9),
                                                  (0.7, 0.1)]):
        loops = [rect_loop(n, 3, X, q) for n in (2, 4, 6)]
        gammas = [g for fam in loops for g in (fam.gamma, fam.gamma_prime)]
        bits2 = gfq.vector_to_bits(rng.random(X.num_cells(2)) < p2)
        bits1 = gfq.vector_to_bits(rng.random(X.num_cells(1)) < p1)
        X.cache.pop("cocycle_system", None)
        gauge = cocycle_system(X, 1, q, bits2, bits1)
        assert gauge.gauge is not None
        monkeypatch.setattr(homology, "_GAUGE_MIN_EDGES", float("inf"))
        X.cache.pop("cocycle_system", None)
        system = cocycle_system(X, 1, q, bits2, bits1)
        monkeypatch.undo()
        assert gauge.dim == system.dim
        for g in gammas:
            answers.append(gauge.contains(g))
            assert answers[-1] == system.contains(g)
    assert set(answers) == {True, False}


def test_the_gauge_path_starts_at_the_cut_off_and_builds_no_face_masks():
    below, above = build_box(3, [9, 9, 9]), build_box(3, [10, 10, 10])
    assert below.num_cells(1) < homology._GAUGE_MIN_EDGES <= above.num_cells(1)
    for q in (2, 3):
        assert cocycle_system(below, 1, q, (1 << below.num_cells(2)) - 1, 0b110).gauge is None
        assert cocycle_system(above, 1, q, (1 << above.num_cells(2)) - 1, 0b110).gauge
    assert set(above.cache) == {("incidence", 1), ("incidence", 2), ("gauge_tables",),
                                "cocycle_system"}
    # i = 0 has no gauge; q >= 5 keeps the dense branch
    assert cocycle_system(above, 0, 2, 0b1011, 0b110).gauge is None
    assert cocycle_system(above, 1, 5, 0b1011, 0b110).gauge is None


def two_separate_squares() -> ExplicitComplex:
    """Two filled squares with no vertex in common."""
    boundary = {}
    for k in (0, 1):
        v = [f"v{4 * k + m}" for m in range(4)]
        e = [f"e{4 * k + m}" for m in range(4)]
        for m in range(4):
            boundary[e[m]] = [(v[(m + 1) % 4], 1), (v[m], -1)]
        boundary[f"f{k}"] = [(e[m], 1) for m in range(4)]
    return ExplicitComplex([[f"v{m}" for m in range(8)], [f"e{m}" for m in range(8)],
                            ["f0", "f1"]], boundary)


@pytest.mark.parametrize("X", [build_torus(2, 1), build_torus(3, 1), two_separate_squares(),
                               two_squares_complex(), RAGGED])
def test_complexes_that_do_not_fit_keep_the_elimination(X, monkeypatch):
    # the gauge path serves boxes and tori of period >= 2 only
    monkeypatch.setattr(homology, "_GAUGE_MIN_EDGES", 0)
    assert homology._gauge_system(X, 2, 0, 0) is None
    rnd = random.Random(13)
    for q in (2, 3):
        for _ in range(10):
            pair = random_pair(X, 1, rnd)
            X.cache.pop("cocycle_system", None)
            system = cocycle_system(X, 1, q, pair.P2.bits, pair.P1.bits)
            assert system.gauge is None
            assert system.dim == len(cocycle_basis(pair, q))


@functools.lru_cache(maxsize=None)
def cubical(kind: str, d: int, sides: tuple[int, ...]):
    return build_box(d, sides) if kind == "box" else build_torus(d, sides[0])


@pytest.mark.parametrize("X", [build_box(3, [3, 2, 4]), build_torus(2, 4), build_torus(3, 3),
                               build_torus(3, 2)])
def test_gauge_tables_rank_by_distance_and_step_toward_the_centre(X):
    """`rank` orders the vertices by L1 distance from vertex n_0 // 2,
    wrapped on a torus, ties by id; toward[r] joins the vertex of rank r to
    one a step nearer, along its lowest axis of largest offset."""
    tables = homology._gauge_tables(X)
    n0 = X.num_cells(0)
    coords = np.array([X.cell_at(0, v).base for v in range(n0)])
    offset = coords - coords[n0 // 2]
    if X.kind == "torus":
        offset = (offset + X.period // 2) % X.period - X.period // 2
    dist = np.abs(offset).sum(axis=1)
    order = sorted(range(n0), key=lambda v: (dist[v], v))
    assert tables.rank[order].tolist() == list(range(n0))
    for r, v in enumerate(order[1:], 1):
        edge = int(tables.toward[r])
        ends = {int(tables.tail[edge]), int(tables.head[edge])}
        assert v in ends
        assert dist[(ends - {v}).pop()] == dist[v] - 1
        assert X.cell_at(1, edge).dirs == (int(np.abs(offset[v]).argmax()),)


@st.composite
def cubical_pairs(draw):
    """A box or a torus of period >= 2 in d = 2, 3 or 4 (sides 1-5, 1-4 and
    1-2; periods 2-4, 2-4 and 2-3), q, and a skewed pair (`skewed_bits`)."""
    d = draw(st.sampled_from([2, 3, 4]))
    if draw(st.booleans()):
        X = cubical("torus", d, (draw(st.integers(2, 3 if d == 4 else 4)),))
    else:
        top = {2: 5, 3: 4, 4: 2}[d]
        X = cubical("box", d, tuple(draw(st.lists(st.integers(1, top), min_size=d,
                                                  max_size=d))))
    bits2, bits1 = skewed_bits(draw, X.num_cells(2)), skewed_bits(draw, X.num_cells(1))
    return X, draw(st.sampled_from([2, 3])), bits2, bits1


@settings(max_examples=200, deadline=None)
@given(cubical_pairs())
# period 2: two edges join the same two vertices
@example((cubical("torus", 2, (2,)), 2, 0b1011, 0b10010011))
@example((cubical("torus", 3, (2,)), 3, random.Random(7).getrandbits(24),
          random.Random(8).getrandbits(24)))
@example((cubical("torus", 4, (2,)), 2, random.Random(9).getrandbits(96),
          random.Random(10).getrandbits(64)))
# every edge open: one cluster, no tree
@example((cubical("box", 3, (2, 3, 2)), 3, 0, (1 << 75) - 1))
def test_gauge_tree_spans_the_clusters_and_the_peel_matches_the_numpy_reference(case):
    X, q, bits2, bits1 = case
    tables = homology._gauge_tables(X)
    cluster, tree, cells, rows = homology._gauge_fix(tables, bits2, bits1)
    n0, n1 = X.num_cells(0), X.num_cells(1)
    ends, _ = X.incidence(1)
    opened = gfq.bits_to_vector(bits1, n1).astype(bool)
    assert not opened[tree].any()
    clusters = vertex_components(n0, ends[opened].tolist())
    assert len(tree) == len(set(clusters)) - 1
    # `cluster` is the same partition, numbered from 0
    assert len(set(zip(clusters, cluster.tolist()))) == len(set(clusters)) == cluster.max() + 1
    spanning = opened.copy()
    spanning[tree] = True
    assert len(set(vertex_components(n0, ends[spanning].tolist()))) == 1
    ref_cells, ref_rows = peel_reference(X, bits2, bits1, tree)
    assert np.array_equal(cells, ref_cells)
    assert np.array_equal(rows, ref_rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_GAUGE_MIN_EDGES", 0)
        X.cache.pop("cocycle_system", None)
        system = cocycle_system(X, 1, q, bits2, bits1)
    assert np.array_equal(system.gauge.cells, cells)
    X.cache.pop("cocycle_system", None)
    assert system.dim == cocycle_system(X, 1, q, bits2, bits1).dim  # the elimination


def test_cocycle_system_keeps_one_system_per_complex():
    X = build_box(2, [2, 2])
    first = cocycle_system(X, 1, 2, 0b1011, 0b101)
    assert cocycle_system(X, 1, 2, 0b1011, 0b101) is first
    assert v_gamma(RelPair(PercSubcomplex(X, 2, 0b1011), PercSubcomplex(X, 1, 0b101)),
                   Chain.zero(1, 2), 2)
    assert X.cache["cocycle_system"][0] == (1, 2, 0b1011, 0b101)
    assert X.cache["cocycle_system"][1] is first
    for key in ((1, 3, 0b1011, 0b101), (1, 2, 0b1011, 0b100), (1, 2, 0b1010, 0b101),
                (0, 2, 0b101, 0b1)):
        newest = cocycle_system(X, *key)
        assert newest is not first
        assert X.cache["cocycle_system"][0] == key
        assert X.cache["cocycle_system"][1] is newest
        # the slot holds the newest system only: the test holds the last
        # reference to the one it replaced
        assert sys.getrefcount(first) == 2
        first = newest


@pytest.mark.parametrize("q,solver", [(2, "gf2_ref_bits"), (3, "gf3_ref_bits"), (5, "rref")])
def test_cocycle_system_releases_the_old_system_before_building(monkeypatch, q, solver):
    X = build_box(2, [2, 2])
    cocycle_system(X, 1, q, 0b11, 0)
    original = getattr(gfq, solver)
    seen = []

    def solve(*args, **kwargs):
        seen.append("cocycle_system" in X.cache)
        return original(*args, **kwargs)

    monkeypatch.setattr(gfq, solver, solve)
    cocycle_system(X, 1, q, 0b111, 0)
    assert seen == [False]
    assert X.cache["cocycle_system"][0] == (1, q, 0b111, 0)


def dense_cohomology_rank(X, rel: dict[int, list[int]], j: int, q: int) -> int:
    """rank H^j of the cochain complex on the cell ids rel[k] (a missing key
    means none): dim ker delta_j - rank delta_(j-1), each delta_k the slice
    of the dense boundary_matrix(X, k+1).T on rows rel[k+1], cols rel[k]."""
    def delta_rank(k):
        rows, cols = rel.get(k + 1, []), rel.get(k, [])
        if not rows or not cols:
            return 0
        return gfq.rref(boundary_matrix(X, k + 1).T[np.ix_(rows, cols)], q).rank

    return len(rel.get(j, [])) - delta_rank(j) - delta_rank(j - 1)


def pair_rel_ids(pair: RelPair) -> dict[int, list[int]]:
    """The relative cells of (P2, P1): closed i-cells, open (i+1)-cells."""
    closed = set(range(pair.complex.num_cells(pair.i))) - set(pair.P1.open_ids())
    return {pair.i: sorted(closed), pair.i + 1: pair.P2.open_ids()}


BETTI_COMPLEXES = (build_box(2, [2, 2]), build_box(3, [1, 2, 1]), build_torus(2, 1),
                   build_torus(2, 2), build_torus(3, 1), build_torus(3, 2),
                   two_squares_complex(), RAGGED)


@st.composite
def subcomplex_cases(draw):
    X = draw(st.sampled_from(BETTI_COMPLEXES))
    q = draw(st.sampled_from([2, 3, 5]))
    # per dimension: S as a set or None (all cells), A as a subset of S or
    # missing (no cells)
    s_cells, a_cells = {}, {}
    for k in range(X.d + 1):
        full = (1 << X.num_cells(k)) - 1
        s = draw(st.integers(0, full))
        s_cells[k] = None if s == full and draw(st.booleans()) else set(gfq.bit_ids(s))
        a = s & draw(st.integers(0, full))
        if a or draw(st.booleans()):
            a_cells[k] = set(gfq.bit_ids(a))
    top = draw(st.integers(0, X.d))
    perc = PercSubcomplex(X, top, draw(st.integers(0, (1 << X.num_cells(top)) - 1)))
    i = draw(st.integers(0, X.d - 1))
    pair = RelPair(PercSubcomplex(X, i + 1, draw(st.integers(0, (1 << X.num_cells(i + 1)) - 1))),
                   PercSubcomplex(X, i, draw(st.integers(0, (1 << X.num_cells(i)) - 1))))
    return X, q, s_cells, a_cells, perc, pair


@settings(max_examples=150, deadline=None)
@given(subcomplex_cases())
def test_betti_numbers_agree_with_dense_reference(case):
    X, q, s_cells, a_cells, perc, pair = case
    every = {k: list(range(X.num_cells(k))) for k in range(X.d + 1)}

    def ids(cells, k):
        if k not in cells:
            return set()
        return set(every[k]) if cells[k] is None else cells[k]

    rel = {k: sorted(ids(s_cells, k) - ids(a_cells, k)) for k in s_cells}
    perc_rel = {k: every[k] for k in range(perc.dim)}
    perc_rel[perc.dim] = perc.open_ids()
    pair_rel = pair_rel_ids(pair)
    for j in range(-1, X.d + 2):
        assert subcomplex_cohomology_rank(X, s_cells, a_cells, j, q) \
            == dense_cohomology_rank(X, rel, j, q)
        assert betti(X, j, q) == dense_cohomology_rank(X, every, j, q)
        assert betti(perc, j, q) == dense_cohomology_rank(X, perc_rel, j, q)
        assert rel_betti(pair, j, q) == dense_cohomology_rank(X, pair_rel, j, q)


def test_subcomplex_cell_ids_outside_the_complex_are_rejected():
    X = build_box(2, [2, 2])
    with pytest.raises(DimensionMismatch):
        subcomplex_cohomology_rank(X, {0: None, 1: {3, 12}}, {}, 1, 2)
    with pytest.raises(DimensionMismatch):
        subcomplex_cohomology_rank(X, {0: None, 1: None}, {1: {40}}, 0, 2)


def test_betti_numbers_of_large_complexes():
    assert [betti(build_box(3, [12] * 3), j, 2) for j in range(4)] == [1, 0, 0, 0]
    assert [betti(build_box(3, [8] * 3), j, 3) for j in range(4)] == [1, 0, 0, 0]
    torus = build_torus(3, 6)
    for q in (2, 3):
        assert [betti(torus, j, q) for j in range(4)] == [1, 3, 3, 1]


def test_dense_coboundary_block_is_guarded_by_its_size():
    # the q >= 5 path would scatter 13056 x 13872 int64 entries (1.4 GB)
    with pytest.raises(TooLarge, match="entries"):
        betti(build_box(3, [16] * 3), 1, 5)


def test_betti_numbers_at_q2_use_only_the_bitset_route(monkeypatch):
    rnd = random.Random(43)
    box, torus = build_box(2, [2, 2]), build_torus(2, 2)
    pairs = [random_pair(X, i, rnd) for X in (box, torus) for i in (0, 1) for _ in range(4)]
    expected = [[dense_cohomology_rank(p.complex, pair_rel_ids(p), j, 2) for j in range(3)]
                for p in pairs]

    def forbidden(*args, **kwargs):
        raise AssertionError("dense rank route called")

    monkeypatch.setattr(gfq, "rref", forbidden)
    monkeypatch.setattr(CellComplex, "coboundary_matrix", forbidden)
    assert [betti(box, j, 2) for j in range(3)] == [1, 0, 0]
    assert [betti(torus, j, 2) for j in range(3)] == [1, 2, 1]
    assert [betti(PercSubcomplex.empty(torus, 2), j, 2) for j in range(3)] == [1, 8 - 4 + 1, 0]
    assert [[rel_betti(p, j, 2) for j in range(3)] for p in pairs] == expected


def test_v_gamma_trivial_cases():
    X = build_box(2, [2, 2])
    q = 2
    # gamma supported on open P1 cells
    pair = RelPair(PercSubcomplex.empty(X, 2), PercSubcomplex.from_ids(X, 1, [4]))
    gamma = Chain.build(1, q, {4: 1})
    assert v_gamma(pair, gamma, q)
    # gamma = boundary of an open plaquette
    pair = RelPair(PercSubcomplex.from_ids(X, 2, [0]), PercSubcomplex.empty(X, 1))
    gamma = boundary_chain(X, X.cells(2)[0], q)
    assert v_gamma(pair, gamma, q)
    # with nothing open, a plaquette boundary is not nullhomologous rel P1
    pair = RelPair(PercSubcomplex.empty(X, 2), PercSubcomplex.empty(X, 1))
    assert not v_gamma(pair, gamma, q)


def test_v_gamma_noncontractible_cycle_on_torus():
    X = build_torus(2, 2)
    q = 2
    from cpp_lab.complexes import Cell
    ids = [X.cell_id(Cell((x, 0), (0,))) for x in range(2)]
    gamma = Chain.build(1, q, {i: 1 for i in ids})
    assert chain_boundary(X, gamma).coeffs == ()
    pair = RelPair(PercSubcomplex.empty(X, 2), PercSubcomplex.empty(X, 1))
    assert not v_gamma(pair, gamma, q)
    # even with every plaquette open the winding cycle does not bound
    pair = RelPair(PercSubcomplex.full(X, 2), PercSubcomplex.empty(X, 1))
    assert not v_gamma(pair, gamma, q)


@pytest.mark.parametrize("q", [2, 3])
def test_v_gamma_is_monotone(q):
    rnd = random.Random(9)
    X = build_box(2, [2, 2])
    for _ in range(40):
        pair = random_pair(X, 1, rnd)
        gamma = Chain.build(1, q, {rnd.randrange(12): 1 + rnd.randrange(q - 1)
                                   for _ in range(3)})
        if not v_gamma(pair, gamma, q):
            continue
        bigger = RelPair(with_cell(pair.P2, rnd.randrange(4)),
                         with_cell(pair.P1, rnd.randrange(12)))
        assert v_gamma(bigger, gamma, q)


def test_euler_characteristic_values():
    fx = two_squares_complex()
    assert euler_characteristic(fx) == 6 - 7 + 1 == 0
    assert euler_characteristic(build_torus(2, 2)) == 0
    point = ExplicitComplex([["v"]], {})
    assert euler_characteristic(point) == 1


def test_euler_poincare_on_random_subcomplexes():
    rnd = random.Random(13)
    X = build_torus(2, 2)
    for _ in range(12):
        P = PercSubcomplex(X, 2, rnd.getrandbits(4))
        chi = euler_characteristic(P)
        for q in (2, 3):
            alt = sum((-1) ** j * betti(P, j, q) for j in range(3))
            assert chi == alt
    # and for relative pairs
    for _ in range(12):
        pair = random_pair(X, 1, rnd)
        chi = euler_characteristic(pair)
        alt = sum((-1) ** j * rel_betti(pair, j, 2) for j in range(3))
        assert chi == alt


def test_lattice_condition_on_random_quadruples():
    rnd = random.Random(17)
    for X in (build_box(2, [2, 2]), build_torus(2, 2)):
        n2, n1 = X.num_cells(2), X.num_cells(1)
        for _ in range(60):
            q = rnd.choice([2, 3])
            X2 = PercSubcomplex(X, 2, rnd.getrandbits(n2))
            Y2 = PercSubcomplex(X, 2, rnd.getrandbits(n2))
            A1 = PercSubcomplex(X, 1, rnd.getrandbits(n1))
            B1 = PercSubcomplex(X, 1, rnd.getrandbits(n1))
            lhs = rel_betti(RelPair(X2.union(Y2), A1.union(B1)), 1, q) \
                + rel_betti(RelPair(X2.intersection(Y2), A1.intersection(B1)), 1, q)
            rhs = rel_betti(RelPair(X2, A1), 1, q) + rel_betti(RelPair(Y2, B1), 1, q)
            assert lhs >= rhs


def test_single_cell_perturbation_changes_betti_by_at_most_one():
    rnd = random.Random(19)
    X = build_box(2, [2, 2])
    for _ in range(40):
        pair = random_pair(X, 1, rnd)
        b = rel_betti(pair, 1, 2)
        e = rnd.randrange(12)
        grown = RelPair(pair.P2, with_cell(pair.P1, e))
        if not pair.P1.has(e):
            assert rel_betti(grown, 1, 2) - b in (0, -1)
        s = rnd.randrange(4)
        grown2 = RelPair(with_cell(pair.P2, s), pair.P1)
        if not pair.P2.has(s):
            assert rel_betti(grown2, 1, 2) - b in (0, -1)


def test_torus_rank_identity():
    # b_{i+1}(P2,P1) = b_i(P2,P1) + |P2| + |P1| - (number of i-cells)
    rnd = random.Random(23)
    for X, i in ((build_torus(2, 2), 1), (build_torus(2, 2), 0)):
        n_i = X.num_cells(i)
        for _ in range(25):
            pair = random_pair(X, i, rnd)
            for q in (2, 3):
                lhs = rel_betti(pair, i + 1, q)
                rhs = rel_betti(pair, i, q) + pair.P2.count + pair.P1.count - n_i
                assert lhs == rhs


def test_alexander_duality_of_ranks():
    rnd = random.Random(29)
    for X, i in ((build_torus(2, 2), 0), (build_torus(2, 2), 1)):
        d = X.d
        for _ in range(20):
            pair = random_pair(X, i, rnd)
            dual_pair = RelPair(dual_subcomplex(pair.P1), dual_subcomplex(pair.P2))
            for q in (2, 3):
                for j in range(d + 1):
                    assert rel_betti(dual_pair, j, q) == rel_betti(pair, d - j, q)


def test_min_area_worked_values():
    X = build_box(2, [2, 2])
    q = 2
    gamma = boundary_chain(X, X.cells(2)[0], q)
    assert min_area(gamma, X, q) == 1
    big = Chain.build(1, q, {})
    for cell in X.cells(2):
        big = big + boundary_chain(X, cell, q)
    assert min_area(big, X, q) == 4
    assert min_area(Chain.zero(1, q), X, q) == 0


def test_min_area_none_for_noncontractible_cycle():
    X = build_torus(2, 2)
    from cpp_lab.complexes import Cell
    ids = [X.cell_id(Cell((x, 0), (0,))) for x in range(2)]
    gamma = Chain.build(1, 2, {i: 1 for i in ids})
    assert min_area(gamma, X, 2) is None


def test_min_area_budget_is_an_error_not_none():
    X = build_box(2, [3, 3])
    big = Chain.build(1, 2, {})
    for cell in X.cells(2):
        big = big + boundary_chain(X, cell, 2)
    with pytest.raises(BudgetExceeded):
        min_area(big, X, 2, budget=5)


def test_isoperimetric_bound_on_random_small_cycles():
    rnd = random.Random(31)
    for d, widths in ((2, [3, 3]), (3, [2, 2, 1])):
        X = build_box(d, widths)
        n2 = X.num_cells(2)
        for _ in range(10):
            tau = rnd.sample(range(n2), rnd.randint(1, 2))
            gamma = Chain.build(1, 2, {})
            for s in tau:
                gamma = gamma + boundary_chain(X, X.cells(2)[s], 2)
            if not gamma.coeffs:
                continue
            area = min_area(gamma, X, 2)
            perim = len(gamma.coeffs)
            assert area is not None
            assert area <= (d - 1) / (8 * d) * perim ** 2
