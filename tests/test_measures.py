"""Exact weights, enumeration oracles, Wilson identity, special cases."""
import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpp_lab import measures as M
from cpp_lab.complexes import (Chain, ExplicitComplex, PercSubcomplex,
                               boundary_chain, build_box, build_torus)
from cpp_lab.errors import (DegenerateParameter, DimensionMismatch, TooLarge,
                            ValidationError)
from cpp_lab.homology import RelPair, cocycle_system, v_gamma
from cpp_lab.observables import rect_loop
from helpers import kappa_gauge_weight
from measures_reference import bernoulli_bits_dist, one_point_conditional, prcm_dist
from measures_reference import wilson_class_sums as reference_class_sums
from test_homology import triangle_and_square_complex

SQUARE = build_box(2, [1, 1])
BOX22 = build_box(2, [2, 2])


def params(q=2, i=1, k2=1, k1=1, r=None):
    return M.ModelParams(q=q, i=i, k2=k2, k1=k1, r=r)


def test_params_validation():
    with pytest.raises(Exception):
        M.ModelParams(q=4, i=1, k2=1, k1=1)
    with pytest.raises(ValidationError):
        M.ModelParams(q=2, i=1, k2=-1, k1=1)
    p = M.ModelParams.from_p(2, 1, Fraction(1, 2), 1)
    assert p.k2 == 1 and p.k1 is None and p.p1 == 1


def test_mu_weight_worked_values():
    p = params(k2=2, k1=3)
    f0 = np.zeros(4, dtype=int)
    assert M.mu_weight(f0, p, SQUARE) == Fraction(4) ** 4 * Fraction(3) ** 1
    # k = 0 gives the uniform measure
    p0 = params(k2=0, k1=0)
    for f in itertools.product(range(2), repeat=4):
        assert M.mu_weight(np.array(f), p0, SQUARE) == 1
    # one nonzero edge on the square breaks the plaquette term
    pk = params(k2=1, k1=1)
    f = np.array([1, 0, 0, 0])
    assert M.mu_weight(f, pk, SQUARE) == Fraction(2) ** 3


def test_cpp_weight_worked_values():
    p = params(q=2, k2=1, k1=1)
    empty2, empty1 = PercSubcomplex.empty(SQUARE, 2), PercSubcomplex.empty(SQUARE, 1)
    full2, full1 = PercSubcomplex.full(SQUARE, 2), PercSubcomplex.full(SQUARE, 1)
    # no constraints: every one of the q^4 cochains is compatible
    assert M.cpp_weight(empty2, empty1, p, SQUARE) == 2 ** 4
    # everything open: only f = 0 is compatible
    pk = params(q=2, k2=2, k1=3)
    assert M.cpp_weight(full2, full1, pk, SQUARE) == Fraction(2) ** 1 * Fraction(3) ** 4
    # r = 1 wipes out the cohomology factor
    p1 = params(q=2, k2=2, k1=3, r=1)
    assert M.cpp_weight(empty2, empty1, p1, SQUARE) == 1


def test_kappa_weight_worked_values():
    p = params(q=2, k2=2, k1=3)
    full2, full1 = PercSubcomplex.full(SQUARE, 2), PercSubcomplex.full(SQUARE, 1)
    empty2, empty1 = PercSubcomplex.empty(SQUARE, 2), PercSubcomplex.empty(SQUARE, 1)
    f0 = np.zeros(4, dtype=int)
    assert M.kappa_weight(f0, full2, full1, p, SQUARE) == Fraction(3) ** 4 * Fraction(2)
    for f in itertools.product(range(2), repeat=4):
        assert M.kappa_weight(np.array(f), empty2, empty1, p, SQUARE) == 1
    f_bad = np.array([1, 0, 0, 0])
    P1 = PercSubcomplex.from_ids(SQUARE, 1, [0])
    assert M.kappa_weight(f_bad, empty2, P1, p, SQUARE) == 0


def _site_rule(k, is_open, ok):
    """Per-cell factor of the coupling: an open cell gives k if its
    constraint holds and 0 if not, a closed cell gives 1 - p (1, or 0 at
    p = 1, k = None) in the k-coordinates."""
    if k is None:
        return Fraction(int(is_open and ok))
    if not is_open:
        return Fraction(1)
    return k if ok else Fraction(0)


@pytest.mark.parametrize("q", [2, 3])
def test_weights_match_the_per_cell_rule_at_boundary_parameters(q):
    X = SQUARE
    n1, n2 = X.num_cells(1), X.num_cells(2)
    g0 = np.zeros(X.num_cells(0), dtype=int)
    for k2, k1 in itertools.product([Fraction(0), Fraction(1, 2), None], repeat=2):
        p = params(q=q, k2=k2, k1=k1)
        for bits2, bits1 in itertools.product(range(1 << n2), range(1 << n1)):
            P2, P1 = PercSubcomplex(X, 2, bits2), PercSubcomplex(X, 1, bits1)
            factor = Fraction(1)
            for e in range(n1):
                factor *= _site_rule(k1, P1.has(e), True)
            for s in range(n2):
                factor *= _site_rule(k2, P2.has(s), True)
            b = cocycle_system(X, 1, q, bits2, bits1).dim
            assert M.cpp_weight(P2, P1, p, X) == factor * Fraction(q) ** b
            for f in itertools.product(range(q), repeat=n1):
                fv = np.array(f)
                df = M.delta_cochain(fv, X, 1, q)
                ref = Fraction(1)
                for e in range(n1):
                    ref *= _site_rule(k1, P1.has(e), fv[e] == 0)
                for s in range(n2):
                    ref *= _site_rule(k2, P2.has(s), df[s] == 0)
                assert M.kappa_weight(fv, P2, P1, p, X) == ref
                assert kappa_gauge_weight(fv, g0, P2, P1, p, X) == ref


def test_enumerate_mu_single_square_counts():
    p = params(q=2, k2=1, k1=1)
    mu = M.enumerate_mu(p, SQUARE)
    assert len(mu.entries) == 16
    assert mu.entries[(0, 0, 0, 0)] == 2 ** 4 * 2


@pytest.mark.parametrize("q,k2,k1", [(2, 1, 1), (2, 1, 2), (3, 1, 2), (3, 2, 3)])
def test_coupling_marginals_exact_on_single_square(q, k2, k1):
    p = params(q=q, k2=k2, k1=k1)
    kappa = M.enumerate_kappa(p, SQUARE)
    mu = M.enumerate_mu(p, SQUARE)
    rho = M.enumerate_rho(p, SQUARE)
    assert mu.max_discrepancy(kappa.marginal(lambda k: k[0])) == 0
    assert rho.max_discrepancy(kappa.marginal(lambda k: (k[1], k[2]))) == 0
    # the streaming marginalizer agrees with the materialized route
    mf, mp = M.kappa_marginals(p, SQUARE)
    assert mu.max_discrepancy(mf) == 0
    assert rho.max_discrepancy(mp) == 0


def test_kappa_conditional_given_pair_is_uniform():
    p = params(q=3, k2=1, k1=2)
    kappa = M.enumerate_kappa(p, SQUARE)
    by_pair = {}
    for (f, b2, b1), w in kappa.entries.items():
        by_pair.setdefault((b2, b1), set()).add(w)
    for weights in by_pair.values():
        assert len(weights) == 1


def test_kappa_conditional_given_f_is_product_bernoulli():
    p = params(q=2, k2=1, k1=2)
    kappa = M.enumerate_kappa(p, SQUARE)
    f = (0, 1, 0, 0)
    slice_w = {(b2, b1): w for (ff, b2, b1), w in kappa.entries.items() if ff == f}
    total = sum(slice_w.values())
    df = M.delta_cochain(np.array(f), SQUARE, 1, 2)
    for (b2, b1), w in slice_w.items():
        prob = Fraction(1)
        for s in range(SQUARE.num_cells(2)):
            if df[s] == 0:
                prob *= p.p2 if (b2 >> s) & 1 else 1 - p.p2
            elif (b2 >> s) & 1:
                prob = 0
        for e in range(4):
            if f[e] == 0:
                prob *= p.p1 if (b1 >> e) & 1 else 1 - p.p1
            elif (b1 >> e) & 1:
                prob = 0
        assert w / total == prob


def test_enumeration_guard_raises():
    p = params(q=2)
    with pytest.raises(TooLarge):
        M.enumerate_mu(p, BOX22, max_states=100)
    with pytest.raises(TooLarge):
        M.enumerate_kappa(p, BOX22)  # 2^28 states > default guard


def test_mu_rejects_infinite_k():
    p = M.ModelParams.from_p(2, 1, 1, Fraction(1, 2))
    with pytest.raises(DegenerateParameter):
        M.enumerate_mu(p, SQUARE)


def test_exact_wilson_trivial_and_worked_cases():
    p = params(q=2, k2=1, k1=1)
    empty = Chain.zero(1, 2)
    res = M.exact_wilson(p, SQUARE, empty)
    assert res.lhs_exact == 1 and res.rhs == 1
    # strong field forces the loop onto P1
    strong = params(q=2, k2=1, k1=10 ** 6)
    edge = Chain.build(1, 2, {0: 1})
    res = M.exact_wilson(strong, SQUARE, edge)
    assert res.lhs_exact == res.rhs > Fraction(99, 100)
    # the identity itself on the square boundary
    gamma = boundary_chain(SQUARE, SQUARE.cells(2)[0], 2)
    res = M.exact_wilson(p, SQUARE, gamma)
    assert res.lhs_exact == res.rhs


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_wilson_identity_across_moduli(q):
    p = params(q=q, k2=1, k1=2)
    gamma = boundary_chain(SQUARE, SQUARE.cells(2)[0], q)
    res = M.exact_wilson(p, SQUARE, gamma)
    assert isinstance(res.lhs_exact, Fraction)
    assert res.lhs_exact == res.rhs and res.abs_difference == 0


def test_wilson_sums_against_direct_enumeration():
    # independent route: brute-force the class sums from enumerate_mu
    p = params(q=3, k2=2, k1=1)
    gamma = boundary_chain(SQUARE, SQUARE.cells(2)[0], 3)
    mu = M.enumerate_mu(p, SQUARE)
    brute = [Fraction(0)] * 3
    for f, w in mu.entries.items():
        brute[gamma.evaluate(f)] += w
    assert brute == M.wilson_class_sums(p, SQUARE, gamma)


def _plaquette_boundary(X, q, k=0):
    return boundary_chain(X, X.cells(2)[k], q)


BOX12 = build_box(2, [1, 2])
TORUS2 = build_torus(2, 2)
WILSON_CASES = {
    "square-q2": (SQUARE, 2, _plaquette_boundary(SQUARE, 2)),
    "box22-q2": (BOX22, 2, rect_loop(2, 2, BOX22, 2).gamma),
    "box12-q3": (BOX12, 3, _plaquette_boundary(BOX12, 3) + _plaquette_boundary(BOX12, 3, 1)),
    "torus2-q2": (TORUS2, 2, _plaquette_boundary(TORUS2, 2)),
}


def _reference_rho_v(rho, X, p, gamma, max_states=M.DEFAULT_STATE_GUARD):
    """rho(V_gamma) from the enumerated pair distribution rho: the weight of
    the states whose V_gamma flag is set, over the total."""
    flags = M.vgamma_table(X, p.i, p.q, gamma, max_states)
    n1 = X.num_cells(p.i)
    return sum((w for (b2, b1), w in rho.entries.items() if flags[(b2 << n1) | b1]),
               Fraction(0)) / rho.total


@pytest.mark.parametrize("r", ["q", Fraction(5, 2)], ids=["r=q", "r=5/2"])
@pytest.mark.parametrize("case", list(WILSON_CASES))
def test_exact_wilson_rhs_is_the_per_state_rho_sum(case, r):
    """rho(V_gamma) as the sum of enumerated pair weights over the states
    whose V_gamma flag is set, divided by the total."""
    X, q, gamma = WILSON_CASES[case]
    for k2, k1 in itertools.product([0, Fraction(1, 2), 3], repeat=2):
        p = params(q=q, k2=k2, k1=k1, r=q if r == "q" else r)
        rho = M.enumerate_rho(p, X)
        assert M.exact_wilson(p, X, gamma).rhs == _reference_rho_v(rho, X, p, gamma)


def test_exact_wilson_zero_pair_total_is_a_validation_error():
    with pytest.raises(ValidationError, match="zero total weight"):
        M.exact_wilson(params(k2=0, k1=0, r=0), SQUARE, _plaquette_boundary(SQUARE, 2))


# at most 2^20 cochains or pair states per case, far below the default guard
PROPERTY_GUARD = 1 << 20
PROPERTY_COMPLEXES = {
    "square": SQUARE, "box12": BOX12, "box21": build_box(2, [2, 1]), "box22": BOX22,
    "torus2": TORUS2, "torus3": build_torus(2, 3),
}
_ratios = st.fractions(min_value=0, max_value=4, max_denominator=6)


@st.composite
def wilson_cases(draw):
    X = PROPERTY_COMPLEXES[draw(st.sampled_from(sorted(PROPERTY_COMPLEXES)))]
    q = draw(st.sampled_from([2, 3, 5, 7]))
    i = draw(st.sampled_from([0, 1]))
    n = X.num_cells(i)
    coeffs = draw(st.dictionaries(st.integers(0, n - 1), st.integers(1, q - 1), max_size=n))
    p = params(q=q, i=i, k2=draw(_ratios), k1=draw(_ratios))
    return p, X, Chain.build(i, q, coeffs)


@settings(max_examples=40, deadline=None)
@given(wilson_cases())
@example((params(q=5, i=1), BOX22, _plaquette_boundary(BOX22, 5)))
def test_wilson_class_sums_agree_off_zero_and_the_identity_is_exact(case):
    """f -> kf (k in Z_q^*) keeps the mu-weight, so A_c = A_1 for c != 0 and
    the exact spin side equals rho(V_gamma) at every prime q, for any chain."""
    p, X, gamma = case
    try:
        sums = M.wilson_class_sums(p, X, gamma, PROPERTY_GUARD)
    except TooLarge:
        return  # e.g. the 2x2 box at q = 5, i = 1: 5^12 cochains
    assert all(isinstance(a, Fraction) and a == sums[1] for a in sums[1:])
    try:
        res = M.exact_wilson(p, X, gamma, PROPERTY_GUARD)
    except TooLarge:
        return
    assert isinstance(res.lhs_exact, Fraction) and res.lhs_exact == res.rhs


# at most 2^16 cochains or pair states per case: the 2x2 box at q = 2, i = 1
# is the largest case admitted
PAIR_GUARD = 1 << 16
# the projective plane: one cell per dimension, D attached along e twice, so
# b_1 and V_gamma differ between q = 2 and odd q
RP2 = ExplicitComplex([["v"], ["e"], ["D"]], {"e": [("v", 1), ("v", -1)],
                                              "D": [("e", 1), ("e", 1)]})
PAIR_COMPLEXES = {"square": SQUARE, "box12": BOX12, "box22": BOX22, "torus2": TORUS2,
                  "torus3": build_torus(2, 3), "rp2": RP2}
_k_or_inf = st.one_of(st.none(), _ratios)  # None is k = infinity, p = 1
_aux_r = st.one_of(st.none(), st.fractions(min_value=Fraction(1, 6), max_value=4,
                                           max_denominator=6))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(PAIR_COMPLEXES)), st.sampled_from([2, 3, 5]),
       st.sampled_from([0, 1]), st.lists(st.tuples(_k_or_inf, _k_or_inf, _aux_r),
                                         min_size=1, max_size=3))
@example("box22", 2, 1, [(Fraction(1, 2), 3, None), (None, Fraction(2, 3), Fraction(5, 2))])
@example("rp2", 2, 1, [(Fraction(1, 2), 3, None)])
@example("rp2", 3, 1, [(Fraction(1, 2), 3, None)])
def test_cached_pair_side_is_the_per_state_rho_sum(name, q, i, points):
    """Repeated points on one complex, two chains each: every rho(V_gamma)
    from the cached class counts equals the per-state sum, so the cache
    keys keep i, q and gamma apart."""
    X = PAIR_COMPLEXES[name]
    n = X.num_cells(i)
    gammas = [Chain.build(i, q, {0: 1}), Chain.build(i, q, {0: 1, n - 1: q - 1})]
    for k2, k1, r in points:
        p = params(q=q, i=i, k2=k2, k1=k1, r=r)
        rhs = []
        try:
            for gamma in gammas:
                rhs.append(M.exact_wilson(p, X, gamma, PAIR_GUARD).rhs)
        except TooLarge:
            return
        rho = M.enumerate_rho(p, X, PAIR_GUARD)
        for gamma, value in zip(gammas, rhs):
            assert value == _reference_rho_v(rho, X, p, gamma, PAIR_GUARD)


def test_a_warm_point_walks_no_pair_state(monkeypatch):
    X = build_box(2, [1, 2])
    gamma = rect_loop(2, 2, X, 3, width=1).gamma
    M.exact_wilson(params(q=3, k2=Fraction(1, 2), k1=2), X, gamma)

    def walk(*args):
        raise AssertionError("a warm point walked the pair states")

    monkeypatch.setattr(M.homology, "cocycle_system", walk)
    monkeypatch.setattr(M, "_pair_classes", walk)
    points = [params(q=3, k2=3, k1=Fraction(2, 7)), params(q=3, k2=1, k1=1, r=Fraction(5, 2))]
    results = [M.exact_wilson(p, X, gamma) for p in points]
    monkeypatch.undo()
    assert results[0].lhs_exact == results[0].rhs
    for p, res in zip(points, results):
        assert res.rhs == _reference_rho_v(M.enumerate_rho(p, X), X, p, gamma)


# at most 2^14 cochains per reference table: the 2x2 box at q = 2, i = 1 is
# the largest case admitted
SPIN_GUARD = 1 << 14
SPIN_COMPLEXES = {"square": SQUARE, "box12": BOX12, "box22": BOX22, "torus2": TORUS2,
                  "torus3": build_torus(2, 3)}


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(SPIN_COMPLEXES)),
       st.lists(st.tuples(_ratios, _ratios), min_size=1, max_size=2))
@example("box22", [(Fraction(1, 2), 3), (Fraction(7, 3), Fraction(1, 5))])
def test_cached_spin_side_is_the_cochain_table_sum(name, points):
    """Repeated points on one complex at q in {2, 3, 5} and i in {0, 1}, two
    chains each: every A_c from the cached class counts equals the sum over
    the full cochain table, so the cache keys keep i, q and gamma apart."""
    X = SPIN_COMPLEXES[name]
    for q, i in itertools.product([2, 3, 5], [0, 1]):
        n = X.num_cells(i)
        gammas = [Chain.build(i, q, {0: 1}), Chain.build(i, q, {0: 1, n - 1: q - 1})]
        for k2, k1 in points:
            p = params(q=q, i=i, k2=k2, k1=k1)
            for gamma in gammas:
                try:
                    expected = reference_class_sums(p, X, gamma, SPIN_GUARD)
                except TooLarge:
                    break
                sums = M.wilson_class_sums(p, X, gamma, SPIN_GUARD)
                assert all(type(a) is Fraction for a in sums)
                assert sums == expected


def test_a_warm_point_walks_no_cochain(monkeypatch):
    X = build_box(2, [1, 2])
    gamma = rect_loop(2, 2, X, 3, width=1).gamma
    M.exact_wilson(params(q=3, k2=Fraction(1, 2), k1=2), X, gamma)
    points = [params(q=3, k2=3, k1=Fraction(2, 7)), params(q=3, k2=1, k1=1, r=Fraction(5, 2))]
    expected = [reference_class_sums(p, X, gamma) for p in points]

    def walk(*args):
        raise AssertionError("a warm point walked the cochains")

    for name in ("mu_class_data", "all_cochains", "_cochain_chunks", "_cochain_digits"):
        monkeypatch.setattr(M, name, walk)
    sums = [M.wilson_class_sums(p, X, gamma) for p in points]
    results = [M.exact_wilson(p, X, gamma) for p in points]
    at_p_one = M.exact_wilson(M.ModelParams.from_p(3, 1, 1, Fraction(1, 3)), X, gamma)
    monkeypatch.undo()
    assert sums == expected
    assert results[0].lhs_exact == results[0].rhs
    assert at_p_one.lhs_exact == at_p_one.rhs


P_ONE_COMPLEXES = {"square": (SQUARE, lambda q: _plaquette_boundary(SQUARE, q)),
                   "box12": (BOX12, lambda q: rect_loop(2, 2, BOX12, q, width=1).gamma),
                   "box22": (BOX22, lambda q: rect_loop(2, 2, BOX22, q).gamma)}


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("name", list(P_ONE_COMPLEXES))
def test_wilson_identity_holds_at_p_one(name, q):
    """At p2 = 1, p1 = 1 or both the spin measure is the k -> infinity limit
    (only cochains with df = 0, or f = 0, keep weight) and both sides of the
    identity are defined and equal; enumerate_mu still wants finite k."""
    X, boundary = P_ONE_COMPLEXES[name]
    for gamma in (boundary(q), Chain.build(1, q, {0: 1})):
        for p2, p1 in ((1, Fraction(1, 2)), (Fraction(2, 3), 1), (1, 1)):
            res = M.exact_wilson(M.ModelParams.from_p(q, 1, p2, p1), X, gamma)
            assert res.lhs_exact == res.rhs
        assert res.lhs_exact == 1  # p1 = 1: f = 0 on every edge
    with pytest.raises(DegenerateParameter):
        M.enumerate_mu(M.ModelParams.from_p(q, 1, 1, Fraction(1, 2)), SQUARE)


# sha256 of the lines "lhs_exact|rhs" of seeded points, taken before the pair
# side was cached: 12 points each on the 2x2 box at q = 2 and the 1x2 box at
# q = 3 (rect_loop boundaries), then on the 2x2 box one point at r = 5/2 and
# one at p2 = 1 on the chain e0.  The spin side raised at p = 1 then, so that
# line is "DegenerateParameter|rho(V_gamma)"; the spin side now equals
# rho(V_gamma) there and the line keeps its text.
EXACT_POINTS_DIGEST = "4a3fa5d749aace4dffe0faec9d10ac5d17451d1ca0dc4e09f8d0cd1fbe8ed45b"


def test_exact_wilson_outputs_keep_their_digest():
    rng = random.Random(2026)

    def k():
        return Fraction(rng.randint(1, 9), rng.randint(1, 9))

    lines = []
    for widths, q in (([2, 2], 2), ([1, 2], 3)):
        X = build_box(2, widths)
        gamma = rect_loop(2, 2, X, q, width=widths[0]).gamma
        points = [dict(k2=k(), k1=k()) for _ in range(12)]
        if q == 2:
            points += [dict(k2=k(), k1=k(), r=Fraction(5, 2)), dict(k2=None, k1=Fraction(2, 3))]
        for kw in points:
            p = params(q=q, **kw)
            if kw["k2"] is None:
                gamma = Chain.build(1, q, {0: 1})
                res = M.exact_wilson(p, X, gamma)
                assert res.lhs_exact == res.rhs
                lines.append(f"DegenerateParameter|{res.rhs}")
                continue
            res = M.exact_wilson(p, X, gamma)
            lines.append(f"{res.lhs_exact}|{res.rhs}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == EXACT_POINTS_DIGEST


def test_one_point_conditionals_take_the_two_stated_values():
    rnd = random.Random(41)
    for r in (None, Fraction(1), Fraction(7, 2)):
        p = params(q=2, k2=1, k1=2, r=r)
        p2v, p1v = p.p2, p.p1
        for _ in range(25):
            bits2 = rnd.getrandbits(4)
            bits1 = rnd.getrandbits(12)
            e = rnd.randrange(12)
            cond = one_point_conditional(p, BOX22, bits2, bits1, 0, e)
            low = p1v / (p.r * (1 - p1v) + p1v)
            assert cond in (p1v, low)
            s = rnd.randrange(4)
            cond2 = one_point_conditional(p, BOX22, bits2, bits1, 1, s)
            low2 = p2v / (p.r * (1 - p2v) + p2v)
            assert cond2 in (p2v, low2)


def test_special_case_k1_zero_matches_prcm():
    for X in (SQUARE, BOX22):
        for q in (2, 3):
            p = M.ModelParams(q=q, i=1, k2=Fraction(3, 2), k1=0)
            rho2 = M.enumerate_rho(p, X).marginal(lambda k: k[0])
            prcm = prcm_dist(X, 2, q, p.p2)
            assert rho2.max_discrepancy(prcm) == 0


def test_special_case_p2_zero_gives_bernoulli_pstar():
    for X in (SQUARE, BOX22):
        for q in (2, 3):
            p = M.ModelParams(q=q, i=1, k2=0, k1=Fraction(2, 3))
            rho1 = M.enumerate_rho(p, X).marginal(lambda k: k[1])
            pv = p.p1
            pstar = pv / (q - pv * q + pv)
            bern = bernoulli_bits_dist(X.num_cells(1), pstar)
            assert rho1.max_discrepancy(bern) == 0


def test_special_case_p1_one_gives_bernoulli_p2():
    for X in (SQUARE, BOX22):
        p = M.ModelParams.from_p(2, 1, Fraction(2, 5), 1)
        rho2 = M.enumerate_rho(p, X).marginal(lambda k: k[0])
        bern = bernoulli_bits_dist(X.num_cells(2), Fraction(2, 5))
        assert rho2.max_discrepancy(bern) == 0


def test_special_case_p2_one_gives_lower_prcm():
    # needs trivial reduced H^0 and H^1: any contractible box works
    for X in (SQUARE, BOX22):
        for q in (2, 3):
            p = M.ModelParams.from_p(q, 1, 1, Fraction(1, 3))
            rho1 = M.enumerate_rho(p, X).marginal(lambda k: k[1])
            prcm = prcm_dist(X, 1, q, Fraction(1, 3))
            assert rho1.max_discrepancy(prcm) == 0


def test_aux_r_one_is_independent_percolation():
    p = M.ModelParams(q=2, i=1, k2=Fraction(1, 2), k1=Fraction(1, 4), r=1)
    rho = M.enumerate_rho(p, SQUARE)
    joint = {}
    b2d = bernoulli_bits_dist(SQUARE.num_cells(2), p.p2)
    b1d = bernoulli_bits_dist(SQUARE.num_cells(1), p.p1)
    for (k2, w2) in b2d.normalized().items():
        for (k1, w1) in b1d.normalized().items():
            joint[(k2, k1)] = w2 * w1
    for key, w in rho.normalized().items():
        assert w == joint[key]


def test_griffiths_inequality_on_random_chain_pairs():
    rnd = random.Random(43)
    p = params(q=2, k2=1, k1=2)
    mu = M.enumerate_mu(p, SQUARE)

    def expect_w(gamma):
        acc = Fraction(0)
        for f, w in mu.entries.items():
            acc += w if gamma.evaluate(f) == 0 else -w
        return acc / mu.total

    for _ in range(50):
        g1 = Chain.build(1, 2, {rnd.randrange(4): 1 for _ in range(rnd.randint(1, 3))})
        g2 = Chain.build(1, 2, {rnd.randrange(4): 1 for _ in range(rnd.randint(1, 3))})
        assert expect_w(g1 + g2) >= expect_w(g1) * expect_w(g2)


def test_wilson_monotone_in_k():
    gamma = boundary_chain(SQUARE, SQUARE.cells(2)[0], 2)
    values = []
    for k2 in (Fraction(1, 2), 1, 2):
        row = []
        for k1 in (Fraction(1, 2), 1, 2):
            res = M.exact_wilson(params(q=2, k2=k2, k1=k1), SQUARE, gamma)
            row.append(res.rhs)
        values.append(row)
    for a in range(3):
        for b in range(2):
            assert values[a][b] <= values[a][b + 1]
            assert values[b][a] <= values[b + 1][a]


def test_v_intersection_subset_on_enumerated_states():
    q = 2
    fam = rect_loop(2, 2, BOX22, q)
    rnd = random.Random(47)
    for _ in range(60):
        pair = RelPair(PercSubcomplex(BOX22, 2, rnd.getrandbits(4)),
                       PercSubcomplex(BOX22, 1, rnd.getrandbits(12)))
        if v_gamma(pair, fam.gamma_prime, q) and v_gamma(pair, fam.gamma_double_prime, q):
            assert v_gamma(pair, fam.gamma, q)


def test_ghost_vertex_equivalence():
    assert M.ghost_vertex_check(M.ModelParams(q=2, i=0, k2=1, k1=1), 2, [(0, 1)])
    assert M.ghost_vertex_check(M.ModelParams(q=3, i=0, k2=2, k1=1), 3,
                                [(0, 1), (1, 2), (0, 2)])
    assert M.ghost_vertex_check(M.ModelParams(q=2, i=0, k2=1, k1=0), 2, [(0, 1)])


def test_ghost_vertex_requires_i_zero():
    with pytest.raises(ValidationError):
        M.ghost_vertex_check(params(q=2, i=1), 2, [(0, 1)])


def test_dist_exports():
    p = params(q=2, k2=1, k1=1)
    rho = M.enumerate_rho(p, SQUARE)
    rows = rho.csv_rows(lambda k: f"{k[0]}:{k[1]}")
    assert len(rows) == len(rho.entries)
    assert all(isinstance(n, int) and isinstance(d, int) for _, n, d in rows)
    data = rho.to_json(lambda k: f"{k[0]}:{k[1]}")
    assert data["total"]["num"] > 0
    assert len(data["entries"]) == len(rows)


ONE_VERTEX_CIRCLE = ExplicitComplex([["v"], ["e"]], {})  # incidence(1) has width 0


@pytest.mark.parametrize("X,j", [(BOX22, 0), (BOX22, 1), (BOX22, 2),
                                 (build_torus(2, 1), 1),
                                 (triangle_and_square_complex(), 1),
                                 (ONE_VERTEX_CIRCLE, 0)])
def test_delta_cochain_on_a_batch_matches_row_by_row(X, j):
    q = 3
    F = np.random.default_rng(j).integers(0, q, size=(5, X.num_cells(j)))
    batch = M.delta_cochain(F, X, j, q)
    assert batch.shape == (5, X.num_cells(j + 1))
    for f, row in zip(F, batch):
        assert np.array_equal(row, M.delta_cochain(f, X, j, q))


def test_vgamma_table_rejects_gamma_of_wrong_dimension_or_modulus():
    with pytest.raises(DimensionMismatch):
        M.vgamma_table(SQUARE, 1, 2, Chain.build(0, 2, {0: 1}))
    with pytest.raises(DimensionMismatch):
        M.vgamma_table(SQUARE, 1, 2, Chain.build(1, 3, {0: 1}))


@pytest.mark.parametrize("q", [2, 3])
def test_exact_wilson_fills_both_state_tables_in_one_walk(monkeypatch, q):
    X = build_box(2, [1, 2])
    gammas = [rect_loop(2, 2, X, q, width=1).gamma, boundary_chain(X, X.cells(2)[0], q)]
    walk = 1 << (X.num_cells(1) + X.num_cells(2))
    original = M.homology.cocycle_system
    calls = []

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(M.homology, "cocycle_system", counted)
    p = params(q=q, k2=Fraction(1, 2), k1=2)
    results = [M.exact_wilson(p, X, gamma) for gamma in gammas]
    assert len(calls) == len(gammas) * walk
    assert ("pair_betti", 1, q) in X.cache
    # the tables are those of separate walks on a fresh complex
    monkeypatch.undo()
    Y = build_box(2, [1, 2])
    assert np.array_equal(X.cache[("pair_betti", 1, q)], M.pair_betti_table(Y, 1, q))
    for gamma, res in zip(gammas, results):
        assert np.array_equal(X.cache[("vgamma", 1, q, gamma.coeffs)],
                              M.vgamma_table(Y, 1, q, gamma))
        assert M.exact_wilson(p, Y, gamma) == res


def test_state_tables_are_guarded_before_they_are_built():
    X = build_box(2, [1, 2])
    gamma = boundary_chain(X, X.cells(2)[0], 2)
    with pytest.raises(TooLarge):
        M.vgamma_table(X, 1, 2, gamma, max_states=100)
    with pytest.raises(TooLarge):
        M.pair_betti_table(X, 1, 2, max_states=100)
    assert not X.cache
