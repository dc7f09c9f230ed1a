"""Torus duality: parameter involution, state bijection, exact equality."""
import random
from fractions import Fraction

import pytest

from cpp_lab import duality as D
from cpp_lab import measures as M
from cpp_lab.complexes import PercSubcomplex, build_box, build_torus
from cpp_lab.errors import DegenerateParameter, NotATorus


def test_dual_params_worked_values():
    p = M.ModelParams.from_p(2, 0, Fraction(1, 3), Fraction(1, 2))
    dual = D.dual_params(p, 2)
    assert dual.p2 == Fraction(2, 3)  # q(1-p1)/(p1 + q(1-p1)) at q=2, p1=1/2
    assert dual.i == 1
    # p1 = 1 dualizes to p2 = 0
    p_full = M.ModelParams.from_p(2, 0, Fraction(1, 2), 1)
    assert D.dual_params(p_full, 2).p2 == 0


def test_dual_params_involution():
    p = M.ModelParams(q=3, i=1, k2=Fraction(5, 2), k1=Fraction(1, 3))
    d1 = D.dual_params(p, 3)
    back = D.dual_params(d1, 3)
    assert back.k2 == p.k2
    assert back.k1 == p.k1
    assert back.i == p.i


def test_self_dual_line_in_three_dimensions():
    # d=3, i=1: k2 k1 = q swaps the parameters into each other
    q = 2
    k2 = Fraction(4, 3)
    k1 = Fraction(q) / k2
    p = M.ModelParams(q=q, i=1, k2=k2, k1=k1)
    dual = D.dual_params(p, 3)
    assert dual.i == 1
    assert dual.k2 == k2 and dual.k1 == k1


def test_dual_params_degenerate_at_p_zero():
    p = M.ModelParams(q=2, i=0, k2=0, k1=1)
    with pytest.raises(DegenerateParameter):
        D.dual_params(p, 2)


def test_dual_state_counts_and_dims():
    X = build_torus(2, 2)
    P2 = PercSubcomplex.from_ids(X, 1, [0, 1, 2])  # i = 0: edges
    P1 = PercSubcomplex.from_ids(X, 0, [0, 3])     # vertices
    Q2, Q1 = D.dual_state(P2, P1)
    assert Q2.dim == 2 and Q2.count == 2  # duals of the two closed vertices
    assert Q1.dim == 1 and Q1.count == 5  # duals of the five closed edges
    full = (PercSubcomplex.full(X, 1), PercSubcomplex.full(X, 0))
    Q2, Q1 = D.dual_state(*full)
    assert Q2.count == 0 and Q1.count == 0


def test_dual_state_involution_up_to_translation():
    X = build_torus(2, 3)
    rnd = random.Random(3)
    for _ in range(20):
        P2 = PercSubcomplex(X, 1, rnd.getrandbits(X.num_cells(1)))
        P1 = PercSubcomplex(X, 0, rnd.getrandbits(X.num_cells(0)))
        Q2, Q1 = D.dual_state(P2, P1)
        R2, R1 = D.dual_state(Q2, Q1)
        # double dual translates every cell by -1 in each coordinate
        shift = (1,) * X.d
        back2 = {X.cell_id(X.translate(X.cells(R2.dim)[i], shift))
                 for i in R2.open_ids()}
        assert back2 == set(P2.open_ids())
        back1 = {X.cell_id(X.translate(X.cells(R1.dim)[i], shift))
                 for i in R1.open_ids()}
        assert back1 == set(P1.open_ids())


@pytest.mark.parametrize("q,k2,k1", [(2, 1, 1), (2, 1, 2), (3, 3, 1)])
def test_duality_exact_on_small_torus(q, k2, k1):
    X = build_torus(2, 2)
    p = M.ModelParams(q=q, i=0, k2=k2, k1=k1)
    assert D.verify_duality_exact(p, X) == 0


def test_fixed_point_of_the_parameter_map():
    # k2 k1 = q is the fixed line of k2' = q/k1, k1' = q/k2; at such a
    # point the dual measure carries the same parameter pair (in the dual
    # dimension) and the exact state-level identity still holds.
    X = build_torus(2, 2)
    p = M.ModelParams(q=2, i=0, k2=2, k1=1)
    dual = D.dual_params(p, 2)
    assert dual.k2 == p.k2
    assert dual.k1 == p.k1
    assert dual.i == 1
    assert D.verify_duality_exact(p, X) == 0


def test_duality_exact_requires_torus():
    p = M.ModelParams(q=2, i=0, k2=1, k1=1)
    with pytest.raises(NotATorus):
        D.verify_duality_exact(p, build_box(2, [2, 2]))


def test_duality_report_fields():
    X = build_torus(2, 2)
    p = M.ModelParams(q=2, i=0, k2=1, k1=2)
    report = D.duality_report(p, X)
    assert report["max_discrepancy"] == "0"
    assert report["states_checked"] == 1 << 12
    assert report["dual_params"]["i"] == 1


def test_duality_mc_smoke():
    X = build_torus(3, 2)
    p = M.ModelParams.from_p(2, 1, Fraction(2, 5), Fraction(1, 2))
    report = D.verify_duality_mc(p, X, n_samples=4000, burn_in=100, seed=7)
    assert report["max_z"] <= 4.0
