"""Loops, Wilson variables, perimeter, and the MF ratio arithmetic."""
import math
import random

import pytest

from cpp_lab.complexes import Chain, PercSubcomplex, build_box, build_torus
from cpp_lab.errors import DegenerateDenominator, DoesNotFit
from cpp_lab.observables import (Estimate, mf_ratio, open_count_observable, perimeter,
                                 rect_loop, wilson_observable)
from helpers import chain_boundary


def test_rect_loop_shape_and_halves():
    X = build_box(2, [4, 4])
    fam = rect_loop(2, 2, X, 2)
    assert perimeter(fam.gamma) == 8
    assert perimeter(fam.gamma_prime) == 4
    assert perimeter(fam.gamma_double_prime) == 4
    assert (fam.gamma_prime + fam.gamma_double_prime).coeffs == fam.gamma.coeffs
    assert chain_boundary(X, fam.gamma).coeffs == ()


def test_rect_loop_half_boundaries_are_the_corner_points():
    X = build_box(3, [4, 4, 1])
    fam = rect_loop(4, 3, X, 5)
    bdry = chain_boundary(X, fam.gamma_prime)
    x_id = X.cell_id(fam.x_corner)
    y_id = X.cell_id(fam.y_corner)
    assert bdry.as_dict() == {x_id: 1, y_id: 5 - 1}  # x_n - y_n
    bdry2 = chain_boundary(X, fam.gamma_double_prime)
    assert bdry2.as_dict() == {x_id: 5 - 1, y_id: 1}


def test_rect_loop_fits_checks():
    with pytest.raises(DoesNotFit):
        rect_loop(6, 2, build_box(2, [4, 4]), 2)
    with pytest.raises(DoesNotFit):
        rect_loop(3, 2, build_box(2, [4, 4]), 2)  # odd side
    with pytest.raises(DoesNotFit):
        rect_loop(2, 2, build_torus(2, 2), 2)  # needs period > n


def test_rect_loop_rectangular_flag():
    X = build_box(2, [6, 4])
    fam = rect_loop(2, 2, X, 2, width=6)
    assert perimeter(fam.gamma) == 2 * (6 + 2)
    assert (fam.gamma_prime + fam.gamma_double_prime).coeffs == fam.gamma.coeffs


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_wilson_observable_returns_wilson_real_exactly(q):
    """W~ is the mean of cos(2 pi m f(gamma) / q) over m in Z_q^*; at q = 2
    it is the Wilson variable itself, exactly +-1."""
    rnd = random.Random(61 + q)
    for _ in range(40):
        gamma = Chain.build(1, q, {rnd.randrange(8): rnd.randrange(1, q) for _ in range(3)})
        f = [rnd.randrange(q) for _ in range(8)]
        value = wilson_observable(gamma, q)(f, None, None)
        c = gamma.evaluate(f)
        mean = sum(math.cos(2 * math.pi * m * c / q) for m in range(1, q)) / (q - 1)
        assert abs(value - mean) < 1e-12
        if q == 2:
            assert value == (1.0 if c == 0 else -1.0)


def test_open_count_observable_shares_one_float_per_count():
    X = build_box(2, [2, 2])
    P1 = PercSubcomplex.from_ids(X, 1, [0, 5])
    obs2, obs1 = open_count_observable("P2"), open_count_observable("P1")
    first = obs2(None, PercSubcomplex.from_ids(X, 2, [0, 3]), P1)
    again = obs2(None, PercSubcomplex.from_ids(X, 2, [1, 2]), P1)
    assert type(first) is float and first == 2.0
    assert again is first
    assert obs2(None, PercSubcomplex.empty(X, 2), P1) == 0.0
    assert obs1(None, PercSubcomplex.empty(X, 2), P1) == 2.0


def test_perimeter_counts_support_not_coefficients():
    assert perimeter(Chain.zero(1, 3)) == 0
    assert perimeter(Chain.build(1, 3, {5: 2})) == 1
    X = build_box(2, [4, 4])
    assert perimeter(rect_loop(2, 2, X, 2).gamma) == 8


def test_mf_ratio_values_and_errors():
    one = Estimate(mean=0.5, std_err=0.01, n_samples=100)
    res = mf_ratio(one, one)
    assert res.mean == pytest.approx(0.5)
    est = mf_ratio(Estimate(0.25, 0.0, 10), Estimate(0.5, 0.0, 10))
    assert est.mean == pytest.approx(1.0) and est.std_err == 0
    with pytest.raises(DegenerateDenominator):
        mf_ratio(Estimate(0.01, 0.02, 10), Estimate(0.5, 0.01, 10))


def test_mf_ratio_tends_to_one_in_strong_field():
    # with p1 near 1 both V-events are almost sure
    from cpp_lab import measures as M
    from fractions import Fraction
    X = build_box(2, [2, 2])
    p = M.ModelParams(q=2, i=1, k2=1, k1=10 ** 4)
    fam = rect_loop(2, 2, X, 2)
    full = M.exact_wilson(p, X, fam.gamma).rhs
    half = M.exact_wilson(p, X, fam.gamma_prime).rhs
    assert full > Fraction(99, 100) and half > Fraction(99, 100)
    assert abs(half * half / full - 1) < Fraction(1, 100)


def test_mf_ratio_exact_oracle_instance():
    # tiny exact values: ratio of exact rationals carries no error bars
    from cpp_lab import measures as M
    from cpp_lab.complexes import build_box
    X = build_box(2, [2, 2])
    p = M.ModelParams(q=2, i=1, k2=1, k1=1)
    fam = rect_loop(2, 2, X, 2)
    full = M.exact_wilson(p, X, fam.gamma).rhs
    half = M.exact_wilson(p, X, fam.gamma_prime).rhs
    ratio = half * half / full
    assert ratio > 0
    est = mf_ratio(Estimate(float(full), 0.0, 1), Estimate(float(half), 0.0, 1))
    assert est.mean == pytest.approx(float(ratio))
