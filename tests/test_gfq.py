"""GF(q) linear algebra: worked values plus randomized structural checks."""
import copy
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpp_lab import gfq
from cpp_lab.complexes import two_squares_complex
from cpp_lab.errors import NonPrimeModulus, ZeroInverse
from dense_reference import boundary_matrix, kernel_basis


def brute_inverse(a, q):
    for b in range(1, q):
        if (a * b) % q == 1:
            return b
    raise AssertionError(f"no inverse of {a} mod {q}")


def test_inverse_worked_values():
    assert gfq.fq_inv(1, 5) == 1
    assert gfq.fq_inv(2, 5) == brute_inverse(2, 5) == 3
    assert gfq.fq_inv(4, 7) == brute_inverse(4, 7) == 2


def test_inverse_errors():
    with pytest.raises(ZeroInverse):
        gfq.fq_inv(0, 5)
    with pytest.raises(NonPrimeModulus):
        gfq.require_prime(4)
    with pytest.raises(NonPrimeModulus):
        gfq.require_prime(1)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_field_axioms_exhaustive(q):
    els = range(q)
    for a in els:
        assert (a + 0) % q == a and (a * 1) % q == a
        if a:
            assert (a * gfq.fq_inv(a, q)) % q == 1
        for b in els:
            assert (a + b) % q == (b + a) % q
            assert (a * b) % q == (b * a) % q
            for c in els:
                assert (a * ((b + c) % q)) % q == ((a * b) + (a * c)) % q


def test_rref_trivial_cases():
    empty = gfq.rref(np.zeros((0, 0), dtype=int), 5)
    assert empty.rank == 0 and empty.pivot_cols == ()
    eye = gfq.rref(np.eye(4, dtype=int), 7)
    assert eye.rank == 4
    assert np.array_equal(eye.matrix, np.eye(4, dtype=int))


def test_rref_boundary_matrix_rank():
    fx = two_squares_complex()
    for q in (2, 3, 5):
        assert gfq.rref(boundary_matrix(fx, 1), q).rank == 5


def test_kernel_of_boundary_matrix_matches_stated_span():
    fx = two_squares_complex()
    q = 5
    d1 = boundary_matrix(fx, 1) % q
    basis = kernel_basis(d1, q)
    assert basis.shape[0] == 2
    span_check = [
        [1, 1, 1, 1, 0, 0, 0],     # e1+e2+e3+e4
        [0, 0, 1, 0, -1, -1, -1],  # e3-e5-e6-e7
    ]
    for vec in span_check:
        stacked = np.vstack([basis, np.array(vec) % q])
        assert gfq.rref(stacked, q).rank == 2


def test_kernel_trivial_cases():
    assert kernel_basis(np.eye(3, dtype=int), 3).shape == (0, 3)
    zero = kernel_basis(np.zeros((3, 3), dtype=int), 3)
    assert zero.shape == (3, 3)
    assert gfq.rref(zero, 3).rank == 3


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("q", [2, 3, 5])
def test_rank_nullity_and_kernel_on_random_matrices(seed, q):
    rng = np.random.default_rng((seed, q))
    rows, cols = rng.integers(1, 9, size=2)
    m = rng.integers(0, q, size=(rows, cols))
    red = gfq.rref(m, q)
    basis = kernel_basis(m, q)
    assert red.rank + basis.shape[0] == cols
    for v in basis:
        assert not ((m @ v) % q).any()
    # row space is preserved: every original row reduces to zero
    for row in m:
        assert not gfq.reduce_vector(red, row, q).any()


@pytest.mark.parametrize("seed", range(8))
def test_gf2_bit_path_agrees_with_generic(seed):
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(1, 12, size=2)
    m = rng.integers(0, 2, size=(rows, cols))
    bit_rows = [gfq.vector_to_bits(r) for r in m]
    pivots = gfq.gf2_ref_bits(bit_rows)
    assert len(pivots) == gfq.rref(m, 2).rank
    assert cols - len(pivots) == kernel_basis(m, 2).shape[0]
    # membership: the rows themselves reduce to zero against their echelon form
    for r in bit_rows:
        assert gfq.gf2_residual_bits(pivots, r) == 0


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 12, 6084])
def test_bit_reverse_moves_bit_k_to_n_minus_1_minus_k(n):
    rng = random.Random(n)
    for _ in range(5):
        bits = rng.getrandbits(n)
        rev = gfq.bit_reverse(bits, n)
        assert rev < 1 << n
        assert gfq.bit_reverse(rev, n) == bits
        assert gfq.bit_ids(rev) == sorted(n - 1 - k for k in gfq.bit_ids(bits))
        assert gfq.bit_reverse(bits | 1 << n, n) == rev


def bitsets_of_length(n: int):
    """Random bitsets whose bit length is exactly n."""
    top = 1 << n >> 1
    return st.integers(0, max(top - 1, 0)).map(lambda low: low | top)


# the lengths around the switch to numpy, and a 12^3 box's plaquettes
@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from([0, 1, 127, 128, 129, 5616]).flatmap(bitsets_of_length),
                 st.integers(0, (1 << 6000) - 1)))
@example((1 << 127) - 1)
@example((1 << 128) - 1)
@example((1 << 129) - 1)
def test_bit_ids_match_the_string_walk(bits):
    ids = gfq.bit_ids(bits)
    assert ids == [k for k, c in enumerate(reversed(bin(bits))) if c == "1"]
    assert all(type(k) is int for k in ids)


def _reversed_rows(m):
    """Rows of a 0/1 matrix as bitsets with column j at bit cols-1-j."""
    cols = m.shape[1]
    return [gfq.bit_reverse(gfq.vector_to_bits(r), cols) for r in m]


@pytest.mark.parametrize("seed", range(8))
def test_gf2_top_bit_pivots_of_reversed_rows_are_rref_pivot_cols(seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(0, 2, size=tuple(rng.integers(1, 12, size=2)))
    cols = m.shape[1]
    pivots = gfq.gf2_ref_bits(_reversed_rows(m))
    assert sorted(cols - 1 - k for k in pivots) == list(gfq.rref(m, 2).pivot_cols)


def _assert_kernel_samples_are_dense_kernel_stream(m, rng, draws):
    cols = m.shape[1]
    pivots = gfq.gf2_ref_bits(_reversed_rows(m))
    basis = kernel_basis(m, 2)
    for _ in range(draws):
        clone = copy.deepcopy(rng)
        x = gfq.gf2_kernel_sample(pivots, (1 << cols) - 1, rng)
        f = gfq.bits_to_vector(gfq.bit_reverse(x, cols), cols)
        expected = np.zeros(cols, dtype=np.int64)
        if basis.shape[0]:
            expected = clone.integers(0, 2, size=basis.shape[0]) @ basis % 2
        assert np.array_equal(f, expected)
        assert rng.bit_generator.state == clone.bit_generator.state


@pytest.mark.parametrize("seed", range(8))
def test_gf2_kernel_sample_of_reversed_rows_is_dense_kernel_stream(seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(0, 2, size=tuple(rng.integers(1, 12, size=2)))
    _assert_kernel_samples_are_dense_kernel_stream(m, rng, 5)


@pytest.mark.parametrize("shape", [(5, 63), (5, 64), (40, 70), (90, 130), (130, 90)])
def test_gf2_kernel_sample_keeps_the_stream_on_both_sides_of_64_columns(shape):
    rng = np.random.default_rng(sum(shape))
    _assert_kernel_samples_are_dense_kernel_stream(rng.integers(0, 2, size=shape), rng, 3)


@pytest.mark.parametrize("seed", range(4))
def test_gf2_kernel_sample_lies_in_kernel(seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(0, 2, size=(6, 9))
    bit_rows = [gfq.vector_to_bits(r) for r in m]
    pivots = gfq.gf2_ref_bits(bit_rows)
    for _ in range(20):
        x = gfq.gf2_kernel_sample(pivots, (1 << 9) - 1, rng)
        v = gfq.bits_to_vector(x, 9)
        assert not ((m @ v) % 2).any()


def test_bits_vector_round_trip():
    rng = random.Random(0)
    for _ in range(30):
        n = rng.randint(1, 80)
        bits = rng.getrandbits(n)
        assert gfq.vector_to_bits(gfq.bits_to_vector(bits, n)) == bits
