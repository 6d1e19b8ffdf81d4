"""Exact Z_d linear algebra, cross-checked against brute force."""

import itertools
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlnc.ring import (
    RingMatrix,
    ShapeError,
    find_block_diagonal_B,
    is_injective,
    left_inverse,
    solve_modular,
)
from qlnc.ring import _diagonalize

from helpers import (
    brute_injective,
    brute_left_inverse_1x1,
    injective_by_rank,
    random_ring_matrix,
)


def test_entries_reduced_on_construction():
    m = RingMatrix([[-1, 5], [7, -4]], 3)
    assert m.tolist() == [[2, 2], [1, 2]]


def test_mat_mul_identity():
    i2 = RingMatrix.identity(2, 5)
    assert (i2 @ i2) == i2


def test_mat_mul_hand_example_d2():
    a = RingMatrix([[1], [1]], 2)
    b = RingMatrix([[1, 1]], 2)
    assert (a @ b).tolist() == [[1, 1], [1, 1]]


def test_mat_mul_hand_example_d3():
    t1 = RingMatrix([[1, 0], [-1, 1]], 3)
    v2 = RingMatrix([[1], [1]], 3)
    assert (t1 @ v2).tolist() == [[1], [0]]


def test_mat_mul_exact_for_moduli_beyond_int64_products():
    d = 2**40 + 15  # (d-1)**2 overflows int64
    a = RingMatrix([[d - 1, d - 2]], d)
    b = RingMatrix([[d - 1], [d - 3]], d)
    assert (a @ b).tolist() == [[7]]
    assert a.mul_vec([d - 1, d - 3]).tolist() == [7]


def test_mat_mul_shape_and_modulus_errors():
    with pytest.raises(ShapeError):
        RingMatrix.identity(2, 3) @ RingMatrix.identity(3, 3)
    with pytest.raises(ShapeError):
        RingMatrix.identity(2, 3) @ RingMatrix.identity(2, 5)


@given(
    d=st.sampled_from([2, 3, 4, 5, 6]),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_matmul_associative(d, seed):
    rng = np.random.default_rng(seed)
    a = random_ring_matrix(rng, 2, 3, d)
    b = random_ring_matrix(rng, 3, 2, d)
    c = random_ring_matrix(rng, 2, 2, d)
    assert ((a @ b) @ c) == (a @ (b @ c))


def test_is_injective_identity_and_zero_divisor():
    for d in (2, 3, 4, 5, 6):
        assert is_injective(RingMatrix.identity(3, d))
    assert not is_injective(RingMatrix([[2]], 4))


def test_is_injective_butterfly_multicast():
    m = RingMatrix([[1, 0], [0, 1], [1, 0], [0, 1]], 2)
    assert is_injective(m)
    assert brute_injective(m)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_is_injective_matches_brute_force(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(30):
        cols = int(rng.integers(1, 4))
        if d**cols > 4096:
            cols = 1
        rows = int(rng.integers(cols, cols + 3))
        m = random_ring_matrix(rng, rows, cols, d)
        assert is_injective(m) == brute_injective(m)


def test_left_inverse_permutation_is_transpose():
    p = RingMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 5)
    a = left_inverse(p)
    assert a is not None
    assert (a @ p).is_identity()
    assert a == p.T


def test_left_inverse_butterfly_multicast_d3():
    m = RingMatrix([[1, 0], [0, 1], [1, 0], [0, 1]], 3)
    a = left_inverse(m)
    assert a is not None
    assert (a @ m).is_identity()


def test_left_inverse_absent_for_zero_divisor():
    assert left_inverse(RingMatrix([[2]], 4)) is None
    assert brute_left_inverse_1x1(RingMatrix([[2]], 4)) is None


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_injective_iff_left_inverse(d):
    rng = np.random.default_rng(200 + d)
    for _ in range(30):
        cols = int(rng.integers(1, 4))
        rows = int(rng.integers(cols, cols + 3))
        m = random_ring_matrix(rng, rows, cols, d)
        a = left_inverse(m)
        if is_injective(m):
            assert a is not None and (a @ m).is_identity()
        else:
            assert a is None


def test_solve_modular_roundtrip():
    rng = np.random.default_rng(7)
    for d in (2, 3, 4, 6, 9):
        for _ in range(20):
            rows, cols = rng.integers(1, 5, size=2)
            A = random_ring_matrix(rng, int(rows), int(cols), d)
            x = rng.integers(0, d, size=int(cols))
            b = A.mul_vec(x)
            sol = solve_modular(A, b)
            assert sol is not None
            assert np.array_equal(A.mul_vec(sol), b)


def test_solvers_exact_on_1000_random_composite_systems():
    # sizes and moduli at which integer-lift transforms outgrow 64 bits
    rng = np.random.default_rng(6006)
    bad = []
    for trial in range(1000):
        d = int(rng.choice([4, 6, 9, 10, 12, 30]))
        rows, cols = int(rng.integers(4, 13)), int(rng.integers(3, 13))
        A = random_ring_matrix(rng, rows, cols, d)
        b = A.mul_vec(rng.integers(0, d, size=cols))
        x = solve_modular(A, b)
        if x is None or not np.array_equal(A.mul_vec(x), b):
            bad.append((trial, "solve", d, A.tolist(), b.tolist()))
        injective = injective_by_rank(A)
        if is_injective(A) != injective:
            bad.append((trial, "is_injective", d, A.tolist()))
        L = left_inverse(A)
        if (L is not None) != injective or (L is not None and not (L @ A).is_identity()):
            bad.append((trial, "left_inverse", d, A.tolist()))
    assert not bad, bad[:3]


def test_diagonalize_is_exact_and_invertible():
    rng = np.random.default_rng(77)
    for _ in range(200):
        d = int(rng.choice([2, 4, 6, 9, 12, 30, 2**61 - 1]))
        rows, cols = (int(v) for v in rng.integers(1, 9, size=2))
        a = np.array(
            [[int(rng.integers(0, 2**62)) % d for _ in range(cols)] for _ in range(rows)],
            dtype=object,
        )
        U, D, V = _diagonalize(a, d)
        assert ((np.array(U, dtype=object) @ a @ np.array(V, dtype=object)) % d
                == np.array(D, dtype=object)).all()
        assert all(D[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
        assert all(0 <= x < d for M in (U, D, V) for row in M for x in row)
        for T in (U, V):
            assert gcd(_det(T), d) == 1


def _det(rows):
    """Integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def test_solve_modular_none_iff_brute_force_finds_no_solution():
    rng = np.random.default_rng(8)
    for _ in range(200):
        d = int(rng.choice([4, 6, 8, 9, 12]))
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        A = random_ring_matrix(rng, rows, cols, d)
        b = rng.integers(0, d, size=rows)
        reach = {tuple(A.mul_vec(np.asarray(v)).tolist())
                 for v in itertools.product(range(d), repeat=cols)}
        x = solve_modular(A, b)
        assert (x is not None) == (tuple(b.tolist()) in reach)
        if x is not None:
            assert np.array_equal(A.mul_vec(x), b)


def test_solve_modular_unsolvable():
    A = RingMatrix([[2]], 4)
    assert solve_modular(A, [1]) is None


def test_block_diagonal_identity_singletons():
    m = RingMatrix.identity(3, 7)
    B = find_block_diagonal_B(m, [[0], [1], [2]])
    assert B == RingMatrix.identity(3, 7)


def test_block_diagonal_swap_singletons():
    # for the swap permutation the only solution of M^T B M = 1 with
    # singleton blocks is B = identity (multiplication is the oracle)
    m = RingMatrix([[0, 1], [1, 0]], 5)
    B = find_block_diagonal_B(m, [[0], [1]])
    assert B is not None
    assert (m.T @ B @ m).is_identity()
    assert B == RingMatrix.identity(2, 5)


def test_block_diagonal_absent():
    assert find_block_diagonal_B(RingMatrix([[2]], 4), [[0]]) is None
    # injective but no block-diagonal solution over singleton blocks
    m = RingMatrix([[1, 0], [1, 1]], 2)
    assert is_injective(m)
    assert find_block_diagonal_B(m, [[0], [1]]) is None
    assert find_block_diagonal_B(m, [[0, 1]]) is not None


def test_block_diagonal_support_respected():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = int(rng.choice([2, 3, 5]))
        m = random_ring_matrix(rng, 4, 2, d)
        blocks = [[0, 1], [2, 3]]
        B = find_block_diagonal_B(m, blocks)
        if B is None:
            continue
        assert (m.T @ B @ m).is_identity()
        for i in (0, 1):
            for j in (2, 3):
                assert B.a[i, j] == 0 and B.a[j, i] == 0


def test_block_diagonal_bad_partition_rejected():
    with pytest.raises(ValueError):
        find_block_diagonal_B(RingMatrix.identity(2, 3), [[0]])
