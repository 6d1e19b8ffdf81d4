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
        U, D, V = _diagonalize(a, d, [[int(i == j) for j in range(rows)] for i in range(rows)])
        assert ((np.array(U, dtype=object) @ a @ np.array(V, dtype=object)) % d
                == np.array(D, dtype=object)).all()
        assert all(D[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
        assert all(0 <= x < d for M in (U, D, V) for row in M for x in row)
        for T in (U, V):
            assert gcd(_det(T), d) == 1
        # other lines ride through the same row operations: U @ lines
        lines = [[int(rng.integers(0, 2**62)) % d for _ in range(2)] for _ in range(rows)]
        Ul, Dl, Vl = _diagonalize(a, d, [list(x) for x in lines])
        assert (Dl, Vl) == (D, V)
        assert Ul == ((np.array(U, dtype=object) @ np.array(lines, dtype=object)) % d).tolist()
        assert _diagonalize(a, d, [[] for _ in range(rows)])[1:] == (D, V)


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


def test_block_diagonal_zero_columns_is_zero_matrix():
    # with no inputs, mᵀ B m is the 0×0 identity whatever B is
    for d, r, blocks in ((3, 1, [[0]]), (4, 3, [[0, 2], [1]]), (6, 0, [])):
        B = find_block_diagonal_B(RingMatrix(np.zeros((r, 0), dtype=np.int64), d), blocks)
        assert B == RingMatrix.zeros(r, r, d)


def _all_vectors(d, n):
    """Every vector of Z_d^n, one per row."""
    return np.array(list(itertools.product(range(d), repeat=n)), dtype=np.int64).reshape(d**n, n)


# (rows, cols) shapes: tall, square, wide and without columns
SOLVE_SHAPES = [(4, 2), (5, 1), (3, 3), (2, 3), (1, 3), (3, 0), (0, 2)]


@pytest.mark.parametrize("d", [4, 6, 8, 9, 12])
def test_solve_modular_matches_enumeration(d):
    rng = np.random.default_rng(900 + d)
    seen = set()
    for rows, cols in SOLVE_SHAPES:
        X = _all_vectors(d, cols)
        for trial in range(6):
            # low-rank and zero-divisor-heavy matrices make unsolvable systems likely
            A = RingMatrix(rng.integers(0, d, size=(rows, cols)) * int(rng.choice([1, 2, 3])), d)
            if trial % 2:
                b = A.mul_vec(X[rng.integers(len(X))])
            else:
                b = rng.integers(0, d, size=rows)
            reach = {tuple(v) for v in ((X @ A.a.T) % d).reshape(len(X), rows).tolist()}
            x = solve_modular(A, b)
            solvable = tuple(b.tolist()) in reach
            assert (x is not None) == solvable, (A.tolist(), b.tolist())
            if x is not None:
                assert x.shape == (cols,) and np.array_equal(A.mul_vec(x), b % d)
            seen.add((rows > cols, rows < cols, cols == 0, solvable))
    # tall, wide and zero-column systems, both solvable and unsolvable, all ran
    assert {(True, False, False, True), (True, False, False, False), (False, True, False, True),
            (False, True, False, False), (True, False, True, True),
            (True, False, True, False)} <= seen


# (rows of m, cols of m, row blocks), each small enough to enumerate every B
BLOCK_CASES = [
    (2, 1, [[0], [1]]),
    (2, 2, [[0], [1]]),
    (3, 2, [[0], [1], [2]]),
    (2, 2, [[0, 1]]),
    (3, 1, [[0, 2], [1]]),
    (2, 0, [[0], [1]]),
]


@pytest.mark.parametrize("d", [4, 6, 8, 9, 12])
def test_block_diagonal_B_matches_enumeration(d):
    rng = np.random.default_rng(950 + d)
    found = set()
    for r, c, blocks in BLOCK_CASES:
        support = [(i, j) for blk in blocks for i in blk for j in blk]
        if d ** len(support) > 5000:
            continue
        values = _all_vectors(d, len(support))
        Bs = np.zeros((len(values), r, r), dtype=np.int64)
        for k, (i, j) in enumerate(support):
            Bs[:, i, j] = values[:, k]
        for _ in range(5):
            m = RingMatrix(rng.integers(0, d, size=(r, c)), d)
            products = np.einsum("ip,nij,jq->npq", m.a, Bs, m.a) % d
            exists = bool((products == np.eye(c, dtype=np.int64)).all(axis=(1, 2)).any())
            B = find_block_diagonal_B(m, blocks)
            assert (B is not None) == exists, (m.tolist(), blocks)
            if B is not None:
                assert (m.T @ B @ m).is_identity()
                assert all(B.a[i, j] == 0 for i in range(r) for j in range(r)
                           if (i, j) not in support)
            found.add(exists)
    assert found == {True, False}
