"""Exact Z_d linear algebra, cross-checked against brute force."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlnc.ring import (
    RingMatrix,
    ShapeError,
    find_block_diagonal_B,
    is_injective,
    left_inverse,
    smith_normal_form,
    solve_modular,
)

from helpers import brute_injective, brute_left_inverse_1x1, random_ring_matrix


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


def test_smith_normal_form_stays_exact_at_size():
    # larger blocks with wide entry range; swap-heavy elimination orders can
    # blow intermediate entries up catastrophically, so keep this in the net
    rng = np.random.default_rng(5150)
    for _ in range(60):
        rows, cols = rng.integers(1, 8, size=2)
        a = rng.integers(-60, 61, size=(rows, cols))
        U, D, V = smith_normal_form(a)
        Um = np.array(U, dtype=object)
        Vm = np.array(V, dtype=object)
        Dm = np.array(D, dtype=object)
        assert (Um @ a.astype(object) @ Vm == Dm).all()
        diag = [Dm[i, i] for i in range(min(int(rows), int(cols)))]
        for x, y in zip(diag, diag[1:]):
            assert not (x == 0 and y != 0)
            if y != 0:
                assert y % x == 0


def test_smith_normal_form_reconstructs():
    rng = np.random.default_rng(11)
    for _ in range(40):
        rows, cols = rng.integers(1, 5, size=2)
        a = rng.integers(-6, 7, size=(rows, cols))
        U, D, V = smith_normal_form(a)
        Um = np.array(U, dtype=object)
        Vm = np.array(V, dtype=object)
        Dm = np.array(D, dtype=object)
        assert (Um @ a.astype(object) @ Vm == Dm).all()
        diag = [Dm[i, i] for i in range(min(rows, cols))]
        for x, y in zip(diag, diag[1:]):
            if y != 0:
                assert x != 0 and y % x == 0
        # off-diagonal must vanish
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert Dm[i, j] == 0
        # transforms are unimodular
        assert abs(round(float(np.linalg.det(np.array(U, dtype=float))))) == 1
        assert abs(round(float(np.linalg.det(np.array(V, dtype=float))))) == 1


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
