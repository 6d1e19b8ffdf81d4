"""Cross-checks of the benchmark's references against brute force.

    python3 -m pytest perfbench/test_reference.py

Every case is small enough to enumerate: all vectors of Z_d^k, all
block-supported matrices B, all solutions over GF(p).
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import netgen  # noqa: E402
import reference as ref  # noqa: E402

MODULI = (2, 3, 4, 5, 6, 8, 9, 10, 12)


def _random_matrix(rng, rows, cols, d):
    return [[int(v) for v in row] for row in rng.integers(0, d, size=(rows, cols))]


def _brute_injective(m, d):
    k = len(m[0])
    images = set()
    for x in itertools.product(range(d), repeat=k):
        images.add(tuple(sum(a * b for a, b in zip(row, x)) % d for row in m))
    return len(images) == d**k


@pytest.mark.parametrize("d", MODULI)
def test_injectivity_matches_enumeration(d):
    rng = np.random.default_rng(d)
    seen = set()
    for _ in range(60):
        rows, cols = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        m = _random_matrix(rng, rows, cols, d)
        expect = _brute_injective(m, d)
        seen.add(expect)
        assert ref.is_injective(m, d) == expect, m
    assert seen == {True, False}


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_solve_mod_p_matches_enumeration(p):
    rng = np.random.default_rng(p)
    for _ in range(40):
        rows, cols = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a = _random_matrix(rng, rows, cols, p)
        b = [int(v) for v in rng.integers(0, p, size=rows)]
        solvable = any(
            all(sum(x * y for x, y in zip(row, xs)) % p == bv for row, bv in zip(a, b))
            for xs in itertools.product(range(p), repeat=cols)
        )
        x = ref.solve_mod_p(a, b, p)
        assert (x is not None) == solvable
        if x is not None:
            assert all(sum(u * v for u, v in zip(row, x)) % p == bv for row, bv in zip(a, b))


def test_crt_matches_enumeration():
    for moduli in ((2, 3), (2, 5), (2, 3, 5), (3, 7)):
        n = int(np.prod(moduli))
        for x in range(n):
            assert ref.crt([x % m for m in moduli], list(moduli)) == x


def _brute_block_B(m, blocks, d):
    support = [(i, j) for blk in blocks for i in blk for j in blk]
    r = len(m)
    for values in itertools.product(range(d), repeat=len(support)):
        B = [[0] * r for _ in range(r)]
        for v, (i, j) in zip(values, support):
            B[i][j] = v
        if ref.is_identity(ref.matmul(ref.matmul(ref.transpose(m), B, d), m, d), d):
            return B
    return None


@pytest.mark.parametrize("d", (2, 3, 5, 6))
def test_block_B_matches_enumeration(d):
    rng = np.random.default_rng(100 + d)
    partitions = {2: [[[0], [1]], [[0, 1]]], 3: [[[0], [1], [2]], [[0, 1], [2]]]}
    outcomes = set()
    for _ in range(25):
        rows = int(rng.integers(2, 4))
        cols = int(rng.integers(1, min(rows, 2) + 1))
        m = _random_matrix(rng, rows, cols, d)
        for blocks in partitions[rows]:
            if sum(len(b) ** 2 for b in blocks) > 5 and d > 3:
                continue  # keep the enumeration below d^5 candidates
            expect = _brute_block_B(m, blocks, d)
            got = ref.solve_block_B(m, blocks, d)
            outcomes.add(expect is not None)
            assert (got is not None) == (expect is not None), (m, blocks)
            if got is not None:
                assert ref.is_block_solution(got, m, blocks, d)
    assert outcomes == {True, False}


def test_block_B_refuses_non_squarefree():
    with pytest.raises(ValueError):
        ref.solve_block_B([[1]], [[0]], 4)


def test_butterfly_composites():
    for d in (2, 3, 5):
        assert ref.composite(netgen.butterfly_swap(d)) == [[0, 1], [1, 0]]
        assert ref.composite(netgen.butterfly_multicast(d)) == [[1, 0], [0, 1], [1, 0], [0, 1]]
        assert ref.composite(netgen.identity_wire(d)) == [[1]]


@pytest.mark.parametrize("d", (2, 3, 4, 6))
def test_composite_agrees_with_propagation_of_every_input(d):
    rng = np.random.default_rng(200 + d)
    shapes = ([(1, 0, 2), (1, 0, 1), (0, 2, 2)], [(2, 0, 2), (0, 1, 2), (0, 2, 1)])
    for shape in shapes:
        doc = netgen.random_dag(rng, d, shape)
        M = ref.composite(doc)
        k = len(doc["inputs"])
        for x in itertools.product(range(d), repeat=k):
            assert ref.propagate(doc, list(x)) == [
                sum(a * b for a, b in zip(row, x)) % d for row in M
            ]
        assert ref.is_injective(M, d)
        assert _brute_injective(M, d)


@pytest.mark.parametrize("d", (2, 3, 4))
def test_layered_networks_are_invertible(d):
    rng = np.random.default_rng(300 + d)
    doc = netgen.layered(rng, d, 4, 3)
    M = ref.composite(doc)
    assert len(M) == len(M[0]) == 4
    assert _brute_injective(M, d)


def test_oracle_matches_isometry_matrix():
    rng = np.random.default_rng(7)
    d = 3
    doc = netgen.random_dag(rng, d, [(1, 0, 2), (1, 0, 1), (0, 2, 2)])
    M = ref.composite(doc)
    k, ell = len(M[0]), len(M)
    iso = np.zeros((d**ell, d**k))
    for col, x in enumerate(itertools.product(range(d), repeat=k)):
        y = [sum(a * b for a, b in zip(row, x)) % d for row in M]
        iso[int("".join(map(str, y)), d), col] = 1
    psi = netgen.haar_amplitudes(rng, d, k)
    assert np.allclose(ref.oracle_amplitudes(M, d, psi), iso @ psi)
    assert ref.overlap(iso @ psi, ref.oracle_amplitudes(M, d, psi) * 1j) == pytest.approx(1.0)


def test_left_inverse_check():
    assert ref.is_left_inverse([[0, 1, 0, 0], [1, 0, 0, 0]], [[0, 1], [1, 0], [1, 0], [0, 1]], 3)
    assert not ref.is_left_inverse([[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 1], [1, 0], [1, 0], [0, 1]], 3)
