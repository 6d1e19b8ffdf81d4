"""Exact linear algebra over the cyclic ring Z_d.

Matrices are stored with entries reduced into [0, d).  Because Z_d has zero
divisors for composite d, rank questions are settled through the Smith
normal form of the integer lift rather than Gaussian elimination: a map is
injective mod d exactly when it has full column rank over the integers and
every invariant factor is a unit mod d.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from math import gcd

import numpy as np

__all__ = [
    "RingMatrix",
    "smith_normal_form",
    "is_injective",
    "left_inverse",
    "solve_modular",
    "find_block_diagonal_B",
]


class ShapeError(ValueError):
    """Dimension or modulus mismatch between operands."""


class RingMatrix:
    """Dense matrix over Z_d.

    Parameters
    ----------
    entries : array-like of int, shape (rows, cols)
        Arbitrary integers; reduced mod d on construction.
    d : int
        Modulus, at least 2.
    """

    __slots__ = ("a", "d")

    def __init__(self, entries, d):
        if d < 2:
            raise ValueError(f"modulus must be >= 2, got {d}")
        a = np.asarray(entries, dtype=np.int64)
        if a.ndim != 2:
            raise ShapeError(f"expected a 2-d array, got shape {a.shape}")
        self.a = a % d
        self.a.flags.writeable = False
        self.d = int(d)

    @classmethod
    def zeros(cls, rows, cols, d):
        return cls(np.zeros((rows, cols), dtype=np.int64), d)

    @classmethod
    def identity(cls, n, d):
        return cls(np.eye(n, dtype=np.int64), d)

    @property
    def rows(self):
        return self.a.shape[0]

    @property
    def cols(self):
        return self.a.shape[1]

    def __matmul__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if self.d != other.d:
            raise ShapeError(f"modulus mismatch: {self.d} vs {other.d}")
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return RingMatrix(_matmul_mod(self.a, other.a, self.d), self.d)

    def __add__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if self.d != other.d or self.a.shape != other.a.shape:
            raise ShapeError("shape or modulus mismatch in addition")
        return RingMatrix(self.a + other.a, self.d)

    def __neg__(self):
        return RingMatrix(-self.a, self.d)

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return self.d == other.d and self.a.shape == other.a.shape and bool(
            np.array_equal(self.a, other.a)
        )

    def __hash__(self):
        return hash((self.d, self.a.shape, self.a.tobytes()))

    def __repr__(self):
        return f"RingMatrix({self.a.tolist()}, d={self.d})"

    @property
    def T(self):
        return RingMatrix(self.a.T, self.d)

    def mul_vec(self, v):
        """Matrix-vector product mod d; accepts and returns 1-d int arrays."""
        v = np.asarray(v, dtype=np.int64) % self.d
        if v.shape != (self.cols,):
            raise ShapeError(f"vector length {v.shape} does not match cols {self.cols}")
        return _matmul_mod(self.a, v, self.d)

    def is_identity(self):
        return self.rows == self.cols and bool(
            np.array_equal(self.a, np.eye(self.rows, dtype=np.int64))
        )

    def nnz(self):
        return int(np.count_nonzero(self.a))

    def tolist(self):
        return self.a.tolist()


_INT64_MAX = np.iinfo(np.int64).max


def _matmul_mod(a, b, d):
    """a @ b mod d; in Python integers when an int64 sum of products of
    entries in [0, d) could overflow, so the result is never wrapped."""
    if (d - 1) ** 2 * a.shape[-1] > _INT64_MAX:
        return ((a.astype(object) @ b.astype(object)) % d).astype(np.int64)
    return (a @ b) % d


def smith_normal_form(matrix):
    """Smith normal form of an integer matrix, with transforms.

    Returns (U, D, V) with U @ matrix @ V == D, U and V unimodular over the
    integers, and D diagonal with each diagonal entry dividing the next.
    Uses exact Python integers, so intermediate growth cannot overflow.
    """
    A = [[int(x) for x in row] for row in np.asarray(matrix, dtype=object)]
    n = len(A)
    m = len(A[0]) if n else 0
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    V = [[int(i == j) for j in range(m)] for i in range(m)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row[dst] += c * row[src]
        A[dst] = [x + c * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def add_col(src, dst, c):
        for row in A:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    # Minimal-pivot strategy: always work with the smallest nonzero entry of
    # the trailing block and reduce one remainder at a time.  Each pass either
    # strictly shrinks that minimum or clears the pivot cross exactly, which
    # keeps intermediate entries tame (swap-based Euclid cascades blow up).
    t = 0
    while t < min(n, m):
        pivot = None
        best = None
        for i in range(t, n):
            for j in range(t, m):
                v = abs(A[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        p = A[t][t]

        # a single remainder step, then re-select the (now smaller) pivot
        reduced = False
        for i in range(t + 1, n):
            if A[i][t] % p:
                add_row(t, i, -(A[i][t] // p))
                reduced = True
                break
        if not reduced:
            for j in range(t + 1, m):
                if A[t][j] % p:
                    add_col(t, j, -(A[t][j] // p))
                    reduced = True
                    break
        if reduced:
            continue

        # the pivot divides its whole row and column: clear them exactly
        for i in range(t + 1, n):
            if A[i][t]:
                add_row(t, i, -(A[i][t] // p))
        for j in range(t + 1, m):
            if A[t][j]:
                add_col(t, j, -(A[t][j] // p))

        # make the pivot divide every entry of the trailing block
        fix = None
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if A[i][j] % p:
                    fix = i
                    break
            if fix is not None:
                break
        if fix is not None:
            add_row(fix, t, 1)
            continue

        if A[t][t] < 0:
            negate_row(t)
        t += 1

    D = [[A[i][j] for j in range(m)] for i in range(n)]
    return U, D, V


def _invariant_factors(matrix):
    _, D, _ = smith_normal_form(matrix)
    k = min(len(D), len(D[0]) if D else 0)
    return [D[i][i] for i in range(k) if D[i][i] != 0]


def is_injective(m: RingMatrix) -> bool:
    """True iff m @ x = m @ y implies x = y over Z_d^cols."""
    if m.cols == 0:
        return True
    factors = _invariant_factors(m.a)
    if len(factors) < m.cols:
        return False
    return all(gcd(f, m.d) == 1 for f in factors)


def left_inverse(m: RingMatrix):
    """A left inverse A with A @ m == identity mod d, or None.

    Built from the Smith decomposition of the integer lift: with
    U m V = D and every invariant factor a unit mod d, the matrix
    V D⁺ U reduced mod d inverts m from the left.  The result is
    re-verified by multiplication before being returned.
    """
    d = m.d
    U, D, V = smith_normal_form(m.a)
    k = min(m.rows, m.cols)
    diag = [D[i][i] for i in range(k)]
    if len(diag) < m.cols or any(gcd(x, d) != 1 for x in diag[: m.cols]):
        return None
    pinv = np.zeros((m.cols, m.rows), dtype=np.int64)
    for i in range(m.cols):
        pinv[i, i] = pow(diag[i] % d, -1, d)
    Va = np.asarray(V, dtype=np.int64) % d
    Ua = np.asarray(U, dtype=np.int64) % d
    A = RingMatrix((Va @ pinv % d) @ Ua, d)
    if not (A @ m).is_identity():
        return None
    return A


def solve_modular(A: RingMatrix, b) -> np.ndarray | None:
    """One solution x of A @ x = b over Z_d, or None if unsolvable.

    Diagonalizes the integer lift (U A V = D) and solves each scalar
    congruence D_ii * y_i = (U b)_i mod d.
    """
    d = A.d
    b = np.asarray(b, dtype=np.int64) % d
    if b.shape != (A.rows,):
        raise ShapeError(f"rhs length {b.shape} does not match rows {A.rows}")
    U, D, V = smith_normal_form(A.a)
    Ub = (np.asarray(U, dtype=np.int64) @ b) % d
    y = np.zeros(A.cols, dtype=np.int64)
    k = min(A.rows, A.cols)
    for i in range(A.rows):
        s = D[i][i] % d if i < k else 0
        c = int(Ub[i])
        if s == 0:
            if c % d != 0:
                return None
            continue
        g = gcd(s, d)
        if c % g != 0:
            return None
        dd = d // g
        y[i] = (c // g) * pow((s // g) % dd, -1, dd) % dd if dd > 1 else 0
    x = (np.asarray(V, dtype=np.int64) @ y) % d
    return x


def find_block_diagonal_B(m: RingMatrix, blocks):
    """Block-diagonal B with mᵀ @ B @ m = identity, or None.

    `blocks` partitions the row indices of m; B may only be nonzero inside
    the square blocks the partition induces.  The constraint mᵀ B m = 1 is
    linear in the block-supported entries of B, so it is handed to the
    modular solver; any solution is verified by multiplication.
    """
    d = m.d
    r, c = m.rows, m.cols
    seen = sorted(i for blk in blocks for i in blk)
    if seen != list(range(r)):
        raise ValueError("blocks must partition the row indices of m")
    support = [(i, j) for blk in blocks for i in blk for j in blk]
    if not support:
        return RingMatrix.zeros(r, r, d) if c == 0 else None
    # (mᵀ B m)[p, q] = sum over supported (i, j) of m[i, p] m[j, q] B[i, j]
    rows = []
    rhs = []
    for p in range(c):
        for q in range(c):
            rows.append([int(m.a[i, p]) * int(m.a[j, q]) % d for (i, j) in support])
            rhs.append(1 if p == q else 0)
    system = RingMatrix(np.asarray(rows, dtype=np.int64), d)
    x = solve_modular(system, np.asarray(rhs, dtype=np.int64))
    if x is None:
        return None
    B = np.zeros((r, r), dtype=np.int64)
    for val, (i, j) in zip(x, support):
        B[i, j] = val
    B = RingMatrix(B, d)
    if not (m.T @ B @ m).is_identity():
        return None
    return B
