"""Exact linear algebra over the cyclic ring Z_d.

Matrices are stored with entries reduced into [0, d).  Because Z_d has zero
divisors for composite d, rank questions are settled by diagonalizing over
Z_d itself rather than by Gaussian elimination over a field: invertible row
and column operations (extended-gcd steps where a pivot does not divide an
entry) bring a matrix to diagonal form with every entry kept in [0, d), and
a map is injective mod d exactly when it has at least as many rows as
columns and its first `cols` diagonal entries are units mod d.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from math import gcd

import numpy as np

__all__ = [
    "RingMatrix",
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


def _divide(a, b, d):
    """Some q with a*q == b mod d, or None if a does not divide b in Z_d."""
    g = gcd(a, d)
    if b % g:
        return None
    dd = d // g
    return (b // g) * pow(a // g, -1, dd) % dd


def _eliminator(a, b, d):
    """Coefficients (s, t, u, v) of a 2x2 transform of determinant 1 that
    takes (a, b) to (g, 0) mod d; a in [1, d) is the pivot."""
    q = _divide(a, b, d)
    if q is not None:
        return 1, 0, -q % d, 1
    # a does not divide b in Z_d, so g = gcd(a, b) shares strictly fewer
    # factors with d than a does; at most log2(d) such steps per pivot
    g = gcd(a, b)
    s = pow(a // g, -1, b // g)  # s*a + t*b == g
    t = (g - s * a) // b
    return s % d, t % d, -(b // g) % d, (a // g) % d


def _mix(x, y, s, t, u, v, d):
    """The pair of lines (s x + t y, u x + v y) mod d."""
    if (s, t, v) == (1, 0, 1):
        return x, [(q + u * p) % d for p, q in zip(x, y)]
    return (
        [(s * p + t * q) % d for p, q in zip(x, y)],
        [(u * p + v * q) % d for p, q in zip(x, y)],
    )


def _pivot(A, t, d):
    """Position of the trailing entry sharing the fewest factors with d."""
    best, at = d, None
    for i in range(t, len(A)):
        for j in range(t, len(A[i])):
            x = A[i][j]
            if x:
                g = gcd(x, d)
                if g < best:
                    best, at = g, (i, j)
                    if g == 1:
                        return at
    return at


def _diagonalize(a, d, lines):
    """(U @ lines, D, V) with U @ a @ V == D mod d, U and V invertible mod d
    and D diagonal, as lists of rows of Python ints in [0, d).

    The row operations act on the n given `lines` in place of U's rows, so
    a caller carries only what it reads: left_inverse passes the identity
    rows and gets U itself, solve_modular passes its right-hand side as n
    lines of one entry, where U would be n lines of n, and is_injective
    passes n empty lines.

    Elimination over the principal ideal ring Z_d itself (as in the Howell
    form, Storjohann & Mulders 1998): every entry stays in [0, d) at every
    step, so nothing grows or overflows at any size or modulus.  A unit
    pivot clears its column, then its row, in one sweep of subtractions
    scaled by its inverse; its column being clear by then, the row sweep
    changes only the pivot row and V.  Any other pivot clears an entry it
    divides in Z_d with one subtraction, and one it does not divide with a
    determinant-1 extended-gcd transform.  At prime d every pivot is a unit
    and this is Gaussian elimination.  The diagonal carries no divisibility
    chain; only which of its entries are units is used.
    """
    n, m = a.shape
    A = (np.asarray(a) % d).tolist()
    U = lines
    Vt = [[0] * i + [1] + [0] * (m - i - 1) for i in range(m)]  # columns of V
    for t in range(min(n, m)):
        at = _pivot(A, t, d)
        if at is None:
            break
        i, j = at
        A[t], A[i] = A[i], A[t]
        U[t], U[i] = U[i], U[t]
        if j != t:
            for row in A:
                row[t], row[j] = row[j], row[t]
            Vt[t], Vt[j] = Vt[j], Vt[t]
        if gcd(A[t][t], d) == 1:
            inv = pow(A[t][t], -1, d)
            for i in range(t + 1, n):
                if A[i][t]:
                    u = -A[i][t] * inv % d
                    A[i] = [(y + u * x) % d for x, y in zip(A[t], A[i])]
                    U[i] = [(y + u * x) % d for x, y in zip(U[t], U[i])]
            for j in range(t + 1, m):
                if A[t][j]:
                    u = -A[t][j] * inv % d
                    Vt[j] = [(y + u * x) % d for x, y in zip(Vt[t], Vt[j])]
                    A[t][j] = 0
            continue
        while True:
            for i in range(t + 1, n):
                if A[i][t]:
                    k = _eliminator(A[t][t], A[i][t], d)
                    A[t], A[i] = _mix(A[t], A[i], *k, d)
                    U[t], U[i] = _mix(U[t], U[i], *k, d)
            for j in range(t + 1, m):
                if A[t][j]:
                    k = _eliminator(A[t][t], A[t][j], d)
                    col_t, col_j = _mix([r[t] for r in A], [r[j] for r in A], *k, d)
                    for r, x, y in zip(A, col_t, col_j):
                        r[t], r[j] = x, y
                    Vt[t], Vt[j] = _mix(Vt[t], Vt[j], *k, d)
            # a gcd step on the columns can refill the pivot's column
            if not any(A[i][t] for i in range(t + 1, n)):
                break
    return U, A, [list(col) for col in zip(*Vt)]


def is_injective(m: RingMatrix) -> bool:
    """True iff m @ x = m @ y implies x = y over Z_d^cols.

    That holds exactly when m has at least as many rows as columns and
    the first `cols` diagonal entries of its diagonalization over Z_d are
    units.
    """
    if m.cols == 0:
        return True
    if m.rows < m.cols:
        return False
    _, D, _ = _diagonalize(m.a, m.d, [[] for _ in range(m.rows)])
    return all(gcd(D[i][i], m.d) == 1 for i in range(m.cols))


def left_inverse(m: RingMatrix):
    """A left inverse A with A @ m == identity mod d, or None.

    From the diagonalization U m V = D over Z_d: when the first `cols`
    diagonal entries are units, A = V D⁺ U with D⁺ their inverses inverts
    m from the left.  The result is re-verified by multiplication before
    being returned.
    """
    d, r, c = m.d, m.rows, m.cols
    if r < c:
        return None
    U, D, V = _diagonalize(m.a, d, [[0] * i + [1] + [0] * (r - i - 1) for i in range(r)])
    if any(gcd(D[i][i], d) != 1 for i in range(c)):
        return None
    DU = [[pow(D[i][i], -1, d) * x % d for x in U[i]] for i in range(c)]
    A = []
    for row in V:  # row of V D⁺ U, one scaled row of D⁺ U at a time
        acc = [0] * r
        for v, w in zip(row, DU):
            if v:
                acc = [a + v * x for a, x in zip(acc, w)]
        A.append([a % d for a in acc])
    A = RingMatrix(np.asarray(A, dtype=np.int64).reshape(c, r), d)
    if not (A @ m).is_identity():
        return None
    return A


def solve_modular(A: RingMatrix, b) -> np.ndarray | None:
    """One solution x of A @ x = b over Z_d, or None if unsolvable.

    Diagonalizes A over Z_d (U A V = D) and solves each scalar congruence
    D_ii * y_i = (U b)_i mod d; then x = V y.  U itself is never formed:
    b rides through the row operations as one column, so a tall system
    of n rows carries n entries beside it, not an n×n transform.
    """
    d = A.d
    b = np.asarray(b, dtype=np.int64) % d
    if b.shape != (A.rows,):
        raise ShapeError(f"rhs length {b.shape} does not match rows {A.rows}")
    Ub, D, V = _diagonalize(A.a, d, [[x] for x in b.tolist()])
    k = min(A.rows, A.cols)
    y = [0] * A.cols
    for i, (ub,) in enumerate(Ub):
        q = _divide(D[i][i] if i < k else 0, ub, d)
        if q is None:
            return None
        if i < k:
            y[i] = q
    return np.asarray([sum(v * x for v, x in zip(row, y)) % d for row in V], dtype=np.int64)


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
    if c == 0:
        # mᵀ B m is the 0×0 identity whatever B is
        return RingMatrix.zeros(r, r, d)
    support = [(i, j) for blk in blocks for i in blk for j in blk]
    if not support:
        return None
    # (mᵀ B m)[p, q] = sum over supported (i, j) of m[i, p] m[j, q] B[i, j],
    # each product in Python ints
    cols = m.a.T.tolist()
    rows = [[cp[i] * cq[j] % d for i, j in support] for cp in cols for cq in cols]
    rhs = [int(p == q) for p in range(c) for q in range(c)]
    x = solve_modular(RingMatrix(np.asarray(rows, dtype=np.int64), d), rhs)
    if x is None:
        return None
    B = [[0] * r for _ in range(r)]
    for val, (i, j) in zip(x.tolist(), support):
        B[i][j] = val
    B = RingMatrix(B, d)
    if not (m.T @ B @ m).is_identity():
        return None
    return B
