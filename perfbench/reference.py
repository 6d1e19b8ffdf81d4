"""Reference computations made apart from qlnc.

Everything here works on plain network documents (the JSON form that
`qlnc.files` reads) and on Python integers, so none of it shares code or
integer width with the library under test:

- `composite` and `propagate`: forward classical propagation of a network;
- `oracle_amplitudes`: the target state sum_x psi_x |Mx>;
- `is_injective`: rank of M modulo each prime p | d;
- `solve_block_B`: Gaussian elimination over GF(p) plus CRT, deciding
  whether a block-diagonal B with M^T B M = 1 exists for squarefree d;
- small helpers that check a claimed left inverse or B by multiplication.
"""

from __future__ import annotations

import numpy as np


def prime_factors(d):
    """Distinct primes dividing d, ascending."""
    out = []
    p = 2
    while p * p <= d:
        if d % p == 0:
            out.append(p)
            while d % p == 0:
                d //= p
        p += 1
    if d > 1:
        out.append(d)
    return out


def is_squarefree(d):
    out = 1
    for p in prime_factors(d):
        out *= p
    return out == d


def matmul(a, b, d):
    """Product of two integer matrices (lists of rows), reduced mod d."""
    cols = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) % d for col in cols] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def is_identity(a, d):
    return all(
        len(row) == len(a) and all(v % d == (i == j) for j, v in enumerate(row))
        for i, row in enumerate(a)
    )


# ----------------------------------------------------------------------
# classical propagation
# ----------------------------------------------------------------------


def _wiring(doc):
    """Feed tables and a topological order computed from the document."""
    feed = {}
    for i, (fn, fp, tn, tp) in enumerate(doc["links"]):
        feed[(tn, tp)] = ("link", i)
    for j, (n, p) in enumerate(doc["inputs"]):
        feed[(n, p)] = ("input", j)
    preds = {n["id"]: set() for n in doc["nodes"]}
    for fn, _fp, tn, _tp in doc["links"]:
        preds[tn].add(fn)
    order, done = [], set()
    while len(order) < len(preds):
        ready = [n for n in preds if n not in done and preds[n] <= done]
        if not ready:
            raise ValueError("network document has a cycle")
        for n in ready:
            order.append(n)
            done.add(n)
    return feed, order


def propagate(doc, x):
    """Output symbols of the network on input symbols x, in Python ints."""
    d = doc["d"]
    feed, order = _wiring(doc)
    mats = {n["id"]: n["matrix"] for n in doc["nodes"]}
    out_link = {(fn, fp): i for i, (fn, fp, _tn, _tp) in enumerate(doc["links"])}
    link_val = {}
    port_val = {}
    for nid in order:
        mat = mats[nid]
        ins = []
        for p in range(len(mat[0]) if mat else 0):
            kind, idx = feed[(nid, p)]
            ins.append(int(x[idx]) if kind == "input" else link_val[idx])
        for q, row in enumerate(mat):
            v = sum(int(a) * b for a, b in zip(row, ins)) % d
            port_val[(nid, q)] = v
            if (nid, q) in out_link:
                link_val[out_link[(nid, q)]] = v
    return [port_val[(n, p)] for n, p in doc["outputs"]]


def composite(doc):
    """The l x k composite map M, one propagation per unit input vector."""
    k = len(doc["inputs"])
    cols = [propagate(doc, [int(i == j) for i in range(k)]) for j in range(k)]
    return transpose(cols) if cols else [[] for _ in doc["outputs"]]


def counts(doc):
    """(k, m, l, nnz) of a network document."""
    d = doc["d"]
    nnz = sum(1 for n in doc["nodes"] for row in n["matrix"] for v in row if v % d)
    return len(doc["inputs"]), len(doc["links"]), len(doc["outputs"]), nnz


# ----------------------------------------------------------------------
# linear algebra over GF(p) and Z_d
# ----------------------------------------------------------------------


def _row_reduce(rows, ncols, p):
    """Reduced row echelon form over GF(p), in place; returns the pivot columns."""
    pivots = []
    for c in range(ncols):
        r0 = len(pivots)
        piv = next((r for r in range(r0, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[r0], rows[piv] = rows[piv], rows[r0]
        inv = pow(rows[r0][c], -1, p)
        rows[r0] = [v * inv % p for v in rows[r0]]
        for r in range(len(rows)):
            if r != r0 and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(v - f * w) % p for v, w in zip(rows[r], rows[r0])]
        pivots.append(c)
    return pivots


def rank_mod_p(a, p):
    """Rank of an integer matrix over GF(p) by Gaussian elimination."""
    rows = [[v % p for v in row] for row in a]
    return len(_row_reduce(rows, len(rows[0]) if rows else 0, p))


def is_injective(m, d):
    """x -> Mx is injective on Z_d^k iff M has rank k modulo every p | d."""
    k = len(m[0]) if m else 0
    return all(rank_mod_p(m, p) == k for p in prime_factors(d))


def solve_mod_p(a, b, p):
    """One solution x of a x = b over GF(p), or None."""
    ncols = len(a[0]) if a else 0
    rows = [[v % p for v in row] + [bv % p] for row, bv in zip(a, b)]
    pivots = _row_reduce(rows, ncols, p)
    if any(row[-1] for row in rows[len(pivots):]):
        return None
    x = [0] * ncols
    for r, c in enumerate(pivots):
        x[c] = rows[r][-1]
    return x


def crt(residues, moduli):
    """The x in [0, prod moduli) with x = r_i mod m_i (pairwise coprime m_i)."""
    x, n = 0, 1
    for r, m in zip(residues, moduli):
        t = (r - x) * pow(n, -1, m) % m
        x += n * t
        n *= m
    return x


def block_system(m, blocks):
    """The linear system in the block-supported entries of B for M^T B M = 1.

    Returns (support, rows, rhs) with one equation per entry (p, q) of
    M^T B M: sum over (i, j) in support of M[i][p] M[j][q] B[i][j] = [p == q].
    """
    c = len(m[0]) if m else 0
    support = [(i, j) for blk in blocks for i in blk for j in blk]
    rows, rhs = [], []
    for p in range(c):
        for q in range(c):
            rows.append([m[i][p] * m[j][q] for i, j in support])
            rhs.append(int(p == q))
    return support, rows, rhs


def solve_block_B(m, blocks, d):
    """A block-diagonal B with M^T B M = 1 over Z_d (d squarefree), or None."""
    if not is_squarefree(d):
        raise ValueError(f"GF(p)/CRT decides only squarefree moduli, got {d}")
    support, rows, rhs = block_system(m, blocks)
    primes = prime_factors(d)
    parts = []
    for p in primes:
        x = solve_mod_p(rows, rhs, p)
        if x is None:
            return None
        parts.append(x)
    values = [crt([part[i] for part in parts], primes) for i in range(len(support))]
    r = len(m)
    B = [[0] * r for _ in range(r)]
    for v, (i, j) in zip(values, support):
        B[i][j] = v
    return B


def is_block_diagonal(B, blocks):
    allowed = {(i, j) for blk in blocks for i in blk for j in blk}
    return all(
        v == 0 or (i, j) in allowed for i, row in enumerate(B) for j, v in enumerate(row)
    )


def is_left_inverse(a, m, d):
    """A M = 1 mod d, by multiplication in Python ints."""
    return is_identity(matmul(a, m, d), d)


def is_block_solution(B, m, blocks, d):
    """B is block-diagonal for `blocks` and M^T B M = 1 mod d."""
    return is_block_diagonal(B, blocks) and is_identity(
        matmul(matmul(transpose(m), B, d), m, d), d
    )


# ----------------------------------------------------------------------
# states
# ----------------------------------------------------------------------


def digits(index, d, n):
    """Base-d digits of index, most significant first."""
    out = [0] * n
    for i in range(n - 1, -1, -1):
        index, out[i] = divmod(index, d)
    return out


def oracle_amplitudes(m, d, psi):
    """Amplitudes of sum_x psi_x |Mx> on l output qudits (qudit 0 first)."""
    k = len(m[0]) if m else 0
    ell = len(m)
    out = np.zeros(d**ell, dtype=np.complex128)
    for idx, amp in enumerate(psi):
        if amp == 0:
            continue
        x = digits(idx, d, k)
        y = 0
        for row in m:
            y = y * d + sum(a * b for a, b in zip(row, x)) % d
        out[y] += amp
    return out


def overlap(a, b):
    """|<a|b>| / (|a| |b|): global-phase-insensitive fidelity."""
    return float(abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b)))
