"""Shared test utilities: brute-force oracles and a random network generator.

The brute-force and rank-mod-p routines deliberately avoid the library's
ring solvers so they can serve as independent cross-checks.
"""

from __future__ import annotations

import itertools

import numpy as np

from qlnc.network import CodingNetwork, NodeSpec, validate
from qlnc.ring import RingMatrix, is_injective
from qlnc.network import composite_map


def brute_kernel(m: RingMatrix):
    """All vectors x with m @ x = 0, by exhaustive enumeration (d^cols <= 4096)."""
    assert m.d**m.cols <= 4096
    kernel = []
    for x in itertools.product(range(m.d), repeat=m.cols):
        if not m.mul_vec(np.asarray(x)).any():
            kernel.append(x)
    return kernel


def brute_injective(m: RingMatrix) -> bool:
    return len(brute_kernel(m)) == 1 if m.cols else True


def brute_left_inverse_1x1(m: RingMatrix):
    """Exhaustive search over the d candidate 1x1 left inverses."""
    assert m.rows == m.cols == 1
    for a in range(m.d):
        if (a * int(m.a[0, 0])) % m.d == 1:
            return RingMatrix([[a]], m.d)
    return None


def prime_factors(d):
    ps, p = [], 2
    while p * p <= d:
        if d % p == 0:
            ps.append(p)
            while d % p == 0:
                d //= p
        p += 1
    return ps + [d] if d > 1 else ps


def full_column_rank_mod_p(rows, p):
    """Whether the integer matrix `rows` has full column rank over GF(p),
    by Gaussian elimination in Python ints."""
    a = [[x % p for x in row] for row in rows]
    cols = len(a[0]) if a else 0
    for c in range(cols):
        piv = next((r for r in range(c, len(a)) if a[r][c]), None)
        if piv is None:
            return False
        a[c], a[piv] = a[piv], a[c]
        inv = pow(a[c][c], -1, p)
        for r in range(c + 1, len(a)):
            if a[r][c]:
                f = a[r][c] * inv % p
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[c])]
    return True


def injective_by_rank(m: RingMatrix) -> bool:
    """m is injective over Z_d iff it has full column rank mod every prime p | d."""
    rows = m.a.tolist()
    return all(full_column_rank_mod_p(rows, p) for p in prime_factors(m.d))


def dense_f(d, inverse=False):
    x, r = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    sign = -1 if inverse else 1
    return np.exp(sign * 2j * np.pi * x * r / d) / np.sqrt(d)


def dense_x(d, power=1):
    m = np.zeros((d, d), dtype=np.complex128)
    for q in range(d):
        m[(q + power) % d, q] = 1
    return m


def dense_z(d, power=1):
    return np.diag(np.exp(2j * np.pi * power * np.arange(d) / d))


def dense_cx(d, power=1):
    m = np.zeros((d * d, d * d), dtype=np.complex128)
    for c in range(d):
        for t in range(d):
            m[c * d + (t + power * c) % d, c * d + t] = 1
    return m


def dense_cz(d, power=1):
    diag = [np.exp(2j * np.pi * power * a * b / d) for a in range(d) for b in range(d)]
    return np.diag(diag)


def random_ring_matrix(rng, rows, cols, d):
    return RingMatrix(rng.integers(0, d, size=(rows, cols)), d)


def random_network(
    rng,
    d,
    max_nodes=5,
    max_links=6,
    max_ports=2,
    size_cap=None,
    require_injective=False,
    max_tries=200,
):
    """A random valid coding network, optionally with injective composite map.

    size_cap bounds k + m + l (inputs + links + outputs) to keep state-vector
    simulation within memory for larger d.
    """
    if size_cap is None:
        size_cap = {2: 12, 3: 10, 5: 7}.get(d, 8)
    for _ in range(max_tries):
        net = _draw_network(rng, d, max_nodes, max_links, max_ports, size_cap,
                            require_injective)
        if net is None:
            continue
        assert validate(net) == []
        if require_injective and not is_injective(composite_map(net)):
            continue
        return net
    raise RuntimeError("could not draw a suitable random network")


def _draw_network(rng, d, max_nodes, max_links, max_ports, size_cap, want_inj):
    n = int(rng.integers(1, max_nodes + 1))
    names = [f"N{i}" for i in range(n)]
    links = []
    for j in range(1, n):
        links.append((int(rng.integers(0, j)), j))
    extra = int(rng.integers(0, max_links + 1))
    for _ in range(extra):
        if n < 2 or len(links) >= max_links:
            break
        i = int(rng.integers(0, n - 1))
        j = int(rng.integers(i + 1, n))
        links.append((i, j))
    links = links[:max_links]

    indeg = [0] * n
    outdeg = [0] * n
    link_specs = []
    for i, j in links:
        link_specs.append((names[i], outdeg[i], names[j], indeg[j]))
        outdeg[i] += 1
        indeg[j] += 1

    inputs = []
    for i in range(n):
        if indeg[i] == 0:
            want = int(rng.integers(1, max_ports + 1))
            for _ in range(want):
                inputs.append((names[i], indeg[i]))
                indeg[i] += 1
    outputs = []
    for i in range(n):
        if outdeg[i] == 0:
            want = int(rng.integers(1, max_ports + 1))
            for _ in range(want):
                outputs.append((names[i], outdeg[i]))
                outdeg[i] += 1
    if want_inj and len(outputs) < len(inputs):
        node, _ = outputs[-1] if outputs else (names[-1], 0)
        i = names.index(node)
        while len(outputs) < len(inputs):
            outputs.append((names[i], outdeg[i]))
            outdeg[i] += 1

    if len(inputs) + len(links) + len(outputs) > size_cap:
        return None

    nodes = []
    for i in range(n):
        mat = random_ring_matrix(rng, outdeg[i], indeg[i], d)
        if want_inj:
            # nudge towards full rank: ensure no all-zero row or column
            a = mat.a.copy()
            for r in range(a.shape[0]):
                if not a[r].any():
                    a[r, rng.integers(0, a.shape[1])] = 1 + rng.integers(0, d - 1)
            for c in range(a.shape[1]):
                if not a[:, c].any():
                    a[rng.integers(0, a.shape[0]), c] = 1 + rng.integers(0, d - 1)
            mat = RingMatrix(a, d)
        nodes.append(NodeSpec(names[i], mat))
    return CodingNetwork(d, nodes, link_specs, inputs, outputs)
