"""Weyl operators and their transport through the teleportation gadget."""

import numpy as np
import pytest

from qlnc.states import QuditState, fidelity
from qlnc.weyl import (
    NonCliffordError,
    PauliProduct,
    WeylLabel,
    conjugate_weyl_through,
    fdagger_gadget,
    fdagger_gadget_branch_matrix,
    weyl_matrix,
)

from helpers import DenseRegister, dense_cz, dense_f, dense_x


def test_weyl_matrix_basics():
    for d in (2, 3, 5):
        assert np.allclose(weyl_matrix(d, 0, 0), np.eye(d))
        X = weyl_matrix(d, 1, 0)
        Z = weyl_matrix(d, 0, 1)
        w = np.exp(2j * np.pi / d)
        # Z X = w X Z
        assert np.allclose(Z @ X, w * (X @ Z))


def test_gadget_branch_equals_inverse_fourier():
    for d in (2, 3, 4, 5):
        F_dag = dense_f(d, inverse=True)
        for r in range(d):
            E = fdagger_gadget_branch_matrix(d, r)
            # isometry and equality with F^dag up to a global phase
            assert np.allclose(E.conj().T @ E, np.eye(d), atol=1e-10)
            overlap = np.trace(F_dag.conj().T @ E) / d
            assert abs(abs(overlap) - 1.0) < 1e-10, (d, r)


def test_gadget_teleports_states():
    rng = np.random.default_rng(17)
    for d in (2, 3, 4, 5):
        for _ in range(20):
            psi = QuditState.haar_random(d, 1, rng)
            expected = QuditState(1, d, dense_f(d, inverse=True) @ psi.psi)
            for r in range(d):
                reg = DenseRegister(psi, ["v"])
                reg.add(["w"], "plus")
                reg.gate(dense_cz(d, d - 1), "v", "w")
                assert reg.measure("v", force=r) == r
                reg.gate(dense_x(d, r), "w")
                assert fidelity(reg.state(["w"]), expected) >= 1 - 1e-9


def test_gadget_x_to_z_dagger():
    # phi X_v -> phi Z_w^-1 through the gadget, every outcome
    for d in (2, 3, 5):
        for r in range(d):
            label, site = conjugate_weyl_through(
                fdagger_gadget("v", "w", r), WeylLabel(1, 0), "v", d
            )
            assert site == "w"
            assert (label.a, label.b) == (0, (-1) % d)
            assert abs(label.phase - 1) < 1e-12


def test_gadget_z_to_x():
    for d in (2, 3, 5):
        for r in range(d):
            label, site = conjugate_weyl_through(
                fdagger_gadget("v", "w", r), WeylLabel(0, 1), "v", d
            )
            assert site == "w"
            assert (label.a, label.b) == (1, 0)
            assert abs(label.phase - 1) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_symbolic_matches_dense_conjugation(d):
    """The gadget acts by conjugation as F^dag: X^a Z^b -> w^-ab X^b Z^-a."""
    F_dag = dense_f(d, inverse=True)
    for a in range(d):
        for b in range(d):
            for r in range(d):
                label, site = conjugate_weyl_through(
                    fdagger_gadget("v", "w", r), WeylLabel(a, b), "v", d
                )
                assert site == ("w" if (a, b) != (0, 0) else None)
                got = label.phase * weyl_matrix(d, label.a, label.b)
                want = F_dag @ weyl_matrix(d, a, b) @ F_dag.conj().T
                assert np.max(np.abs(got - want)) < 1e-10, (d, a, b, r)
                # dense conjugation through the actual branch map agrees too
                E = fdagger_gadget_branch_matrix(d, r)
                via_branch = E @ weyl_matrix(d, a, b) @ E.conj().T
                assert np.max(np.abs(via_branch - want)) < 1e-10


def test_phase_prefactor_carried_through():
    d = 3
    phi = np.exp(2j * np.pi / 7)
    label, _site = conjugate_weyl_through(
        fdagger_gadget("v", "w", 1), WeylLabel(1, 2, phi), "v", d
    )
    # transported phase is phi times the reordering factor w^-ab
    expected = phi * np.exp(-2j * np.pi * 2 / 3)
    assert abs(label.phase - expected) < 1e-12


def test_double_gadget_is_f_squared_inverse():
    # chaining two gadgets conjugates by F^dag twice: X -> Z^-1 -> X^-1
    d = 5
    gadget = fdagger_gadget("v", "w", 2) + fdagger_gadget("w", "u", 3)
    label, site = conjugate_weyl_through(gadget, WeylLabel(1, 0), "v", d)
    assert site == "u"
    assert (label.a, label.b) == ((-1) % d, 0)


def _dense_gate(op, sites, d):
    import numpy as np

    from helpers import dense_cx, dense_cz, dense_x, dense_z

    n = len(sites)

    def lift_single(m, q):
        out = np.eye(1)
        for i in range(n):
            out = np.kron(out, m if i == q else np.eye(d))
        return out

    kind = op[0]
    if kind == "x":
        return lift_single(dense_x(d, op[2]), sites.index(op[1]))
    if kind == "z":
        return lift_single(dense_z(d, op[2]), sites.index(op[1]))
    if kind == "f":
        return lift_single(dense_f(d, inverse=op[2]), sites.index(op[1]))
    # two-qudit gates on adjacent-ordered registers via permutation lift
    a, b = sites.index(op[1]), sites.index(op[2])
    base = dense_cx(d, op[3]) if kind == "cx" else dense_cz(d, op[3])
    full = np.eye(d**n, dtype=complex)
    idx = [0] * n
    out = np.zeros((d**n, d**n), dtype=complex)
    for col in range(d**n):
        digits = [(col // d ** (n - 1 - i)) % d for i in range(n)]
        sub_col = digits[a] * d + digits[b]
        column = base[:, sub_col]
        for sub_row in range(d * d):
            amp = column[sub_row]
            if amp == 0:
                continue
            new = list(digits)
            new[a], new[b] = sub_row // d, sub_row % d
            row = 0
            for v in new:
                row = row * d + v
            out[row, col] += amp
    return out


@pytest.mark.parametrize("d", [2, 3, 5])
def test_symbolic_unitary_conjugation_matches_dense(d):
    # random Clifford words over three qudits, no measurements: the tracked
    # operator must equal the dense conjugation of the word, phase included
    import numpy as np

    rng = np.random.default_rng(31 + d)
    sites = ["q0", "q1", "q2"]
    for _trial in range(15):
        ops = []
        for _ in range(int(rng.integers(1, 7))):
            kind = rng.choice(["x", "z", "f", "cx", "cz"])
            if kind in ("x", "z"):
                ops.append((kind, sites[rng.integers(0, 3)], int(rng.integers(1, d))))
            elif kind == "f":
                ops.append(("f", sites[rng.integers(0, 3)], bool(rng.integers(0, 2))))
            else:
                a, b = rng.choice(3, size=2, replace=False)
                ops.append((kind, sites[a], sites[b], int(rng.integers(1, d))))
        a0, b0 = int(rng.integers(0, d)), int(rng.integers(0, d))
        carrier = sites[int(rng.integers(0, 3))]

        from qlnc.weyl import PauliProduct

        tracked = PauliProduct(d).factor(carrier, a0, b0)
        U = np.eye(d**3, dtype=complex)
        for op in ops:
            tracked.conjugate_gate(op)
            U = _dense_gate(op, sites, d) @ U
        got = np.eye(1, dtype=complex) * tracked.phase
        for s in sites:
            a, b = tracked.exps.get(s, (0, 0))
            got = np.kron(got, weyl_matrix(d, a, b))
        start = np.eye(1, dtype=complex)
        for s in sites:
            aa, bb = (a0, b0) if s == carrier else (0, 0)
            start = np.kron(start, weyl_matrix(d, aa, bb))
        want = U @ start @ U.conj().T
        assert np.max(np.abs(got - want)) < 1e-9, (d, ops)


def test_unsupported_gate_raises():
    with pytest.raises(NonCliffordError):
        conjugate_weyl_through(
            (("prep_plus", "w"), ("toffoli", "v", "w", 1)), WeylLabel(1, 0), "v", 2
        )


def test_unmatched_z_component_raises():
    # measuring with no preparation stabilizer available to cancel Z_v
    with pytest.raises(ValueError):
        conjugate_weyl_through((("measure_x", "v", 0),), WeylLabel(0, 1), "v", 3)


def _dense(product, site="q"):
    a, b = product.exps.get(site, (0, 0))
    return product.phase * weyl_matrix(product.d, a, b)


def test_power_matches_dense_matrix_power():
    # P^d = (-1)^(ab) at even d, so a power is not fixed by n mod d alone
    bad = []
    for d in range(2, 7):
        for a in range(d):
            for b in range(d):
                P = PauliProduct(d).factor("q", a, b)
                for n in range(2 * d + 1):
                    want = np.linalg.matrix_power(weyl_matrix(d, a, b), n)
                    if np.max(np.abs(_dense(P.power(n)) - want)) > 1e-9:
                        bad.append((d, a, b, n))
                # a product with itself squares, even when the square is I
                square = PauliProduct(d).factor("q", a, b)
                want = np.linalg.matrix_power(weyl_matrix(d, a, b), 2)
                if np.max(np.abs(_dense(square.times(square)) - want)) > 1e-9:
                    bad.append((d, a, b, "times"))
    assert not bad, f"{len(bad)} wrong powers, first {bad[:3]}"


def test_phase_stays_exact_over_long_words():
    # x / z conjugations of X Z only move its phase: Z^p adds p, X^p takes p
    d = 7
    rng = np.random.default_rng(5)
    kinds = rng.integers(0, 2, size=200_000)
    powers = rng.integers(1, d, size=200_000)
    P = PauliProduct(d).factor("q", 1, 1)
    k = 0
    for kind, p in zip(kinds.tolist(), powers.tolist()):
        P.conjugate_gate(("z" if kind else "x", "q", p))
        k += p if kind else -p
    assert P.exps == {"q": [1, 1]}
    assert P.phase == np.exp(2j * np.pi * (k % d) / d)
