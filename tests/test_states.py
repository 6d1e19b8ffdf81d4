"""Qudit state vectors, the conventions of the engine kernels that carry
them, checked against the dense matrices, and the dense register of the
reference replays."""

import numpy as np
import pytest

from qlnc.bundled import identity_wire
from qlnc.coherent import run_coherent
from qlnc.mbqc import _phase_rows, _weyl_rows
from qlnc.states import (
    IMPOSSIBLE_TOL,
    ImpossibleOutcomeError,
    QuditState,
    _phase_table,
    fidelity,
    fourier_matrix,
)

from helpers import DenseRegister, dense_cx, dense_cz, dense_f, dense_x, dense_z


def _weyl(state, op, q, power=1):
    """op^power ("X" or "Z") on qudit q through the engine's Weyl kernel."""
    d = state.d
    out = _weyl_rows(state._tensor()[None], op, 1 + q, np.array([power % d]), d)
    return QuditState(state.n, d, out[0], normalize_check=False)


def _cz(state, a, b, power=1):
    """cZ^power on qudits a and b on the dense register of the reference
    replays, whose port steps take it."""
    reg = DenseRegister(state, list(range(state.n)))
    reg.gate(dense_cz(state.d, power % state.d), a, b)
    return reg.state(list(range(state.n)))


def _measure(state, q):
    """The dense register's Fourier measurement of qudit q: the outcome
    probabilities and the d unnormalized children, qudit q dropped."""
    reg = DenseRegister(state, list(range(state.n)))
    reg.gate(dense_f(state.d, inverse=True), q)
    children = np.moveaxis(reg.t, q, 0)
    return np.array([np.vdot(c, c).real for c in children]), children


def _measure_form(state, form):
    """The engine's measurement of a qudit holding `form` of the qudits of
    `state`, an input-basis register: the outcome probabilities and the d
    unnormalized children over the inputs."""
    d = state.d
    children = np.empty((d,) + (d,) * state.n, dtype=np.complex128)
    return _phase_rows(form, d)(state._tensor()[None], d, children), children


# -- construction -------------------------------------------------------

def test_construction_refuses_a_wrong_length_or_norm():
    with pytest.raises(ValueError, match="expected 4 amplitudes, got 3"):
        QuditState(2, 2, [1, 0, 0])
    with pytest.raises(ValueError, match="norm"):
        QuditState(1, 2, [1, 1])


# -- X and Z: mbqc._weyl_rows --------------------------------------------

def test_x_shifts_basis():
    s = _weyl(QuditState.basis(3, [0]), "X", 0)
    assert fidelity(s, QuditState.basis(3, [1])) == pytest.approx(1.0)


def test_x_order_d():
    rng = np.random.default_rng(0)
    s = QuditState.haar_random(4, 2, rng)
    out = s
    for _ in range(4):
        out = _weyl(out, "X", 1)
    assert fidelity(out, s) == pytest.approx(1.0, abs=1e-12)


def test_plus_is_x_eigenvector():
    s = QuditState.plus(5)
    assert fidelity(_weyl(s, "X", 0), s) == pytest.approx(1.0)


def test_z_phase_on_one_d4():
    s = _weyl(QuditState.basis(4, [1]), "Z", 0)
    assert np.allclose(s.psi, 1j * QuditState.basis(4, [1]).psi)


def test_z_trivial_on_zero():
    s = _weyl(QuditState.basis(6, [0]), "Z", 0)
    assert np.allclose(s.psi, QuditState.basis(6, [0]).psi)


def test_z_order_d():
    rng = np.random.default_rng(1)
    s = QuditState.haar_random(5, 1, rng)
    out = s
    for _ in range(5):
        out = _weyl(out, "Z", 0)
    assert np.allclose(out.psi, s.psi)


def test_x_eigenvalue_on_fourier_states():
    # X |w_r> = w^{-r} |w_r> under the kernel w^{x r}; the often-quoted
    # +r sign belongs to the opposite outcome-labelling convention
    for d in range(2, 8):
        for r in range(d):
            s = QuditState(1, d, dense_f(d)[:, r])
            expected = np.exp(-2j * np.pi * r / d) * s.psi
            assert np.allclose(_weyl(s, "X", 0).psi, expected), (d, r)


# -- F: states.fourier_matrix and the shared tables ----------------------

def test_f_zero_gives_plus():
    for d in (2, 3, 4, 5, 7):
        assert np.allclose(fourier_matrix(d)[:, 0], QuditState.plus(d).psi)


def test_f_inverse_roundtrip():
    rng = np.random.default_rng(2)
    s = QuditState.haar_random(3, 2, rng)
    t = s._tensor()
    out = np.einsum("ab,xb->xa", fourier_matrix(3, inverse=True),
                    np.einsum("ab,xb->xa", fourier_matrix(3), t))
    assert np.allclose(out, t, atol=1e-12)


def test_f_one_at_d2():
    assert np.allclose(fourier_matrix(2) @ [0, 1], np.array([1, -1]) / np.sqrt(2))


def test_fourier_matrix_unitary():
    for d in (2, 3, 5, 7):
        F = fourier_matrix(d)
        assert np.allclose(F @ F.conj().T, np.eye(d))


# -- cZ: the dense register's, which the reference port steps take -------

def test_cz_symmetric_phase():
    s = _cz(QuditState.basis(2, [1, 1]), 0, 1)
    assert np.allclose(s.psi, -QuditState.basis(2, [1, 1]).psi)
    s2 = _cz(QuditState.basis(2, [1, 1]), 1, 0)
    assert np.allclose(s2.psi, s.psi)


def test_cz_zero_power_identity():
    rng = np.random.default_rng(4)
    s = QuditState.haar_random(3, 2, rng)
    assert np.allclose(_cz(s, 0, 1, power=0).psi, s.psi)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_cz_equals_fourier_conjugated_cx(d):
    F = dense_f(d)
    lhs = dense_cz(d)
    rhs = np.kron(np.eye(d), F) @ dense_cx(d) @ np.kron(np.eye(d), dense_f(d, inverse=True))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


# -- every kernel and shared table against the dense matrices ------------

@pytest.mark.parametrize("d", [2, 3, 4])
def test_gates_match_dense_matrices(d):
    rng = np.random.default_rng(5)
    s = QuditState.haar_random(d, 2, rng)
    full = s.psi
    eye = np.eye(d)
    checks = [
        (_weyl(s, "X", 0, 1).psi, np.kron(dense_x(d), eye) @ full),
        (_weyl(s, "Z", 1, 2).psi, np.kron(eye, dense_z(d, 2)) @ full),
        (_cz(s, 0, 1, 1).psi, dense_cz(d) @ full),
        (_cz(s, 1, 0, d - 1).psi, dense_cz(d, d - 1) @ full),
        (_measure(s, 0)[1], (np.kron(dense_f(d, inverse=True), eye) @ full).reshape(d, d)),
        (_measure(s, 1)[1], (np.kron(eye, dense_f(d, inverse=True)) @ full).reshape(d, d).T),
        (fourier_matrix(d), dense_f(d)),
        (fourier_matrix(d, inverse=True), dense_f(d, inverse=True)),
        (_phase_table(d), np.diag(dense_cz(d)).reshape(d, d)),
    ]
    for got, want in checks:
        assert np.allclose(got, want)


def test_gate_norm_preserved():
    rng = np.random.default_rng(6)
    s = QuditState.haar_random(3, 3, rng)
    out = _weyl(_weyl(_cz(s, 1, 2, 2), "X", 1, 2), "Z", 2, 1)
    assert np.linalg.norm(out.psi) == pytest.approx(1.0, abs=1e-9)
    p, children = _measure_form(out, (1, 2, 0))
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(children) == pytest.approx(1.0, abs=1e-9)


# -- the Fourier measurement: the dense register's and mbqc._phase_rows ---

def test_measure_plus_gives_zero():
    p, children = _measure(QuditState.plus(5), 0)
    assert np.allclose(p, [1, 0, 0, 0, 0])
    assert children.shape == (5,)


def test_measure_fourier_eigenstate_deterministic():
    p, _children = _measure(QuditState(1, 3, dense_f(3)[:, 2]), 0)  # |w_2>
    assert np.allclose(p, [0, 0, 1])


def test_measure_forced_impossible_rejected():
    # the kernel gives the outcome no weight, and the driver refuses to
    # force an outcome of zero weight
    p, _children = _measure(QuditState.plus(4), 0)  # |w_0>
    assert p[1] < IMPOSSIBLE_TOL
    zero = QuditState(1, 4, np.zeros(4), normalize_check=False)
    with pytest.raises(ImpossibleOutcomeError, match="forced outcome 1 on s1"):
        run_coherent(identity_wire(4), zero, forced=[1])


def test_measure_residual_phase_convention():
    # measuring the control of cX (|+>|0>) with outcome r leaves Z^-r |+>:
    # in the input basis, the target holds the form x of the input |+>
    for d in (2, 3, 4, 5, 6):
        p, children = _measure_form(QuditState.plus(d), (1,))
        for r in range(d):
            assert p[r] == pytest.approx(1 / d)
            post = QuditState(1, d, children[r] / np.sqrt(p[r]))
            expect = dense_z(d, -r) @ QuditState.plus(d).psi
            assert np.allclose(post.psi, expect), (d, r)


def test_measure_renormalizes():
    rng = np.random.default_rng(7)
    s = QuditState.haar_random(3, 2, rng)
    p, children = _measure_form(s, (1, 2))
    assert np.allclose(p, [np.vdot(c, c).real for c in children])
    for r in range(3):
        assert np.linalg.norm(children[r] / np.sqrt(p[r])) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("d", [4, 6, 12])
def test_phase_rows_match_the_dense_measurement(d):
    # a qudit holding f(x) = sum_j a_j x_j of the inputs, zero coefficients
    # and the zero form included: the engine's child r is c(x) w^(-r f(x)) /
    # sqrt(d), and so is the dense register's, with the qudit embedded by
    # cX^a_j from each input and then measured with outcome r
    rng = np.random.default_rng(d)
    for k in (1, 2, 3):
        state = QuditState.haar_random(d, k, rng)
        x = np.indices((d,) * k)
        for form in [tuple(rng.integers(0, d, k).tolist()) for _ in range(3)] + [(0,) * k]:
            p, children = _measure_form(state, form)
            f = sum(a * x[j] for j, a in enumerate(form)) % d
            reg = DenseRegister(state, list(range(k)))
            reg.add(["q"], "zero")
            for j, a in enumerate(form):
                if a:
                    reg.gate(dense_cx(d, a), j, "q")
            reg.gate(dense_f(d, inverse=True), "q")
            for r in range(d):
                want = state._tensor() * np.exp(-2j * np.pi * r * f / d) / np.sqrt(d)
                assert np.abs(children[r] - want).max() <= 1e-12
                assert np.abs(reg.t[..., r] - want).max() <= 1e-12
                assert p[r] == pytest.approx(1 / d, abs=1e-12)


# -- fidelity ------------------------------------------------------------

def test_fidelity_properties():
    rng = np.random.default_rng(9)
    s = QuditState.haar_random(3, 2, rng)
    assert fidelity(s, s) == pytest.approx(1.0)
    phased = QuditState(2, 3, np.exp(0.73j) * s.psi, normalize_check=False)
    assert fidelity(s, phased) == pytest.approx(1.0)
    assert fidelity(QuditState.basis(3, [0, 0]), QuditState.basis(3, [1, 0])) == 0.0


def test_fidelity_shape_mismatch():
    with pytest.raises(ValueError):
        fidelity(QuditState.basis(2, [0]), QuditState.basis(2, [0, 0]))


# -- the dense register of the reference replays --------------------------

def test_cx_on_basis():
    reg = DenseRegister(QuditState.basis(3, [1, 0]), ["c", "t"])
    reg.gate(dense_cx(3), "c", "t")
    assert fidelity(reg.state(["c", "t"]), QuditState.basis(3, [1, 1])) == pytest.approx(1.0)


def test_cx_zero_control_is_identity():
    rng = np.random.default_rng(3)
    target = QuditState.haar_random(4, 1, rng)
    joint = QuditState(2, 4, np.kron(QuditState.basis(4, [0]).psi, target.psi))
    reg = DenseRegister(joint, ["c", "t"])
    reg.gate(dense_cx(4), "c", "t")
    assert fidelity(reg.state(["c", "t"]), joint) == pytest.approx(1.0)


def test_cx_power_wraps_mod_d():
    reg = DenseRegister(QuditState.basis(5, [2, 1]), ["c", "t"])
    reg.gate(dense_cx(5, 2), "c", "t")
    assert fidelity(reg.state(["c", "t"]), QuditState.basis(5, [2, 0])) == pytest.approx(1.0)


def test_labeled_register_tracks_labels_through_removal():
    reg = DenseRegister(QuditState.basis(2, [1, 0, 1]), ["a", "b", "c"])
    reg.gate(dense_cx(2), "a", "b")
    assert fidelity(reg.state(["a", "b", "c"]), QuditState.basis(2, [1, 1, 1])) == pytest.approx(1.0)
    reg.gate(dense_f(2), "b")  # |w_1>
    assert reg.measure("b", force=1) == 1
    assert reg.labels == ["a", "c"]
    out = reg.state(["c", "a"])
    assert fidelity(out, QuditState.basis(2, [1, 1])) == pytest.approx(1.0)
    with pytest.raises(AssertionError):
        reg.state(["a"])
