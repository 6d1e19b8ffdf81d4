"""Qudit state vectors: gates, measurement, register bookkeeping."""

import numpy as np
import pytest

from qlnc.states import (
    ImpossibleOutcomeError,
    LabeledRegister,
    QuditState,
    fidelity,
    fourier_matrix,
)

from helpers import dense_cx, dense_cz, dense_f, dense_x, dense_z


def test_x_shifts_basis():
    s = QuditState.basis(3, [0]).apply_x(0)
    assert fidelity(s, QuditState.basis(3, [1])) == pytest.approx(1.0)


def test_x_order_d():
    rng = np.random.default_rng(0)
    s = QuditState.haar_random(4, 2, rng)
    out = s
    for _ in range(4):
        out = out.apply_x(1)
    assert fidelity(out, s) == pytest.approx(1.0, abs=1e-12)


def test_plus_is_x_eigenvector():
    s = QuditState.plus(5)
    assert fidelity(s.apply_x(0), s) == pytest.approx(1.0)


def test_z_phase_on_one_d4():
    s = QuditState.basis(4, [1]).apply_z(0)
    assert np.allclose(s.psi, 1j * QuditState.basis(4, [1]).psi)


def test_z_trivial_on_zero():
    s = QuditState.basis(6, [0]).apply_z(0)
    assert np.allclose(s.psi, QuditState.basis(6, [0]).psi)


def test_z_order_d():
    rng = np.random.default_rng(1)
    s = QuditState.haar_random(5, 1, rng)
    out = s
    for _ in range(5):
        out = out.apply_z(0)
    assert np.allclose(out.psi, s.psi)


def test_f_zero_gives_plus():
    for d in (2, 3, 4, 5, 7):
        s = QuditState.basis(d, [0]).apply_f(0)
        assert fidelity(s, QuditState.plus(d)) == pytest.approx(1.0)


def test_f_inverse_roundtrip():
    rng = np.random.default_rng(2)
    s = QuditState.haar_random(3, 2, rng)
    out = s.apply_f(1).apply_f(1, inverse=True)
    assert fidelity(out, s) == pytest.approx(1.0, abs=1e-12)


def test_f_one_at_d2():
    s = QuditState.basis(2, [1]).apply_f(0)
    assert np.allclose(s.psi, np.array([1, -1]) / np.sqrt(2))


def test_x_eigenvalue_on_fourier_states():
    # X |w_r> = w^{-r} |w_r> under the kernel w^{x r}; the often-quoted
    # +r sign belongs to the opposite outcome-labelling convention
    for d in range(2, 8):
        for r in range(d):
            s = QuditState.basis(d, [r]).apply_f(0)
            shifted = s.apply_x(0)
            expected = np.exp(-2j * np.pi * r / d) * s.psi
            assert np.allclose(shifted.psi, expected), (d, r)


def test_cx_on_basis():
    s = QuditState.basis(3, [1, 0]).apply_cx(0, 1)
    assert fidelity(s, QuditState.basis(3, [1, 1])) == pytest.approx(1.0)


def test_cx_zero_control_is_identity():
    rng = np.random.default_rng(3)
    target = QuditState.haar_random(4, 1, rng)
    s = QuditState.basis(4, [0]).tensor(target).apply_cx(0, 1)
    assert fidelity(s, QuditState.basis(4, [0]).tensor(target)) == pytest.approx(1.0)


def test_cx_power_wraps_mod_d():
    s = QuditState.basis(5, [2, 1]).apply_cx(0, 1, power=2)
    assert fidelity(s, QuditState.basis(5, [2, 0])) == pytest.approx(1.0)


def test_cz_symmetric_phase():
    s = QuditState.basis(2, [1, 1]).apply_cz(0, 1)
    assert np.allclose(s.psi, -QuditState.basis(2, [1, 1]).psi)
    s2 = QuditState.basis(2, [1, 1]).apply_cz(1, 0)
    assert np.allclose(s2.psi, s.psi)


def test_cz_zero_power_identity():
    rng = np.random.default_rng(4)
    s = QuditState.haar_random(3, 2, rng)
    assert np.allclose(s.apply_cz(0, 1, power=0).psi, s.psi)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_cz_equals_fourier_conjugated_cx(d):
    F = dense_f(d)
    lhs = dense_cz(d)
    rhs = np.kron(np.eye(d), F) @ dense_cx(d) @ np.kron(np.eye(d), dense_f(d, inverse=True))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gates_match_dense_matrices(d):
    rng = np.random.default_rng(5)
    s = QuditState.haar_random(d, 2, rng)
    full = s.psi
    checks = [
        (s.apply_x(0, 1), np.kron(dense_x(d), np.eye(d)) @ full),
        (s.apply_z(1, 2), np.kron(np.eye(d), dense_z(d, 2)) @ full),
        (s.apply_f(0), np.kron(dense_f(d), np.eye(d)) @ full),
        (s.apply_cx(0, 1, 1), dense_cx(d) @ full),
        (s.apply_cz(0, 1, 1), dense_cz(d) @ full),
    ]
    for got, want in checks:
        assert np.allclose(got.psi, want)


def test_gate_norm_preserved():
    rng = np.random.default_rng(6)
    s = QuditState.haar_random(3, 3, rng)
    out = s.apply_cx(0, 2).apply_cz(1, 2, 2).apply_f(0).apply_x(1, 2).apply_z(2, 1)
    assert out.norm() == pytest.approx(1.0, abs=1e-9)


def test_measure_plus_gives_zero():
    r, post = QuditState.plus(5).measure_fourier(0, rng=np.random.default_rng(0))
    assert r == 0
    assert post.n == 0


def test_measure_fourier_eigenstate_deterministic():
    s = QuditState.basis(3, [2]).apply_f(0)  # |w_2>
    r, _post = s.measure_fourier(0, rng=np.random.default_rng(1))
    assert r == 2


def test_measure_forced_impossible_rejected():
    s = QuditState.plus(4)  # |w_0>
    with pytest.raises(ImpossibleOutcomeError):
        s.measure_fourier(0, force=1)


def test_measure_residual_phase_convention():
    # measuring control of cX (|+>|0>) with outcome r leaves Z^-r |+>
    for d in (2, 3, 5):
        for r in range(d):
            s = QuditState.plus(d).tensor(QuditState.basis(d, [0])).apply_cx(0, 1)
            out, post = s.measure_fourier(0, force=r)
            assert out == r
            expect = QuditState.plus(d).apply_z(0, -r)
            assert fidelity(post, expect) == pytest.approx(1.0, abs=1e-9)


def test_measure_renormalizes():
    rng = np.random.default_rng(7)
    s = QuditState.haar_random(3, 2, rng)
    _r, post = s.measure_fourier(0, rng=rng)
    assert post.norm() == pytest.approx(1.0, abs=1e-9)


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


def test_labeled_register_tracks_labels_through_removal():
    reg = LabeledRegister(QuditState.basis(2, [1, 0, 1]), ["a", "b", "c"])
    reg.apply_cx("a", "b")
    assert fidelity(reg.state, QuditState.basis(2, [1, 1, 1])) == pytest.approx(1.0)
    reg.state = reg.state.apply_f(reg.axis["b"])
    r = reg.measure("b", rng=np.random.default_rng(0))
    assert r == 1
    assert set(reg.axis) == {"a", "c"}
    out = reg.extract(["c", "a"])
    assert fidelity(out, QuditState.basis(2, [1, 1])) == pytest.approx(1.0)


def test_fourier_matrix_unitary():
    for d in (2, 3, 5, 7):
        F = fourier_matrix(d)
        assert np.allclose(F @ F.conj().T, np.eye(d))


def test_gate_index_errors():
    s = QuditState.basis(3, [0, 0])
    with pytest.raises(IndexError):
        s.apply_x(2)
    with pytest.raises(IndexError):
        s.apply_z(-1)
    with pytest.raises(IndexError):
        s.apply_cx(0, 0)
    with pytest.raises(IndexError):
        s.apply_cz(1, 1)
    with pytest.raises(IndexError):
        s.measure_fourier(5, force=0)
