"""Weyl operators on qudits and their transport through Clifford gadgets.

A Weyl operator is a product X^a Z^b with a unit-modulus prefactor.  This
module keeps just enough symbolic stabilizer machinery to push such an
operator through prepare / entangle / measure / correct sequences like the
teleportation gadget that trades an inverse Fourier transform for one
auxiliary qudit: prepare |+> on w, entangle with cZ^-1, measure v in the X
eigenbasis with outcome r, shift w by X^r.  No general tableau simulator is
kept; preparation stabilizers are tracked only to absorb Z components at a
measured site.

Conjugation rules used (G O G^dag), with w = exp(2 pi i / d):
    Z^p:       X^a -> w^(p a) X^a
    X^p:       Z^b -> w^(-p b) Z^b
    F:         X -> Z,        Z -> X^-1
    F^dag:     X -> Z^-1,     Z -> X
    cX^p:      X_c -> X_c X_t^p,   Z_t -> Z_t Z_c^-p
    cZ^p:      X_u -> X_u Z_v^(p u<->v)
and a Fourier measurement of site v with outcome r replaces a factor X_v^a
by the scalar w^(-a r) once all Z_v components have been cancelled against
available preparation stabilizers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ring import RingMatrix, solve_modular
from .states import fourier_matrix

__all__ = [
    "WeylLabel",
    "weyl_matrix",
    "PauliProduct",
    "conjugate_weyl_through",
    "fdagger_gadget",
    "fdagger_gadget_branch_matrix",
    "NonCliffordError",
]

PHASE_TOL = 1e-12


class NonCliffordError(ValueError):
    """The gadget contains an element outside the supported Clifford set."""


@dataclass(frozen=True)
class WeylLabel:
    """Label (a, b, phase) for the operator phase * X^a Z^b on one qudit."""

    a: int
    b: int
    phase: complex = 1.0 + 0.0j

    def reduced(self, d):
        if abs(abs(self.phase) - 1.0) > PHASE_TOL:
            raise ValueError(f"phase {self.phase} is not unit modulus")
        return WeylLabel(self.a % d, self.b % d, self.phase)


def weyl_matrix(d, a, b, phase=1.0):
    """Dense d x d matrix of phase * X^a Z^b."""
    z = np.diag(np.exp(2j * np.pi * b * np.arange(d) / d))
    x = np.zeros((d, d), dtype=np.complex128)
    for q in range(d):
        x[(q + a) % d, q] = 1.0
    return phase * (x @ z)


class PauliProduct:
    """phase * prod_sites X^a Z^b with per-site canonical (X then Z) order."""

    def __init__(self, d, phase=1.0):
        self.d = d
        self.phase = complex(phase)
        self.exps = {}  # site -> [a, b]

    def factor(self, site, a=0, b=0):
        """Right-multiply by X_site^a Z_site^b, reordering into canonical form."""
        a %= self.d
        b %= self.d
        cur = self.exps.setdefault(site, [0, 0])
        # X^A Z^B . X^a Z^b = w^(B a) X^(A+a) Z^(B+b)
        self.phase *= np.exp(2j * np.pi * (cur[1] * a) / self.d)
        cur[0] = (cur[0] + a) % self.d
        cur[1] = (cur[1] + b) % self.d
        if cur == [0, 0]:
            del self.exps[site]
        return self

    def _shift(self, site, da, db):
        """Add to a site's exponents without any reordering phase (used when
        the exact conjugation algebra has already accounted for phases)."""
        cur = self.exps.setdefault(site, [0, 0])
        cur[0] = (cur[0] + da) % self.d
        cur[1] = (cur[1] + db) % self.d
        if cur == [0, 0]:
            del self.exps[site]

    def times(self, other):
        """Right-multiply by another product over the same dimension."""
        self.phase *= other.phase
        for site, (a, b) in other.exps.items():
            self.factor(site, a, b)
        return self

    def power(self, k):
        out = PauliProduct(self.d)
        for _ in range(k % self.d):
            out.times(self)
        return out

    def conjugate_gate(self, op):
        """Transform self to G self G^dag for one gate description."""
        kind = op[0]
        if kind == "x":
            _, site, p = op
            ab = self.exps.get(site)
            if ab:
                self.phase *= np.exp(-2j * np.pi * (p * ab[1]) / self.d)
        elif kind == "z":
            _, site, p = op
            ab = self.exps.get(site)
            if ab:
                self.phase *= np.exp(2j * np.pi * (p * ab[0]) / self.d)
        elif kind == "f":
            _, site, inverse = op
            ab = self.exps.pop(site, None)
            if ab:
                a, b = ab
                if inverse:
                    na, nb = b, -a
                else:
                    na, nb = -b, a
                # both branches pick up the reordering phase w^(-a b)
                self.phase *= np.exp(-2j * np.pi * (a * b) / self.d)
                self.factor(site, na, nb)
        elif kind == "cz":
            # X_u -> X_u Z_v^p and X_v -> X_v Z_u^p; merging the new Z_v past
            # an existing X_v costs the reordering phase w^(p au av)
            _, u, v, p = op
            au = self.exps.get(u, (0, 0))[0]
            av = self.exps.get(v, (0, 0))[0]
            if au and av:
                self.phase *= np.exp(2j * np.pi * (p * au * av) / self.d)
            if au:
                self._shift(v, 0, p * au)
            if av:
                self._shift(u, 0, p * av)
        elif kind == "cx":
            # X_c -> X_c X_t^p and Z_t -> Z_t Z_c^-p; both merges are free of
            # reordering phases (X meets X, Z meets Z)
            _, c, t, p = op
            ac = self.exps.get(c, (0, 0))[0]
            bt = self.exps.get(t, (0, 0))[1]
            if ac:
                self._shift(t, p * ac, 0)
            if bt:
                self._shift(c, 0, -p * bt)
        else:
            raise NonCliffordError(f"unsupported gadget element {op!r}")
        return self


def _cancel_z_at(site, target: PauliProduct, stabilizers):
    """Multiply target by a combination of stabilizers to clear Z at site."""
    b = target.exps.get(site, (0, 0))[1]
    if b % target.d == 0:
        return True
    zs = [s.exps.get(site, (0, 0))[1] for s in stabilizers]
    if not any(zs):
        return False
    system = RingMatrix(np.asarray([zs], dtype=np.int64), target.d)
    sol = solve_modular(system, np.asarray([-b], dtype=np.int64))
    if sol is None:
        return False
    for c, stab in zip(sol, stabilizers):
        if c:
            target.times(stab.power(int(c)))
    return True


def _apply_measurement(site, outcome, target: PauliProduct, stabilizers):
    """Fourier measurement of `site`: cancel Z there, turn X into a phase."""
    d = target.d
    others = [s for s in stabilizers if s is not target]
    if not _cancel_z_at(site, target, others):
        raise ValueError(
            f"cannot push the operator past the measurement of {site!r}: "
            "its Z component there is not generated by the preparations"
        )
    a = target.exps.pop(site, (0, 0))[0]
    if a:
        target.phase *= np.exp(-2j * np.pi * (a * outcome) / d)
    # restore surviving stabilizers to the commutant of the measurement
    kept = []
    for i, stab in enumerate(stabilizers):
        rest = [s for j, s in enumerate(stabilizers) if j != i]
        if _cancel_z_at(site, stab, rest):
            sa = stab.exps.pop(site, (0, 0))[0]
            if sa:
                stab.phase *= np.exp(-2j * np.pi * (sa * outcome) / d)
            kept.append(stab)
    stabilizers[:] = kept


def conjugate_weyl_through(gadget, w: WeylLabel, site, d):
    """Push phase*X^a Z^b at `site` through a prepare/entangle/measure gadget.

    `gadget` is a sequence of tuples:
        ("prep_plus", site)
        ("x" | "z", site, power)
        ("f", site, inverse_flag)
        ("cx", control, target, power) or ("cz", a, b, power)
        ("measure_x", site, outcome)
    Returns (WeylLabel, carrier_site) for the transported operator, which
    must end up supported on a single qudit.
    """
    w = w.reduced(d)
    tracked = PauliProduct(d, w.phase).factor(site, w.a, w.b)
    stabilizers: list[PauliProduct] = []
    for op in gadget:
        kind = op[0]
        if kind == "prep_plus":
            stabilizers.append(PauliProduct(d).factor(op[1], 1, 0))
        elif kind == "measure_x":
            _, msite, outcome = op
            _apply_measurement(msite, outcome, tracked, stabilizers)
            for stab in stabilizers:
                if msite in stab.exps:
                    raise AssertionError("measured site survived in a stabilizer")
        else:
            tracked.conjugate_gate(op)
            for stab in stabilizers:
                stab.conjugate_gate(op)
    if len(tracked.exps) > 1:
        raise ValueError(
            f"transported operator is supported on {sorted(tracked.exps)}, "
            "expected a single carrier qudit"
        )
    if not tracked.exps:
        return WeylLabel(0, 0, tracked.phase), None
    carrier, (a, b) = next(iter(tracked.exps.items()))
    return WeylLabel(a, b, tracked.phase), carrier


def fdagger_gadget(v, w, outcome):
    """The teleportation gadget sending |psi> on v to F^dag |psi> on w."""
    return (
        ("prep_plus", w),
        ("cz", v, w, -1),
        ("measure_x", v, outcome),
        ("x", w, outcome),
    )


def fdagger_gadget_branch_matrix(d, outcome):
    """Dense d x d branch map of the gadget at a given outcome.

    Equals F^dag up to a global phase for every outcome; normalized so the
    map is an isometry (each outcome occurs with probability 1/d).
    """
    plus = np.full(d, 1 / np.sqrt(d), dtype=np.complex128)
    # cZ^-1 on (v, w) as a d^2 x d^2 diagonal, then contract <w_r| on v
    vals = np.arange(d)
    czm = np.exp(-2j * np.pi * np.outer(vals, vals) / d)
    bra = fourier_matrix(d)[:, outcome].conj()  # <w_r| components
    K = np.einsum("v,vw,w->wv", bra, czm, plus)  # maps v-amplitudes to w
    xcorr = weyl_matrix(d, outcome, 0)
    return np.sqrt(d) * (xcorr @ K)
