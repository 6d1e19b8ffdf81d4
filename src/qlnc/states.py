"""Dense state-vector simulator for n qudits of dimension d.

Amplitudes are stored as a complex vector of length d**n indexed by base-d
digit strings with qudit 0 most significant.  Gate application returns a new
state; measurement removes the measured qudit from the register, so memory
tracks the number of *live* qudits.  The gate set is the one required by
coherent network coding and its one-way compilation: X, Z, F, cX, cZ (all
with integer powers) and Fourier-basis measurement.

Conventions, fixed once for the whole package:
    X |q> = |q+1 mod d>            Z |q> = w^q |q>,  w = exp(2 pi i / d)
    F[x, r] = w^(x r) / sqrt(d)    |w_r> = F |r>,    |+> = |w_0>
from which X |w_r> = w^(-r) |w_r>, and measuring qudit a of an entangled
state in the Fourier basis with outcome r multiplies the branch holding
basis value x on a by w^(-r x).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "QuditState",
    "LabeledRegister",
    "ImpossibleOutcomeError",
    "fidelity",
    "fourier_matrix",
]

NORM_TOL = 1e-9
IMPOSSIBLE_TOL = 1e-12


class ImpossibleOutcomeError(ValueError):
    """A forced measurement outcome has (near-)zero probability."""


def fourier_matrix(d, inverse=False):
    """The d x d Fourier matrix with entries w^(x r)/sqrt(d) (conjugated if inverse)."""
    x, r = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    sign = -1 if inverse else 1
    return np.exp(sign * 2j * np.pi * x * r / d) / np.sqrt(d)


class QuditState:
    """Pure state of n qudits of dimension d."""

    __slots__ = ("n", "d", "psi")

    def __init__(self, n, d, psi=None, normalize_check=True):
        self.n = int(n)
        self.d = int(d)
        if psi is None:
            psi = np.zeros(d**n, dtype=np.complex128)
            psi[0] = 1.0
        else:
            psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
            if psi.shape != (d**n,):
                raise ValueError(f"expected {d**n} amplitudes, got {psi.shape[0]}")
        self.psi = psi
        if normalize_check:
            nrm = np.linalg.norm(psi)
            if abs(nrm - 1.0) > NORM_TOL:
                raise ValueError(f"state norm {nrm} is not 1")

    # -- constructors ------------------------------------------------

    @classmethod
    def basis(cls, d, digits):
        """Computational basis state |digits[0] digits[1] ...>."""
        digits = [int(x) % d for x in digits]
        n = len(digits)
        idx = 0
        for v in digits:
            idx = idx * d + v
        psi = np.zeros(d**n, dtype=np.complex128)
        psi[idx] = 1.0
        return cls(n, d, psi)

    @classmethod
    def plus(cls, d, n=1):
        """Uniform superposition |+>^n."""
        psi = np.full(d**n, 1.0 / np.sqrt(d) ** n, dtype=np.complex128)
        return cls(n, d, psi)

    @classmethod
    def haar_random(cls, d, n, rng):
        v = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
        return cls(n, d, v / np.linalg.norm(v))

    def copy(self):
        return QuditState(self.n, self.d, self.psi.copy(), normalize_check=False)

    def _tensor(self):
        return self.psi.reshape((self.d,) * self.n)

    # -- single-qudit gates ------------------------------------------

    def _check_index(self, q):
        if not 0 <= q < self.n:
            raise IndexError(f"qudit index {q} out of range for n={self.n}")

    def apply_x(self, q, power=1):
        """Cyclic shift |v> -> |v + power> on qudit q."""
        self._check_index(q)
        out = np.roll(self._tensor(), power % self.d, axis=q)
        return QuditState(self.n, self.d, out, normalize_check=False)

    def apply_z(self, q, power=1):
        """Phase w^(power * v) on basis value v of qudit q."""
        self._check_index(q)
        phases = np.exp(2j * np.pi * (power % self.d) * np.arange(self.d) / self.d)
        shape = [1] * self.n
        shape[q] = self.d
        out = self._tensor() * phases.reshape(shape)
        return QuditState(self.n, self.d, out, normalize_check=False)

    def apply_f(self, q, inverse=False):
        """Fourier transform (or its inverse) on qudit q."""
        self._check_index(q)
        F = fourier_matrix(self.d, inverse=inverse)
        out = np.tensordot(F, self._tensor(), axes=([1], [q]))
        out = np.moveaxis(out, 0, q)
        return QuditState(self.n, self.d, out, normalize_check=False)

    # -- two-qudit gates ---------------------------------------------

    def apply_cx(self, control, target, power=1):
        """|c>|t> -> |c>|t + power*c> (control and target must differ)."""
        self._check_index(control)
        self._check_index(target)
        if control == target:
            raise IndexError("control and target must be distinct")
        t = self._tensor()
        out = np.empty_like(t)
        ctrl_index = [slice(None)] * self.n
        for c in range(self.d):
            ctrl_index[control] = c
            sl = t[tuple(ctrl_index)]
            axis = target - (1 if target > control else 0)
            out[tuple(ctrl_index)] = np.roll(sl, (power * c) % self.d, axis=axis)
        return QuditState(self.n, self.d, out, normalize_check=False)

    def apply_cz(self, a, b, power=1):
        """Phase w^(power * v_a * v_b); symmetric in its qudits."""
        self._check_index(a)
        self._check_index(b)
        if a == b:
            raise IndexError("cZ requires two distinct qudits")
        vals = np.arange(self.d)
        table = np.exp(2j * np.pi * (power % self.d) * np.outer(vals, vals) / self.d)
        shape = [self.d if i in (a, b) else 1 for i in range(self.n)]
        out = self._tensor() * table.reshape(shape)
        return QuditState(self.n, self.d, out, normalize_check=False)

    # -- composition and measurement ---------------------------------

    def tensor(self, other):
        if other.d != self.d:
            raise ValueError("dimension mismatch in tensor product")
        psi = np.kron(self.psi, other.psi)
        return QuditState(self.n + other.n, self.d, psi, normalize_check=False)

    def append_qudits(self, count, fill="zero"):
        """Extend the register by `count` fresh qudits in |0> or |+>."""
        if count == 0:
            return self
        extra = (
            QuditState.basis(self.d, [0] * count)
            if fill == "zero"
            else QuditState.plus(self.d, count)
        )
        return self.tensor(extra)

    def _fourier_outcomes(self, q):
        """The register with qudit q in the Fourier basis, outcome axis first,
        and the probability of each of its d outcomes."""
        self._check_index(q)
        Finv = fourier_matrix(self.d, inverse=True)
        t = np.tensordot(Finv, self._tensor(), axes=([1], [q]))  # (r, ...rest)
        return t, [float(np.vdot(t[r], t[r]).real) for r in range(self.d)]

    def fourier_branches(self, q):
        """All d outcome branches of a Fourier measurement on qudit q.

        Returns a list of (probability, collapsed QuditState or None); the
        collapsed states are normalized and have qudit q removed.  The sum of
        probabilities is 1 up to numerical error.
        """
        t, probs = self._fourier_outcomes(q)
        branches = []
        for r, p in enumerate(probs):
            if p < IMPOSSIBLE_TOL:
                branches.append((p, None))
            else:
                collapsed = QuditState(
                    self.n - 1, self.d, t[r] / np.sqrt(p), normalize_check=False
                )
                branches.append((p, collapsed))
        return branches

    def measure_fourier(self, q, rng=None, force=None):
        """Measure qudit q in the Fourier basis {|w_r>}.

        Outcome selection is either sampled from `rng` (numpy Generator) or
        forced to `force`.  The measured qudit is removed from the register
        and the residual state renormalized.  Returns (r, new_state).  Only
        the chosen outcome's slice is renormalized.
        """
        t, probs = self._fourier_outcomes(q)
        if force is not None:
            r = int(force) % self.d
            if probs[r] < IMPOSSIBLE_TOL:
                raise ImpossibleOutcomeError(
                    f"forced outcome {r} has probability {probs[r]:.3e}"
                )
        elif rng is None:
            raise ValueError("measure_fourier needs an rng or a forced outcome")
        else:
            p = np.asarray(probs)
            r = int(rng.choice(self.d, p=p / p.sum()))
        collapsed = t[r] / np.sqrt(probs[r])
        return r, QuditState(self.n - 1, self.d, collapsed, normalize_check=False)

    def norm(self):
        return float(np.linalg.norm(self.psi))


def fidelity(a: QuditState, b: QuditState) -> float:
    """|<a|b>|, insensitive to global phase."""
    if a.n != b.n or a.d != b.d:
        raise ValueError("states live on different registers")
    return float(abs(np.vdot(a.psi, b.psi)))


class LabeledRegister:
    """A QuditState plus a label -> axis table that survives qudit removal.

    Protocol code addresses qudits by stable labels; measurement removes the
    underlying axis and shifts the later ones down, which this table hides.
    """

    def __init__(self, state: QuditState, labels):
        labels = list(labels)
        if len(labels) != state.n:
            raise ValueError("one label per live qudit required")
        self.state = state
        self.axis = {lab: i for i, lab in enumerate(labels)}

    @property
    def d(self):
        return self.state.d

    def add(self, labels, fill):
        labels = list(labels)
        base = self.state.n
        self.state = self.state.append_qudits(len(labels), fill=fill)
        for i, lab in enumerate(labels):
            if lab in self.axis:
                raise ValueError(f"duplicate qudit label {lab!r}")
            self.axis[lab] = base + i

    def apply_x(self, label, power=1):
        self.state = self.state.apply_x(self.axis[label], power)

    def apply_z(self, label, power=1):
        self.state = self.state.apply_z(self.axis[label], power)

    def apply_cx(self, control, target, power=1):
        self.state = self.state.apply_cx(self.axis[control], self.axis[target], power)

    def apply_cz(self, a, b, power=1):
        self.state = self.state.apply_cz(self.axis[a], self.axis[b], power)

    def measure(self, label, rng=None, force=None):
        q = self.axis[label]
        r, self.state = self.state.measure_fourier(q, rng=rng, force=force)
        del self.axis[label]
        for lab, ax in self.axis.items():
            if ax > q:
                self.axis[lab] = ax - 1
        return r

    def extract(self, labels):
        """The state reordered so `labels` appear in the given order; valid
        only when those are exactly the live qudits (reads protocol outputs)."""
        labels = list(labels)
        if set(labels) != set(self.axis) or len(labels) != len(self.axis):
            raise ValueError("extract expects exactly the live qudit labels")
        order = [self.axis[lab] for lab in labels]
        if order == list(range(len(order))):
            return self.state
        t = np.moveaxis(self.state._tensor(), order, range(len(order)))
        return QuditState(self.state.n, self.d, t, normalize_check=False)
