"""Dense state vectors of n qudits of dimension d, and the tables that the
execution kernels share.

Amplitudes are stored as a complex vector of length d**n indexed by base-d
digit strings with qudit 0 most significant.  A QuditState is what the
entry points take and return; the runs themselves step bare amplitude
arrays (mbqc.py), whose kernels read the cached read-only phase table
built here (_phase_table).

Conventions, fixed once for the whole package:
    X |q> = |q+1 mod d>            Z |q> = w^q |q>,  w = exp(2 pi i / d)
    F[x, r] = w^(x r) / sqrt(d)    |w_r> = F |r>,    |+> = |w_0>
from which X |w_r> = w^(-r) |w_r>, and measuring qudit a of an entangled
state in the Fourier basis with outcome r multiplies the branch holding
basis value x on a by w^(-r x).  The runs keep their register in the
input basis (mbqc._resolve), so the kernels that carry them are
mbqc._weyl_rows (X and Z), mbqc._phase_rows (a Fourier measurement of a
qudit holding a linear form of the inputs) and mbqc._quad_phases (the
phase each branch collects from the outcome offsets).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "QuditState",
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


_TABLES = {}


def _phase_table(d):
    """The read-only d x d table of entries exp(2 pi i a b / d) that every
    kernel shares, built once per d: row e holds the phases of Z^e."""
    if d not in _TABLES:
        table = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d)
        table.flags.writeable = False
        _TABLES[d] = table
    return _TABLES[d]


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
    def _of(cls, n, d, psi):
        """A state on `psi`, d**n flat complex128 amplitudes, unchecked."""
        state = cls.__new__(cls)
        state.n, state.d, state.psi = n, d, psi
        return state

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

    def _tensor(self):
        return self.psi.reshape((self.d,) * self.n)


def fidelity(a: QuditState, b: QuditState) -> float:
    """|<a|b>|, insensitive to global phase."""
    if a.n != b.n or a.d != b.d:
        raise ValueError("states live on different registers")
    return float(abs(np.vdot(a.psi, b.psi)))
