"""Phase-space linear algebra for fermionic one-body matrices.

A system of L modes has a 2L-dimensional complex phase space.  Two bases are
used throughout: the creation/annihilation basis, where a quadratic
Hamiltonian matrix has the block form [[A, B], [-conj(B), -conj(A)]], and the
Majorana basis, where the same matrix is i*R with R real antisymmetric.
Every structured matrix value carries exactly one basis tag; ``convert_basis``
moves between the two representations by conjugation with

    S = 1/2 [[I, I], [-iI, iI]],      S^-1 = [[I, iI], [I, -iI]],

applied with the size of the left (row) space on the left and the size of the
right (column) space on the right.  S is 1/sqrt(2) times a unitary, so the
conjugation preserves spectra and Hermiticity.

Particle-hole structure is one fact in the Majorana basis: a Hamiltonian or
coupling matrix is i*(real), a covariance matrix is I/2 + i*(real) and a
Bogoliubov transform is real.  Every tagged value checks it the same way,
through ``_check_particle_hole``: its entries are converted to the Majorana
basis (Majorana-tagged entries are read in place) and their real or imaginary
part is compared with the target.

The same fact makes the Bogoliubov reduction real: ``block_reduce`` takes
T = iA in the Majorana basis and reads its modes and its transform off one
real Schur form of A, a real orthogonal matrix that it converts back to the
creation/annihilation basis.

A tagged value is validated once, by the function that builds it: a
``validate_*`` constructor for caller data, each computation for its result.
A function that receives a tagged value trusts its tag.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import NumericalFailure, StructureViolation

#: Structural validation threshold, relative to the matrix max-norm.
TAU_STRUCT = 1e-9
#: Reconstruction-residual threshold for decompositions.
TAU_NUM = 1e-10


class BasisTag(Enum):
    MAJORANA = "majorana"
    CREATION_ANNIHILATION = "creation-annihilation"


def _as_matrix(entries, dtype=complex) -> np.ndarray:
    m = np.asarray(entries, dtype=dtype)
    if m.ndim != 2:
        raise StructureViolation("expected a matrix")
    if not np.all(np.isfinite(m)):
        raise StructureViolation("matrix has non-finite entries", float("inf"))
    return m


def _scale(m: np.ndarray) -> float:
    return max(1.0, float(np.abs(m).max())) if m.size else 1.0


def _tol(m: np.ndarray) -> float:
    return TAU_STRUCT * _scale(m)


def _max_abs(m) -> float:
    return float(np.abs(m).max()) if np.asarray(m).size else 0.0


@lru_cache(maxsize=None)
def _basis_pair(n: int):
    """(S, S^-1) for an n-mode phase space (matrices of size 2n)."""
    eye = np.eye(n)
    s = 0.5 * np.block([[eye, eye], [-1j * eye, 1j * eye]])
    s_inv = np.block([[eye, 1j * eye], [eye, -1j * eye]])
    return s, s_inv


def _convert_entries(entries: np.ndarray, source: BasisTag, target: BasisTag) -> np.ndarray:
    """The entries re-expressed in ``target``; the array itself when the bases agree."""
    if source is target:
        return entries
    rows, cols = entries.shape
    sl, sl_inv = _basis_pair(rows // 2)
    sr, sr_inv = _basis_pair(cols // 2)
    if target is BasisTag.MAJORANA:
        return sl @ entries @ sr_inv
    return sl_inv @ entries @ sr


def _check_even_square(m: np.ndarray) -> int:
    rows, cols = m.shape
    if rows != cols or rows % 2 != 0 or rows == 0:
        raise StructureViolation(f"expected a nonempty even-sized square matrix, got {m.shape}")
    return rows // 2


def _check_hermitian(m: np.ndarray, what: str, tol: float) -> np.ndarray:
    """Reject m unless it is Hermitian within ``tol``; return (m + m*)/2.

    A NaN residual (from an overflowed computation) is rejected too."""
    adj = m.conj().T
    res = _max_abs(m - adj)
    if not res <= tol:
        raise StructureViolation(f"{what} is not Hermitian", res)
    return (m + adj) / 2


def _check_particle_hole(value, tol: float, message: str, part=np.real, target=0.0) -> None:
    """``part`` of a tagged value's Majorana-basis entries must equal ``target``."""
    res = _max_abs(part(_convert_entries(value.entries, value.basis, BasisTag.MAJORANA)) - target)
    if not res <= tol:
        raise StructureViolation(message, res)


@dataclass(frozen=True, eq=False)
class HamiltonianMatrix:
    """One-body matrix of a quadratic Hamiltonian (an element of QF(L))."""

    entries: np.ndarray
    basis: BasisTag
    mode_count: int

    def validate(self) -> None:
        m = self.entries
        if m.shape != (2 * self.mode_count, 2 * self.mode_count):
            raise StructureViolation(f"shape {m.shape} does not match mode count {self.mode_count}")
        tol = _tol(m)
        _check_hermitian(m, "quadratic-form matrix", tol)
        _check_particle_hole(self, tol, "Majorana-basis matrix is not of the form i*R, R real")


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """System-bath interaction matrix (2L x 2K)."""

    entries: np.ndarray
    basis: BasisTag
    system_modes: int
    bath_modes: int

    def validate(self) -> None:
        m = self.entries
        if m.shape != (2 * self.system_modes, 2 * self.bath_modes):
            raise StructureViolation(
                f"shape {m.shape} does not match ({self.system_modes}, {self.bath_modes}) modes"
            )
        _check_particle_hole(self, _tol(m), "coupling is not of the form i*W with W real")


@dataclass(frozen=True, eq=False)
class BogoliubovTransform:
    """Unitary phase-space transform commuting with particle-hole conjugation."""

    entries: np.ndarray
    basis: BasisTag

    @property
    def mode_count(self) -> int:
        return self.entries.shape[0] // 2

    def validate(self) -> None:
        m = self.entries
        n = _check_even_square(m)
        tol = _tol(m)
        res = _max_abs(m @ m.conj().T - np.eye(2 * n))
        if res > tol:
            raise StructureViolation("transform is not unitary", res)
        _check_particle_hole(self, tol, "Majorana-basis transform is not real", part=np.imag)


def convert_basis(m, target: BasisTag):
    """Re-express a structured matrix value in the ``target`` basis.

    Works for any tagged value with ``entries`` and ``basis`` fields
    (Hamiltonian, coupling, Bogoliubov and covariance matrices).  A pure
    conversion: the tag is trusted, since the value was validated where it
    was built.  Round trips reproduce the input.
    """
    if m.basis is target:
        return m
    return dataclasses.replace(m, entries=_convert_entries(m.entries, m.basis, target), basis=target)


def validate_qf(entries, basis: BasisTag) -> HamiltonianMatrix:
    """Tag a raw square matrix as a quadratic-Hamiltonian matrix, or reject it."""
    m = _as_matrix(entries)
    n = _check_even_square(m)
    h = HamiltonianMatrix(entries=m, basis=basis, mode_count=n)
    h.validate()
    return h


def validate_coupling(entries, basis: BasisTag) -> CouplingMatrix:
    """Tag a raw 2Lx2K matrix as a system-bath coupling, or reject it."""
    m = _as_matrix(entries)
    rows, cols = m.shape
    if rows % 2 or cols % 2 or rows == 0 or cols == 0:
        raise StructureViolation(f"coupling must have even dimensions, got {m.shape}")
    c = CouplingMatrix(entries=m, basis=basis, system_modes=rows // 2, bath_modes=cols // 2)
    c.validate()
    return c


def expm(m) -> np.ndarray:
    """Matrix exponential (scaling and squaring); rejects non-finite results.

    A real matrix gives a real exponential."""
    m = np.asarray(m)
    m = _as_matrix(m, float if np.isrealobj(m) else complex)
    out = scipy.linalg.expm(m)
    if not np.all(np.isfinite(out)):
        raise NumericalFailure("matrix exponential overflowed")
    return out


def block_reduce(t: HamiltonianMatrix) -> tuple[BogoliubovTransform, np.ndarray]:
    """Reduce a quadratic-Hamiltonian matrix to diag(Lambda, -Lambda).

    Returns a Bogoliubov transform ``u`` (creation/annihilation basis) and the
    vector ``lam`` of L nonnegative values sorted descending, with
    u* T u = diag(lam, -lam) up to ``TAU_NUM`` (scaled by the matrix norm).

    In the Majorana basis T = iA with A real antisymmetric, and one real
    Schur form A = Z S Z^T is block diagonal.  Each 2 x 2 block
    [[0, b], [-b, 0]] is one mode of value |b|: its two columns of Z become
    Majorana coordinates k and k + L, swapped when b < 0, which is the
    Majorana form [[0, lam], [-lam, 0]] of diag(lam, -lam).  The zero 1 x 1
    blocks pair in order, first half with second half, so T = 0 gives the
    identity.  The modes are then sorted by lam, descending and stably.
    """
    a = convert_basis(t, BasisTag.MAJORANA).entries.imag
    s, z = scipy.linalg.schur(a, output="real")
    starts = np.flatnonzero(np.diag(s, -1))
    b = (s[starts, starts + 1] - s[starts + 1, starts]) / 2
    zeros = np.setdiff1d(np.arange(len(a)), np.concatenate([starts, starts + 1]))
    half = len(zeros) // 2
    first = np.concatenate([np.where(b > 0, starts, starts + 1), zeros[:half]])
    second = np.concatenate([np.where(b > 0, starts + 1, starts), zeros[half:]])
    lam = np.concatenate([np.abs(b), np.zeros(half)])
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    o = z[:, np.concatenate([first[order], second[order]])]
    u = convert_basis(BogoliubovTransform(entries=o, basis=BasisTag.MAJORANA), BasisTag.CREATION_ANNIHILATION)
    u.validate()
    tc = convert_basis(t, BasisTag.CREATION_ANNIHILATION).entries
    res = _max_abs(u.entries.conj().T @ tc @ u.entries - np.diag(np.concatenate([lam, -lam])))
    if res > TAU_NUM * _scale(tc):
        raise NumericalFailure(f"block reduction residual {res:.3e} too large")
    return u, lam
