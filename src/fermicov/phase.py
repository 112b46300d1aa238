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


def _as_matrix(entries) -> np.ndarray:
    m = np.asarray(entries, dtype=complex)
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
    """Matrix exponential (scaling and squaring); rejects non-finite results."""
    m = _as_matrix(m)
    out = scipy.linalg.expm(m)
    if not np.all(np.isfinite(out)):
        raise NumericalFailure("matrix exponential overflowed")
    return out


def _xi(v: np.ndarray) -> np.ndarray:
    """Particle-hole conjugation on creation/annihilation coordinates."""
    n = v.shape[0] // 2
    out = np.conj(v)
    return np.concatenate([out[n:], out[:n]], axis=0)


def _pair_zero_space(kernel: np.ndarray) -> np.ndarray:
    """Split a particle-hole invariant kernel into (v, xi v) column pairs.

    Returns the L0 columns v such that [v | xi v] is orthonormal.  Works by
    building an orthonormal basis of xi-fixed vectors (real combinations only)
    and joining them pairwise.
    """
    dim, width = kernel.shape
    m = width // 2
    if width == 0:
        return kernel[:, :0]
    candidates = []
    for k in range(width):
        w = kernel[:, k]
        candidates.append(w + _xi(w))
        candidates.append(1j * (w - _xi(w)))
    fixed: list[np.ndarray] = []
    for cand in candidates:
        v = cand.copy()
        for f in fixed:
            # inner products of xi-fixed vectors are real
            v = v - float(np.real(np.vdot(f, v))) * f
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            fixed.append(v / norm)
        if len(fixed) == 2 * m:
            break
    if len(fixed) != 2 * m:
        raise NumericalFailure("failed to pair the zero eigenspace")
    cols = [(fixed[2 * j] - 1j * fixed[2 * j + 1]) / np.sqrt(2.0) for j in range(m)]
    return np.column_stack(cols) if cols else kernel[:, :0]


def _lex_tiebreak(values: np.ndarray, vectors: np.ndarray):
    """Deterministic ordering: descending eigenvalue, then lexicographic real parts."""
    order = list(range(len(values)))

    def key(i):
        return (-round(values[i], 12), tuple(np.round(vectors[:, i].real, 12)))

    order.sort(key=key)
    return values[order], vectors[:, order]


def block_reduce(t: HamiltonianMatrix) -> tuple[BogoliubovTransform, np.ndarray]:
    """Reduce a quadratic-Hamiltonian matrix to diag(Lambda, -Lambda).

    Returns a Bogoliubov transform ``u`` (creation/annihilation basis) and the
    vector ``lam`` of L nonnegative values sorted descending, with
    u* T u = diag(lam, -lam) up to ``TAU_NUM`` (scaled by the matrix norm).
    Eigenvectors of +lam and -lam are paired through the particle-hole
    conjugation; the zero eigenspace, where the pairing is ambiguous, is split
    through conjugation-fixed vectors (for T = 0 this yields the identity).
    """
    tc = convert_basis(t, BasisTag.CREATION_ANNIHILATION).entries
    n = t.mode_count
    w, v = scipy.linalg.eigh(tc)
    ztol = 64 * (2 * n) * np.finfo(float).eps * max(float(np.abs(w).max()), 1e-300)
    pos = w > ztol
    neg = w < -ztol
    if pos.sum() != neg.sum():
        raise NumericalFailure("asymmetric spectrum in block reduction")
    lam_pos = w[pos][::-1]
    v_pos = v[:, pos][:, ::-1]
    lam_pos, v_pos = _lex_tiebreak(lam_pos, v_pos)
    kernel = v[:, ~(pos | neg)]
    v_zero = _pair_zero_space(kernel)
    v_plus = np.hstack([v_pos, v_zero])
    lam = np.concatenate([lam_pos, np.zeros(v_zero.shape[1])])
    x, y = v_plus[:n, :], v_plus[n:, :]
    u_entries = np.block([[x, y.conj()], [y, x.conj()]])
    u = BogoliubovTransform(entries=u_entries, basis=BasisTag.CREATION_ANNIHILATION)
    u.validate()
    target = np.diag(np.concatenate([lam, -lam]))
    res = _max_abs(u_entries.conj().T @ tc @ u_entries - target)
    if res > TAU_NUM * _scale(tc):
        raise NumericalFailure(f"block reduction residual {res:.3e} too large")
    return u, lam
