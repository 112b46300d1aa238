"""Covariance matrices of quasi-free fermionic states.

The covariance matrix of a state rho is built from second moments of the
field operators.  In the creation/annihilation basis entry (i, j) is
tr(rho c_i c_j*), entry (i, j+L) is tr(rho c_i c_j), and the lower-right
block is I minus the conjugate of the upper-left block.  In the Majorana
basis the entries are (1/2) tr(rho g_i g_j), which gives the form
1/2 I + i R with R real antisymmetric; this half normalization is the one
compatible with the phase-space basis change of :mod:`fermicov.phase`.

Higher moments of a quasi-free state follow from the two-point function by
the signed sum over pairings implemented in :func:`wick_moment`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import StructureViolation, WordTooLong
from .phase import (
    BasisTag,
    HamiltonianMatrix,
    _as_matrix,
    _check_even_square,
    _check_hermitian,
    _check_particle_hole,
    _tol,
    convert_basis,
)

#: Longest moment word accepted by the pairing enumeration (10395 pairings).
N_MAX_WORD = 12


def _check_unit_spectrum(m: np.ndarray, what: str, tol: float) -> None:
    """Hermitian, with every eigenvalue in [0, 1]."""
    eigs = np.linalg.eigvalsh(_check_hermitian(m, what, tol))
    res = max(float(-eigs.min()), float(eigs.max() - 1.0))
    if res > tol:
        raise StructureViolation(f"{what} eigenvalues leave [0, 1]", res)


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Complete second-moment data of a quasi-free state on L modes."""

    entries: np.ndarray
    basis: BasisTag
    mode_count: int

    def validate(self) -> None:
        m = self.entries
        if m.shape != (2 * self.mode_count, 2 * self.mode_count):
            raise StructureViolation(f"shape {m.shape} does not match mode count {self.mode_count}")
        tol = _tol(m)
        _check_unit_spectrum(m, "covariance", tol)
        message = "Majorana covariance is not of the form I/2 + i R"
        _check_particle_hole(self, tol, message, target=0.5 * np.eye(len(m)))


@dataclass(frozen=True, eq=False)
class SmallCovarianceMatrix:
    """Gauge-invariant L x L covariance block, entry (i, j) = tr(rho c_i c_j*)."""

    entries: np.ndarray
    mode_count: int

    def validate(self) -> None:
        m = self.entries
        if m.shape != (self.mode_count, self.mode_count):
            raise StructureViolation(f"shape {m.shape} does not match mode count {self.mode_count}")
        _check_unit_spectrum(m, "small covariance", _tol(m))


def validate_covariance(entries, basis: BasisTag) -> CovarianceMatrix:
    m = _as_matrix(entries)
    n = _check_even_square(m)
    cov = CovarianceMatrix(entries=m, basis=basis, mode_count=n)
    cov.validate()
    return cov


def validate_small_covariance(entries) -> SmallCovarianceMatrix:
    m = _as_matrix(entries)
    cov = SmallCovarianceMatrix(entries=m, mode_count=m.shape[0])
    cov.validate()
    return cov


def covariance_from_gibbs(t: HamiltonianMatrix, beta: float) -> CovarianceMatrix:
    """Covariance matrix (I + e^{-2 beta T})^{-1} of the Gibbs state of T.

    Evaluated through the eigendecomposition of the Hermitian matrix T, which
    is overflow-free for any finite beta.  Returned in the
    creation/annihilation basis.
    """
    if not np.isfinite(beta):
        raise StructureViolation("beta must be finite")
    tc = convert_basis(t, BasisTag.CREATION_ANNIHILATION)
    w, v = scipy.linalg.eigh(tc.entries)
    occ = _logistic(2.0 * beta * w)
    return validate_covariance((v * occ) @ v.conj().T, BasisTag.CREATION_ANNIHILATION)


def small_covariance_from_gibbs(t0, beta: float) -> SmallCovarianceMatrix:
    """Gauge-invariant convenience: (I + e^{-beta T0})^{-1} for Hermitian T0."""
    if not np.isfinite(beta):
        raise StructureViolation("beta must be finite")
    t0 = _as_matrix(t0)
    _check_hermitian(t0, "gauge-invariant one-body matrix", _tol(t0))
    w, v = scipy.linalg.eigh(t0)
    return validate_small_covariance((v * _logistic(beta * w)) @ v.conj().T)


def _logistic(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    out[~pos] = np.exp(x[~pos]) / (1.0 + np.exp(x[~pos]))
    return out


def small_from_full(m: CovarianceMatrix) -> SmallCovarianceMatrix:
    """Upper-left L x L block in the creation/annihilation basis."""
    mc = convert_basis(m, BasisTag.CREATION_ANNIHILATION)
    L = m.mode_count
    return SmallCovarianceMatrix(entries=mc.entries[:L, :L].copy(), mode_count=L)


def full_from_small(m0: SmallCovarianceMatrix) -> CovarianceMatrix:
    """Gauge-invariant embedding [[M0, 0], [0, I - conj M0]], valid whenever M0 is."""
    L = m0.mode_count
    zero = np.zeros((L, L))
    full = np.block([[m0.entries, zero], [zero, np.eye(L) - m0.entries.conj()]])
    return CovarianceMatrix(entries=full, basis=BasisTag.CREATION_ANNIHILATION, mode_count=L)


def _pairings(k: int):
    """Yield (sign, pairs) over all perfect matchings of range(k)."""
    if k == 0:
        yield 1, []
        return
    idx = list(range(k))

    def rec(rest):
        if not rest:
            yield 1, []
            return
        first = rest[0]
        for pos in range(1, len(rest)):
            partner = rest[pos]
            sub = rest[1:pos] + rest[pos + 1 :]
            sign = -1 if (pos - 1) % 2 else 1
            for s, pairs in rec(sub):
                yield sign * s, [(first, partner)] + pairs

    yield from rec(idx)


def wick_moment(m: CovarianceMatrix, word: Sequence) -> complex:
    """Moment tr(rho phi(x_1) ... phi(x_n)) of the quasi-free state with covariance m.

    Each word entry is a 2L complex vector of Majorana coordinates.  Odd words
    vanish; even words are the signed sum over pairings of two-point
    functions.  Words longer than ``N_MAX_WORD`` are rejected.
    """
    n = len(word)
    if n > N_MAX_WORD:
        raise WordTooLong(f"word length {n} exceeds {N_MAX_WORD}")
    vecs = [np.asarray(x, dtype=complex) for x in word]
    for x in vecs:
        if x.shape != (2 * m.mode_count,):
            raise StructureViolation(f"word vector has shape {x.shape}, expected {(2 * m.mode_count,)}")
    if n % 2 == 1:
        return 0.0 + 0.0j
    if n == 0:
        return 1.0 + 0.0j
    mm = convert_basis(m, BasisTag.MAJORANA).entries
    kern = np.array([[2.0 * x @ mm @ y for y in vecs] for x in vecs])
    total = 0.0 + 0.0j
    for sign, pairs in _pairings(n):
        term = complex(sign)
        for p, q in pairs:
            term *= kern[p, q]
        total += term
    return total
