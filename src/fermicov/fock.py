"""Exact dense Fock-space kernel.

Realizes annihilation and Majorana operators on the 2^n-dimensional Fock
space through the standard string construction: occupation words u in
{0, 1}^n index the basis with site 1 as the outermost tensor factor, and

    c_i |u> = delta(u_i, 1) * prod_{k < i} (-1)^{u_k} |..., u_i - 1, ...>.

Each Majorana operator g_i is a signed permutation, kept as the column and
phase of each row's one nonzero, computed by bit arithmetic on the row index
(``_majorana_rows``); the parity is kept as its diagonal.  No cache holds a
2^n x 2^n matrix.  Every operator linear in the fields is one indexed write,
``_field(x, n) = sum_i x_i g_i``: field operators and the oracle's jump
operators.  Each product g_i g_j is a signed permutation too, taking row r to
column r ^ mask with one mask per site pair: covariances are gathers of rho
along them, and a quadratic Hamiltonian is one indexed write of its summed
values per (mask, row).  The rest (Gibbs states, quasi-free states as Gibbs
states of a Hamiltonian built in the Majorana basis, tensor embeddings, partial
traces) is exact dense linear algebra, the brute-force check of the covariance
machinery.  Sizes are capped at ``N_DENSE_MAX`` total modes.

A ``DenseState`` is validated once, as in ``phase``: a function that receives one
checks only its shape and mode count.  Gibbs states and partial traces are states
by construction; ``covariance_of`` tags its result through ``validate_covariance``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import StructureViolation, TooLarge, UnsupportedIso
from .phase import (
    BasisTag,
    HamiltonianMatrix,
    _check_hermitian,
    _convert_entries,
    _real_modes,
    _tol,
    convert_basis,
)
from .quasifree import CovarianceMatrix, validate_covariance

#: Largest total mode count realized densely (4096-dimensional matrices).  A cold
#: ``quadratic_hamiltonian`` peaks at 75 MiB of traced memory and takes 0.09 s of
#: CPU at n = 11, and 282 MiB and 0.34 s at n = 12, of which its result is 64 and
#: 256 MiB (tracemalloc, one Xeon core; 0.05 and 0.15 s untraced).
N_DENSE_MAX = 12


class IsomorphismTag(Enum):
    """Identification of a joint fermionic space with a tensor product.

    E_SB keeps system operators untouched and strings bath operators with the
    system parity; E_BS does the opposite; E_B1SB2 places the system between
    two bath factors (first bath mode, system, remaining bath modes).
    """

    E_SB = "E_SB"
    E_BS = "E_BS"
    E_B1SB2 = "E_B1SB2"


@dataclass(frozen=True, eq=False)
class DenseOperator:
    entries: np.ndarray
    mode_count: int

    def validate(self) -> None:
        if self.mode_count > N_DENSE_MAX:
            raise TooLarge(f"{self.mode_count} modes exceed the dense cap {N_DENSE_MAX}")
        dim = 2**self.mode_count
        if self.entries.shape != (dim, dim):
            raise StructureViolation(f"shape {self.entries.shape} does not match {self.mode_count} modes")


@dataclass(frozen=True, eq=False)
class DenseState:
    op: DenseOperator

    def validate(self, tol: float = 1e-10) -> None:
        self.op.validate()
        m = self.op.entries
        herm = _check_hermitian(m, "state", tol)
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > tol:
            raise StructureViolation("state trace is not 1", abs(tr - 1.0))
        eigs = np.linalg.eigvalsh(herm)
        if eigs.min() < -tol:
            raise StructureViolation("state is not positive semidefinite", float(-eigs.min()))


def _check_size(n: int) -> None:
    if not 1 <= n <= N_DENSE_MAX:
        raise TooLarge(f"mode count {n} outside [1, {N_DENSE_MAX}]")


@lru_cache(maxsize=None)
def _majorana_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each g_i as the signed permutation it is: (columns, phases), each of shape
    (2n, 2^n), with phases[i, r] = (g_i)[r, columns[i, r]] the only nonzero of row r.

    Site i (counted from 0) is bit b_i = 1 << (n - 1 - i) of the row index r,
    since site 1 is the outermost tensor factor.  g_i and g_{i+n} both take row
    r to column r ^ b_i.  With s = (-1)^(number of occupied sites before i),
    the phase of g_i is s, and that of g_{i+n} is -i s when site i is empty in
    row r and +i s when it is occupied.
    """
    _check_size(n)
    rows = np.arange(2**n)
    bits = 1 << np.arange(n - 1, -1, -1)[:, None]
    occupied = (rows & bits) != 0
    s = 1.0 - 2.0 * ((np.cumsum(occupied, axis=0) - occupied) % 2)
    columns = np.tile(rows ^ bits, (2, 1))
    phases = np.concatenate([s, 1j * np.where(occupied, s, -s)])
    columns.flags.writeable = False
    phases.flags.writeable = False
    return columns, phases


def _field(coords: np.ndarray, n: int) -> np.ndarray:
    """sum_i x_i g_i for Majorana coordinates x of shape (..., 2n).  g_i and g_{i+n}
    share their columns, so site i writes only (r, columns_i[r]) of each row r."""
    columns, phases = _majorana_rows(n)
    dim = 2**n
    out = np.zeros(coords.shape[:-1] + (dim, dim), dtype=complex)
    out[..., np.arange(dim), columns[:n]] = (
        coords[..., :n, None] * phases[:n] + coords[..., n:, None] * phases[n:]
    )
    return out


def _parity(n: int) -> np.ndarray:
    """Diagonal of (-1)^N: the sign (-1)^popcount(r) of each basis row r."""
    return 1.0 - 2.0 * (np.bitwise_count(np.arange(2**n)) % 2)


def annihilation_ops(n: int) -> list[DenseOperator]:
    """The n annihilation operators c_i = (g_i + i g_{i+n}) / 2."""
    coords = np.hstack([np.eye(n), 1j * np.eye(n)]) / 2
    return [DenseOperator(entries=c, mode_count=n) for c in _field(coords, n)]


def majorana_ops(n: int) -> list[DenseOperator]:
    """The 2n Majorana operators g_i = c_i + c_i*, g_{i+n} = -i (c_i - c_i*)."""
    return [DenseOperator(entries=g, mode_count=n) for g in _field(np.eye(2 * n), n)]


def parity_op(n: int) -> DenseOperator:
    """(-1)^N, the total fermion parity."""
    _check_size(n)
    return DenseOperator(entries=np.diag(_parity(n)).astype(complex), mode_count=n)


def quadratic_hamiltonian(t: HamiltonianMatrix, prefactor: float) -> DenseOperator:
    """Dense realization of prefactor * F* T F.

    The quadratic-form coefficients in the Majorana expansion of F* T F are
    half the Majorana-basis matrix of T, so the output is
    prefactor * sum_ij (T_maj / 2)_ij g_i g_j.  The master-equation convention
    corresponds to ``prefactor=0.5``.
    """
    n = t.mode_count
    _check_size(n)
    h = prefactor * 0.5 * convert_basis(t, BasisTag.MAJORANA).entries
    # g_i g_j takes row r to column r ^ b_site(i) ^ b_site(j) with the sign that
    # covariance_of gathers along; site[b, a, r] sums the four terms of sites a, b
    columns, phases = _majorana_rows(n)
    dim = 2**n
    site = (h.T[:, :, None] * phases[:, columns] * phases).reshape(2, n, 2, n, dim).sum(axis=(0, 2))
    bits = 1 << np.arange(n - 1, -1, -1)
    pairs = bits[:, None] > bits  # site pairs i < j, after the diagonal's mask 0
    values = np.vstack([np.trace(site), (site + site.transpose(1, 0, 2))[pairs]])
    cols = np.arange(dim) ^ np.concatenate([[0], (bits[:, None] | bits)[pairs]])[:, None]
    out = np.zeros((dim, dim), dtype=complex)
    # Hermitize each value against its partner row r ^ mask, then one write
    out[np.arange(dim), cols] = (values + np.take_along_axis(values, cols, axis=1).conj()) / 2
    return DenseOperator(entries=out, mode_count=n)


def gibbs_state(h: DenseOperator, beta: float) -> DenseState:
    """exp(-beta H) / Z for a Hermitian dense Hamiltonian."""
    if not np.isfinite(beta):
        raise StructureViolation("beta must be finite")
    h.validate()
    w, v = scipy.linalg.eigh(_check_hermitian(h.entries, "Gibbs Hamiltonian", _tol(h.entries)))
    weights = np.exp(-beta * (w - (w.min() if beta >= 0 else w.max())))  # each exponent <= 0
    rho = (v * weights) @ v.conj().T
    rho /= np.trace(rho).real
    return DenseState(op=DenseOperator(entries=rho, mode_count=h.mode_count))


def quasifree_state(m: CovarianceMatrix) -> DenseState:
    """Dense quasi-free state with the given covariance matrix.

    Inverts the Gibbs closed form on the normal modes O^T R O = [[0, Lam], [-Lam, 0]]
    of R in M = I/2 + iR (``_real_modes``), whose +-lambda pairing is exact:
    T = i (O_1 G O_2^T - transpose), G = artanh(2 Lam), in the Majorana basis.
    Lam is clamped to [0, 1/2 - 1e-12], so pinned covariances are realized up
    to that clamping error.
    """
    L = m.mode_count
    o, lam = _real_modes(convert_basis(m, BasisTag.MAJORANA).entries.imag)
    upper = (o[:, :L] * np.arctanh(2 * np.clip(lam, 0.0, 0.5 - 1e-12))) @ o[:, L:].T
    t = HamiltonianMatrix(entries=1j * (upper - upper.T), basis=BasisTag.MAJORANA, mode_count=L)
    return gibbs_state(quadratic_hamiltonian(t, 1.0), 1.0)


def _b1sb2_permutation(L: int, K: int):
    """Index map and signs for the (first bath mode, system, rest) relabeling."""
    if K < 1:
        raise UnsupportedIso("E_B1SB2 needs at least one bath mode")
    dim_s, dim_r = 2**L, 2 ** (K - 1)
    # canonical index (u * 2 + v1) * dim_r + vr
    u, v1, vr = np.unravel_index(np.arange(dim_s * 2 * dim_r), (dim_s, 2, dim_r))
    return (v1 * dim_s + u) * dim_r + vr, 1.0 - 2.0 * (np.bitwise_count(u) * v1 % 2)


def _parity_halves(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    par = _parity(n)
    flipped = par[:, None] * x * par
    return (x + flipped) / 2, (x - flipped) / 2


def embed(op_s: DenseOperator, op_b: DenseOperator, iso: IsomorphismTag) -> DenseOperator:
    """Product of the system and bath images under the chosen identification.

    The identification maps system and bath operators into the 2^(L+K)
    space as a *-algebra morphism: under E_SB a system operator A goes to
    A x Id while the odd part of a bath operator picks up the system parity
    on the left factor; under E_BS it is the odd part of the system operator
    that is strung with the bath parity.  Images of system and bath
    annihilators therefore anticommute.  E_B1SB2 needs a factorized bath
    operator and is handled by :func:`embed_b1sb2`.
    """
    op_s.validate()
    op_b.validate()
    L, K = op_s.mode_count, op_b.mode_count
    _check_size(L + K)
    if iso is IsomorphismTag.E_SB:
        b_even, b_odd = _parity_halves(op_b.entries, K)
        joint = np.kron(op_s.entries, b_even) + np.kron(op_s.entries * _parity(L), b_odd)
    elif iso is IsomorphismTag.E_BS:
        a_even, a_odd = _parity_halves(op_s.entries, L)
        joint = np.kron(a_even, op_b.entries) + np.kron(a_odd, _parity(K)[:, None] * op_b.entries)
    else:
        raise UnsupportedIso("embed supports E_SB and E_BS; use embed_b1sb2 for the split form")
    return DenseOperator(entries=joint, mode_count=L + K)


def embed_b1sb2(op_b1: DenseOperator, op_s: DenseOperator, op_br: DenseOperator) -> DenseOperator:
    """Joint realization of b1 x system x rest-of-bath under the split form.

    Pulls the product back from the (first bath mode, system, remaining bath)
    mode ordering to the canonical system-first space through the signed mode
    reordering; for even bath factors this is the inverse of the composed
    identification used for spin chains driven at both ends.
    """
    L = op_s.mode_count
    K = op_b1.mode_count + op_br.mode_count
    if op_b1.mode_count != 1:
        raise UnsupportedIso("E_B1SB2 splits off exactly one leading bath mode")
    _check_size(L + K)
    perm, sign = _b1sb2_permutation(L, K)
    big = np.kron(np.kron(op_b1.entries, op_s.entries), op_br.entries)
    joint = big[np.ix_(perm, perm)] * np.outer(sign, sign)
    return DenseOperator(entries=joint, mode_count=L + K)


def partial_trace_bath(rho: DenseState, system_modes: int, bath_modes: int) -> DenseState:
    """Trace out the bath factor of a state on the canonical joint space."""
    rho.op.validate()
    if rho.op.mode_count != system_modes + bath_modes:
        raise StructureViolation(
            f"state has {rho.op.mode_count} modes, expected {system_modes + bath_modes}"
        )
    dim_s, dim_b = 2**system_modes, 2**bath_modes
    m = rho.op.entries.reshape(dim_s, dim_b, dim_s, dim_b)
    reduced = np.einsum("ibjb->ij", m)
    return DenseState(op=DenseOperator(entries=reduced, mode_count=system_modes))


def covariance_of(rho: DenseState) -> CovarianceMatrix:
    """Covariance matrix tr(rho F F*) in the creation/annihilation basis.

    Its Majorana-basis entries are (1/2) tr(rho g_i g_j).  g_i g_j is the signed
    permutation taking row r to column columns_j[columns_i[r]] with phase
    phases_i[r] phases_j[columns_i[r]], so each trace is one gather of rho.
    """
    rho.op.validate()
    n = rho.op.mode_count
    columns, phases = _majorana_rows(n)
    ends = columns[:, columns]  # [j, i, r], like signs
    signs = phases[:, columns] * phases
    traces = (signs * rho.op.entries[ends, np.arange(2**n)]).sum(axis=-1).T
    cov = _convert_entries(0.5 * traces, BasisTag.MAJORANA, BasisTag.CREATION_ANNIHILATION)
    return validate_covariance((cov + cov.conj().T) / 2, BasisTag.CREATION_ANNIHILATION)


def field_operator(coords, n: int) -> DenseOperator:
    """phi(x) = sum_i x_i g_i for Majorana coordinates x."""
    coords = np.asarray(coords, dtype=complex)
    if coords.shape != (2 * n,):
        raise StructureViolation(f"coordinates have shape {coords.shape}, expected {(2 * n,)}")
    if not np.isfinite(coords).all():
        raise StructureViolation("coordinates have non-finite entries", float("inf"))
    return DenseOperator(entries=_field(coords, n), mode_count=n)
