"""Brute-force dense verification path for the covariance machinery.

Builds the exact generator

    L(rho) = -i [H_S, rho] + sum_k L_k rho L_k* - 1/2 {L_k* L_k, rho}
           = K rho + rho K* + sum_k L_k rho L_k*,  K = -i H_S - 1/2 sum_k L_k* L_k

on the 2^L-dimensional Fock space and applies its exponential to a density
matrix by Al-Mohy and Higham's truncated Taylor action (SIAM J. Sci. Comput.
33:488, 2011), so that covariance-level results can be checked against
exact density-matrix evolution with no integrator error.  The state stays a
2^L x 2^L matrix and each product with the generator is the second form
above, O(8^L) work; the 4^L x 4^L vectorization (``superoperator``) is built
only for the kernel (``stationary_dense``).  The jump operators are field
operators of the eigenvectors of the positive matrix (1/2) Theta (I - M_B)
Theta* (Majorana basis), all written in one call to ``fock._field`` from the
signed-permutation rows of the Majorana operators; depending on the
tensor-product identification a fermion parity factor is appended to some of
them (a sign on each column), which is invisible on even states but matters
for odd ones.  ``apply_generator`` keeps the first, literal form as the
reference for both.

Also provides the single interaction step of the underlying repeated
interaction process, whose tau -> 0 limit with coupling 1/sqrt(tau) is the
semigroup above.  Received states are trusted (see ``fock``), and each state
computed here is certified once by ``DenseState.validate``: ``evolve_dense`` and
``stationary_dense`` at 1e-8, each step's 2^L result at 1e-10, never its joint state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import (
    NonUniqueStationary,
    NotPSD,
    NumericalFailure,
    StructureViolation,
    TooLarge,
    UnsupportedIso,
)
from .fock import (
    N_DENSE_MAX,
    DenseOperator,
    DenseState,
    IsomorphismTag,
    _field,
    _parity,
    embed,
    embed_b1sb2,
    partial_trace_bath,
    quadratic_hamiltonian,
)
from .lindblad import SemigroupSpec
from .phase import BasisTag, HamiltonianMatrix, _max_abs, expm, validate_qf

#: Largest system size the oracle realizes.  ``evolve_dense`` works on
#: 2^L x 2^L matrices (at the cap, 64 x 64: tens of ms and under 2 MiB at t = 1);
#: ``stationary_dense`` builds the 4^L x 4^L superoperator (256 MiB at the cap).
L_ORACLE_MAX = 6
#: Jump-matrix eigenvalues in [-PSD_CLAMP * max(1, lam_max), 0) are clamped to
#: zero: the rounding in the eigenvalues of (1/2) Theta (I - M_B) Theta* grows
#: with |Theta|^2.
PSD_CLAMP = 1e-8
#: theta_m of Al-Mohy and Higham (2011), Table 3.1, for tolerance 2^-53: a
#: Taylor polynomial of degree m taken s times reaches backward error 2^-53
#: when |t A|_1 / s <= theta_m.
_TAYLOR_THETA = {
    5: 2.4e-3, 10: 1.4e-1, 15: 6.4e-1, 20: 1.4, 25: 2.4, 30: 3.5,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}


@dataclass(frozen=True, eq=False)
class DenseLindbladian:
    hamiltonian: DenseOperator
    jump_ops: list[DenseOperator]
    iso: IsomorphismTag
    mode_count: int


def _jump_matrix(theta: np.ndarray, m_b: np.ndarray) -> np.ndarray:
    """Coefficient matrix of the completely positive part, (1/2) Th (I - M_B) Th*."""
    k2 = m_b.shape[0]
    return 0.5 * theta @ (np.eye(k2) - m_b) @ theta.conj().T


def _jumps_from_matrix(c: np.ndarray, mode_count: int, twisted: bool) -> list[np.ndarray]:
    lam, vec = scipy.linalg.eigh((c + c.conj().T) / 2)
    if lam.size and lam.min() < -PSD_CLAMP * max(1.0, lam.max()):
        raise NotPSD(f"jump coefficient matrix has eigenvalue {lam.min():.3e}")
    lam = np.clip(lam, 0.0, None)
    cutoff = max(1e-12 * (lam.max() if lam.size else 0.0), 1e-300)
    keep = lam > cutoff
    jumps = _field((vec[:, keep] * np.sqrt(lam[keep])).T, mode_count)
    if twisted:
        jumps = jumps * _parity(mode_count)
    return list(jumps)


def build_lindbladian(spec: SemigroupSpec, iso: IsomorphismTag) -> DenseLindbladian:
    """Exact dense generator of the semigroup, in jump (GKLS) form.

    E_BS leaves the jumps untwisted, E_SB appends the system parity to all of
    them, and E_B1SB2 twists only the jumps fed by the trailing bath factor
    (which must be uncorrelated with the leading one).
    """
    L = spec.mode_count
    if L > L_ORACLE_MAX:
        raise TooLarge(f"{L} modes exceed the oracle cap {L_ORACLE_MAX}")
    theta = spec.theta.entries
    m_b = spec.m_b.entries
    k = spec.bath_modes
    if iso is not IsomorphismTag.E_B1SB2:
        jumps = _jumps_from_matrix(_jump_matrix(theta, m_b), L, twisted=iso is IsomorphismTag.E_SB)
    else:
        if k < 2:
            raise UnsupportedIso("E_B1SB2 needs at least two bath modes")
        first = [0, k]
        rest = list(range(1, k)) + list(range(k + 1, 2 * k))
        cross = m_b[np.ix_(first, rest)]
        if _max_abs(cross) > 1e-9 * max(1.0, _max_abs(m_b)):
            raise UnsupportedIso("E_B1SB2 requires a bath state factorized across the split")
        jumps = _jumps_from_matrix(
            _jump_matrix(theta[:, first], m_b[np.ix_(first, first)]), L, twisted=False
        )
        jumps += _jumps_from_matrix(
            _jump_matrix(theta[:, rest], m_b[np.ix_(rest, rest)]), L, twisted=True
        )
    return DenseLindbladian(
        hamiltonian=quadratic_hamiltonian(spec.t_s, 0.5),
        jump_ops=[DenseOperator(entries=j, mode_count=L) for j in jumps],
        iso=iso,
        mode_count=L,
    )


def apply_generator(lind: DenseLindbladian, rho: np.ndarray) -> np.ndarray:
    """L(rho) for a raw density-matrix array."""
    h = lind.hamiltonian.entries
    out = -1j * (h @ rho - rho @ h)
    for jump in lind.jump_ops:
        j = jump.entries
        jd = j.conj().T
        jdj = jd @ j
        out += j @ rho @ jd - 0.5 * (jdj @ rho + rho @ jdj)
    return out


def _effective_hamiltonian(lind: DenseLindbladian) -> np.ndarray:
    """K = -i H - 1/2 sum_k L_k* L_k."""
    jumps = [jump.entries for jump in lind.jump_ops]
    return -1j * lind.hamiltonian.entries - 0.5 * sum(j.conj().T @ j for j in jumps)


def superoperator(lind: DenseLindbladian) -> np.ndarray:
    """Column-stacked vectorization of the generator, a 4^L x 4^L matrix.

    Uses L(rho) = K rho + rho K* + sum_k L_k rho L_k* with the effective
    Hamiltonian K, so that vec(A rho B) = (B^T kron A) vec(rho) needs one
    Kronecker product per jump plus two.
    """
    eye = np.eye(2**lind.mode_count)
    k = _effective_hamiltonian(lind)
    s = np.kron(eye, k)
    s += np.kron(k.conj(), eye)
    for jump in lind.jump_ops:
        s += np.kron(jump.entries.conj(), jump.entries)
    return s


def _norm_bound(k: np.ndarray, jumps) -> float:
    """2 |k|_1 + sum_j |L_j|_1^2, a bound on the 1-norm of the vectorization of
    X -> k X + X k* + sum_j L_j X L_j*, since |A kron B|_1 = |A|_1 |B|_1."""
    return float(2 * np.linalg.norm(k, 1) + sum(np.linalg.norm(j, 1) ** 2 for j in jumps))


def generator_norm_bound(lind: DenseLindbladian) -> float:
    """2 |K|_1 + sum_k |L_k|_1^2, a bound on the 1-norm of ``superoperator(lind)``.

    Uses only 2^L x 2^L matrices, so it prices a dense evolution, whose cost
    grows with t times this norm, before any exponential is taken.
    """
    return _norm_bound(_effective_hamiltonian(lind), [jump.entries for jump in lind.jump_ops])


def _taylor_degree_and_steps(norm: float) -> tuple[int, int]:
    """Degree m and step count s minimizing m * s with norm / s <= theta_m."""
    if norm == 0:
        return 0, 1
    return min(
        ((m, int(np.ceil(norm / theta))) for m, theta in _TAYLOR_THETA.items()),
        key=lambda ms: ms[0] * ms[1],
    )


def _certified_state(rho: np.ndarray, tr: float, mode_count: int) -> DenseState:
    """rho's Hermitian part over tr, its real trace (exactly the part's), certified once at 1e-8."""
    out = DenseState(op=DenseOperator(entries=(rho + rho.conj().T) / 2 / tr, mode_count=mode_count))
    out.validate(tol=1e-8)
    return out


def evolve_dense(lind: DenseLindbladian, rho0: DenseState, t: float) -> DenseState:
    """exp(t L) rho0 by the truncated Taylor action, with rho kept as a matrix.

    Al-Mohy and Higham's Algorithm 3.2: the generator is shifted by
    mu = tr(L) / 4^L, which only moves K to K - mu/2 I, and exp(t L) rho0 is
    taken as s steps of a Taylor polynomial of degree at most m, each cut
    short once two consecutive terms fall below 2^-53 of the sum and
    rescaled by e^(t mu / s).  (m, s) come from t times the ``_norm_bound``
    of the shifted generator, an upper bound on the 1-norm their error
    analysis uses, so the backward-error guarantee holds.

    L preserves Hermiticity, so rho0 is replaced by its Hermitian part, which
    evolves to the same certified state, and each term X is Hermitian: with
    Y = [K; L_1; ...; L_J] X, its product is K X + (K X)* + sum_j (L_j X) L_j*,
    two matrix products.  The sum's max-norm is read only once the running
    bound |rho_start|_max + sum_j |term_j|_max passes the stop test, so each
    stop comes at the same term as with |rho|_max read every term.
    """
    if not (np.isfinite(t) and t >= 0):
        raise ValueError("evolution time must be nonnegative and finite")
    rho0.op.validate()
    if rho0.op.mode_count != lind.mode_count:
        raise StructureViolation("state and generator mode counts differ")
    dim = 2**lind.mode_count
    jumps = np.array([jump.entries for jump in lind.jump_ops], dtype=complex).reshape(-1, dim, dim)
    k = _effective_hamiltonian(lind)
    # tr of the vectorized generator: 2 dim Re tr K + sum_j |tr L_j|^2
    traces = np.trace(jumps, axis1=1, axis2=2)
    mu = (2 * dim * np.trace(k).real + float(np.sum(np.abs(traces) ** 2))) / dim**2
    k = k - 0.5 * mu * np.eye(dim)
    norm = t * _norm_bound(k, jumps)
    if not np.isfinite(norm):
        raise NumericalFailure(f"dense evolution norm bound t * |L - mu|_1 = {norm} is not finite")
    m, s = _taylor_degree_and_steps(norm)
    eta = np.exp(t * mu / s)
    left = np.concatenate([k[None], jumps]).reshape(-1, dim)
    right = jumps.conj().transpose(0, 2, 1).reshape(-1, dim)

    rho = (rho0.op.entries + rho0.op.entries.conj().T) / 2
    for _ in range(s):
        term = rho
        c1 = bound = np.abs(rho).max()
        for j in range(m):
            y = (left @ term).reshape(-1, dim, dim)
            term = y[0] + y[0].conj().T
            term += y[1:].transpose(1, 0, 2).reshape(dim, -1) @ right
            term *= t / (s * (j + 1))
            c2 = np.abs(term).max()
            rho += term
            bound += c2
            # (1 + 2^-40) covers the rounding of rho's and the bound's sums
            if c1 + c2 <= 2.0**-53 * (1 + 2.0**-40) * bound and c1 + c2 <= 2.0**-53 * np.abs(rho).max():
                break
            c1 = c2
        rho *= eta
    if not np.all(np.isfinite(rho)):
        raise NumericalFailure("dense evolution produced non-finite entries")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > 1e-8:
        raise NumericalFailure(f"dense evolution lost trace by {abs(tr - 1.0):.3e}")
    return _certified_state(rho, tr, lind.mode_count)


def stationary_dense(lind: DenseLindbladian) -> DenseState:
    """Kernel of the generator, normalized to a state.

    Raises NonUniqueStationary when the kernel is more than one-dimensional.
    """
    dim = 2**lind.mode_count
    kernel = scipy.linalg.null_space(superoperator(lind))
    if kernel.shape[1] == 0:
        raise NumericalFailure("generator kernel is empty")
    if kernel.shape[1] > 1:
        raise NonUniqueStationary(f"generator kernel has dimension {kernel.shape[1]}")
    rho = kernel[:, 0].reshape((dim, dim), order="F")
    tr = np.trace(rho).real
    if abs(tr) < 1e-12 * _max_abs((rho + rho.conj().T) / 2):
        raise NumericalFailure("stationary kernel vector has vanishing trace")
    return _certified_state(rho, tr, lind.mode_count)


def _joint_quadratic(spec: SemigroupSpec, lam: float) -> HamiltonianMatrix:
    """One-body matrix of H_S + lam V + H_B on the joint (system-first) space."""
    L, K = spec.mode_count, spec.bath_modes
    n = L + K
    sys_coords = list(range(L)) + list(range(n, n + L))
    bath_coords = list(range(L, L + K)) + list(range(n + L, n + K + L))
    t = np.zeros((2 * n, 2 * n), dtype=complex)
    t[np.ix_(sys_coords, sys_coords)] = spec.t_s.entries
    t[np.ix_(sys_coords, bath_coords)] = lam * spec.theta.entries
    t[np.ix_(bath_coords, sys_coords)] = lam * spec.theta.entries.conj().T
    return validate_qf(t, BasisTag.MAJORANA)


def repeated_interaction_step(
    spec: SemigroupSpec,
    omega: DenseState,
    tau: float,
    iso: IsomorphismTag = IsomorphismTag.E_SB,
) -> Callable[[DenseState], DenseState]:
    """One step of the repeated interaction process with coupling 1/sqrt(tau).

    Couples the system to a fresh bath copy in state ``omega`` for a time
    ``tau`` under the quadratic joint Hamiltonian and traces the bath out.
    Iterating floor(t / tau) times approaches the semigroup as tau -> 0.  The
    bath state must be even, which makes the order-sqrt(tau) term vanish.
    """
    if not 0 < tau < np.inf:
        raise ValueError("step length must be positive and finite")
    L, K = spec.mode_count, spec.bath_modes
    if L + K > N_DENSE_MAX:
        raise TooLarge(f"joint space of {L + K} modes exceeds the dense cap {N_DENSE_MAX}")
    omega.op.validate()
    if omega.op.mode_count != K:
        raise StructureViolation(f"bath state has {omega.op.mode_count} modes, spec wants {K}")
    par = _parity(K)
    res = _max_abs(omega.op.entries * par - par[:, None] * omega.op.entries)
    if res > 1e-9:
        raise StructureViolation("bath state must be even", res)

    h_joint = quadratic_hamiltonian(_joint_quadratic(spec, 1.0 / np.sqrt(tau)), 0.5)
    u = expm(-1j * tau * h_joint.entries)

    if iso is IsomorphismTag.E_B1SB2:
        if K < 2:
            raise UnsupportedIso("E_B1SB2 needs at least two bath modes")
        omega_1 = partial_trace_bath(omega, 1, K - 1)
        w = omega.op.entries.reshape(2, 2 ** (K - 1), 2, 2 ** (K - 1))
        omega_r = DenseOperator(entries=np.einsum("bibj->ij", w), mode_count=K - 1)
        if _max_abs(np.kron(omega_1.op.entries, omega_r.entries) - omega.op.entries) > 1e-9:
            raise UnsupportedIso("E_B1SB2 requires a factorized bath state")

    def step(rho: DenseState) -> DenseState:
        rho.op.validate()
        if iso is IsomorphismTag.E_B1SB2:
            joint = embed_b1sb2(omega_1.op, rho.op, omega_r)
        else:
            joint = embed(rho.op, omega.op, iso)
        evolved = u @ joint.entries @ u.conj().T
        out = partial_trace_bath(DenseState(op=DenseOperator(entries=evolved, mode_count=L + K)), L, K)
        out.validate()
        return out

    return step
