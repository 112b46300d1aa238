"""Quasi-free Lindblad semigroups at the covariance-matrix level.

The state of the open system is tracked through its covariance matrix M,
which obeys the affine master equation (Majorana basis)

    dM/dt = -i [T_S, M] - 1/2 {Theta Theta*, M} + Theta M_B Theta*
          = G M + M G* + P,

with drift G = -i T_S - 1/2 Theta Theta* and pump P = Theta M_B Theta*.
The flow over a time step dt is affine, M(t + dt) = E_dt M(t) E_dt* + Q_dt,
so a time series on an evenly spaced grid steps one (E_dt, Q_dt) through the
semigroup law (``propagate_series``); ``propagate`` is its single-step case.
Uniqueness of the stationary solution, convergence, and the controllability
(Kalman) rank criterion are decided here, together with the gauge-invariant
reduction to L x L data and the support decomposition of degenerate
stationary states.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NonUniqueStationary, NumericalFailure, StructureViolation
from .phase import (
    TAU_NUM,
    BasisTag,
    BogoliubovTransform,
    CouplingMatrix,
    HamiltonianMatrix,
    _as_matrix,
    _hermiticity_residual,
    _max_abs,
    _scale,
    _tol,
    block_reduce,
    convert_basis,
    expm,
    validate_coupling,
    validate_qf,
)
from .quasifree import (
    CovarianceMatrix,
    SmallCovarianceMatrix,
    full_from_small,
    validate_small_covariance,
)

#: Bound on |G M + M G* + P| / |P|, the only numerical gate on the stationary solve.
RESIDUAL_TOL = 1e-10
#: Covariance eigenvalues within this distance of 1 count as pinned-empty modes.
PIN_TOL = 1e-7
#: Eigenvalues of T_S closer than this are treated as one degenerate cluster.
CLUSTER_GAP = 1e-8
#: Drift spectral abscissa below this value counts as Hurwitz.
HURWITZ_TOL = -1e-12


@dataclass(frozen=True, eq=False)
class SemigroupSpec:
    """Immutable data of a quasi-free semigroup, held in the Majorana basis."""

    t_s: HamiltonianMatrix
    theta: CouplingMatrix
    m_b: CovarianceMatrix
    drift: np.ndarray
    pump: np.ndarray

    @property
    def mode_count(self) -> int:
        return self.t_s.mode_count

    @property
    def bath_modes(self) -> int:
        return self.theta.bath_modes


@dataclass(frozen=True, eq=False)
class GaugeInvariantSpec:
    """Number-conserving semigroup data reduced to L x L matrices."""

    t_s0: np.ndarray
    theta0: np.ndarray
    m_b0: SmallCovarianceMatrix
    drift0: np.ndarray
    pump0: np.ndarray

    @property
    def mode_count(self) -> int:
        return self.t_s0.shape[0]

    @property
    def bath_modes(self) -> int:
        return self.theta0.shape[1]


@dataclass(frozen=True)
class ErgodicityReport:
    kalman_rank: int
    kalman_full: bool
    unique_stationary: bool
    converges: bool
    spectral_abscissa: float
    offending_eigenvalue: complex | None


def make_semigroup(t_s: HamiltonianMatrix, theta: CouplingMatrix, m_b: CovarianceMatrix) -> SemigroupSpec:
    """Assemble and validate a semigroup spec; inputs may carry either basis."""
    if theta.system_modes != t_s.mode_count:
        raise StructureViolation(
            f"coupling system side {theta.system_modes} does not match {t_s.mode_count} modes"
        )
    if theta.bath_modes != m_b.mode_count:
        raise StructureViolation(
            f"coupling bath side {theta.bath_modes} does not match {m_b.mode_count} bath modes"
        )
    t = convert_basis(t_s, BasisTag.MAJORANA)
    th = convert_basis(theta, BasisTag.MAJORANA)
    mb = convert_basis(m_b, BasisTag.MAJORANA)
    drift = -1j * t.entries - 0.5 * th.entries @ th.entries.conj().T
    pump = th.entries @ mb.entries @ th.entries.conj().T
    res = _hermiticity_residual(pump)
    if res > _tol(pump):
        raise StructureViolation("pump matrix is not Hermitian", res)
    eigs = np.linalg.eigvalsh((pump + pump.conj().T) / 2)
    if eigs.size and eigs.min() < -_tol(pump):
        raise StructureViolation("pump matrix is not positive semidefinite", float(-eigs.min()))
    return SemigroupSpec(t_s=t, theta=th, m_b=mb, drift=drift, pump=pump)


def make_gauge_invariant(t_s0, theta0, m_b0) -> GaugeInvariantSpec:
    """Assemble and validate an L x L gauge-invariant spec."""
    t0 = _as_matrix(t_s0)
    res = _hermiticity_residual(t0)
    if res > _tol(t0):
        raise StructureViolation("gauge-invariant Hamiltonian matrix must be Hermitian", res)
    th0 = _as_matrix(theta0)
    if th0.shape[0] != t0.shape[0]:
        raise StructureViolation(f"coupling rows {th0.shape[0]} do not match {t0.shape[0]} modes")
    mb0 = m_b0 if isinstance(m_b0, SmallCovarianceMatrix) else validate_small_covariance(m_b0)
    if mb0.mode_count != th0.shape[1]:
        raise StructureViolation(
            f"bath covariance size {mb0.mode_count} does not match coupling columns {th0.shape[1]}"
        )
    drift0 = -1j * t0 - 0.5 * th0 @ th0.conj().T
    pump0 = th0 @ mb0.entries @ th0.conj().T
    return GaugeInvariantSpec(t_s0=t0, theta0=th0, m_b0=mb0, drift0=drift0, pump0=pump0)


def lift_gauge_invariant(gi: GaugeInvariantSpec) -> SemigroupSpec:
    """Embed L x L gauge-invariant data into the full 2L-dimensional spec."""
    L, K = gi.mode_count, gi.bath_modes
    zl = np.zeros((L, L))
    zk = np.zeros((L, K))
    t_c = np.block([[gi.t_s0, zl], [zl, -gi.t_s0.conj()]])
    th_c = np.block([[gi.theta0, zk], [zk, -gi.theta0.conj()]])
    return make_semigroup(
        validate_qf(t_c, BasisTag.CREATION_ANNIHILATION),
        validate_coupling(th_c, BasisTag.CREATION_ANNIHILATION),
        full_from_small(gi.m_b0),
    )


def _numerical_rank(mat: np.ndarray, ref_scale: float | None = None) -> tuple[int, np.ndarray]:
    """Rank by singular-value threshold 64 * n * eps * scale; returns (rank, U)."""
    if mat.size == 0:
        return 0, np.zeros((mat.shape[0], mat.shape[0]))
    u, s, _ = np.linalg.svd(mat)
    scale = float(s[0]) if ref_scale is None else ref_scale
    thresh = 64 * max(mat.shape) * np.finfo(float).eps * scale
    return int(np.sum(s > thresh)), u


def _controllability(t: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """[Theta | T Theta | ... | T^(n-1) Theta], with T normalized for stable powers."""
    n = t.shape[0]
    norm = np.linalg.norm(t, 2)
    t_hat = t / norm if norm > 0 else t
    blocks = [theta]
    cur = theta
    for _ in range(n - 1):
        cur = t_hat @ cur
        blocks.append(cur)
    return np.hstack(blocks)


def _spectral_criterion(t: np.ndarray, theta: np.ndarray) -> tuple[bool, complex | None]:
    """True when no eigenvector of t lies in ker(theta*), clustering degeneracies."""
    w, v = scipy.linalg.eigh(t)
    theta_scale = max(float(np.abs(theta).max()), 1e-300)
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > CLUSTER_GAP:
            cluster = v[:, start:i]
            overlap = theta.conj().T @ cluster
            rank, _ = _numerical_rank(overlap, ref_scale=theta_scale)
            if rank < cluster.shape[1]:
                return False, complex(np.mean(w[start:i]))
            start = i
    return True, None


def _ergodicity_core(t: np.ndarray, theta: np.ndarray, drift: np.ndarray) -> ErgodicityReport:
    n = t.shape[0]
    ctrl = _controllability(t, theta)
    rank, u = _numerical_rank(ctrl)
    kalman_full = rank == n
    unique, offending = _spectral_criterion(t, theta)
    if unique != kalman_full:
        raise NumericalFailure(
            f"controllability rank {rank}/{n} disagrees with the spectral criterion ({unique})"
        )
    if kalman_full:
        converges = True
    else:
        q = u[:, rank:]
        block = q.conj().T @ t @ q
        lam = np.trace(block) / block.shape[0]
        tol = TAU_NUM * _scale(t)
        converges = (
            _max_abs(t @ q - q @ block) <= tol
            and _max_abs(block - lam * np.eye(block.shape[0])) <= tol
        )
    abscissa = float(np.linalg.eigvals(drift).real.max())
    return ErgodicityReport(
        kalman_rank=rank,
        kalman_full=kalman_full,
        unique_stationary=unique,
        converges=converges,
        spectral_abscissa=abscissa,
        offending_eigenvalue=offending,
    )


def ergodicity(spec: SemigroupSpec) -> ErgodicityReport:
    """Uniqueness/convergence criteria for the full 2L-dimensional semigroup."""
    return _ergodicity_core(spec.t_s.entries, spec.theta.entries, spec.drift)


def ergodicity_gauge_invariant(spec: GaugeInvariantSpec) -> ErgodicityReport:
    """Criteria evaluated on the L x L gauge-invariant data only."""
    return _ergodicity_core(spec.t_s0, spec.theta0, spec.drift0)


def _lyapunov_solve(drift: np.ndarray, pump: np.ndarray) -> np.ndarray:
    """Hermitian solution of G M + M G* = -P (Bartels-Stewart); callers gate uniqueness."""
    m = scipy.linalg.solve_continuous_lyapunov(drift, -pump)
    m = (m + m.conj().T) / 2
    residual = _max_abs(drift @ m + m @ drift.conj().T + pump)
    if not residual <= RESIDUAL_TOL * max(_max_abs(pump), 1e-300):
        raise NumericalFailure(f"stationary residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e} |P|")
    return m


def stationary(spec: SemigroupSpec) -> CovarianceMatrix:
    """Stationary covariance matrix of an ergodic semigroup (Majorana basis).

    Raises NonUniqueStationary when the uniqueness criterion fails; that is a
    property of the model, not a numerical defect.
    """
    return _stationary_given(spec, ergodicity(spec))


def _stationary_given(spec: SemigroupSpec, report: ErgodicityReport) -> CovarianceMatrix:
    """``stationary`` for a caller that already holds the spec's ergodicity report."""
    if not report.unique_stationary:
        raise NonUniqueStationary(
            f"controllability rank {report.kalman_rank} < {2 * spec.mode_count}"
        )
    m = _lyapunov_solve(spec.drift, spec.pump)
    cov = CovarianceMatrix(entries=m, basis=BasisTag.MAJORANA, mode_count=spec.mode_count)
    cov.validate()
    return cov


def stationary_gauge_invariant(spec: GaugeInvariantSpec) -> SmallCovarianceMatrix:
    """Stationary small covariance of an ergodic gauge-invariant semigroup."""
    report = ergodicity_gauge_invariant(spec)
    if not report.unique_stationary:
        raise NonUniqueStationary(
            f"controllability rank {report.kalman_rank} < {spec.mode_count}"
        )
    m = _lyapunov_solve(spec.drift0, spec.pump0)
    cov = SmallCovarianceMatrix(entries=m, mode_count=spec.mode_count)
    cov.validate()
    return cov


def _affine_flow(drift: np.ndarray, pump: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(E, Q) with M(t) = E M(0) E* + Q for dM/dt = G M + M G* + P.

    The Van Loan block exp(h [[G, P], [0, -G*]]) = [[E_h, F], [0, E_h^-*]]
    gives E_h and Q_h = F E_h* at a step h = t / 2^k with h |G|_1 <= 1, where
    the growing e^(-h G*) block stays bounded; k doublings
    (E, Q) <- (E^2, E Q E* + Q) then reach t.
    """
    n = drift.shape[0]
    k = max(int(np.frexp(t * np.abs(drift).sum(axis=0).max(initial=0.0))[1]), 0)
    block = np.block([[drift, pump], [np.zeros_like(drift), -drift.conj().T]])
    f = expm((t / 2**k) * block)
    e = f[:n, :n]
    q = f[:n, n:] @ e.conj().T
    for _ in range(k):
        q = e @ q @ e.conj().T + q
        e = e @ e
    if not (np.all(np.isfinite(e)) and np.all(np.isfinite(q))):
        raise NumericalFailure(f"affine flow overflowed within {k} doublings")
    return e, q


def propagate_series(
    spec: SemigroupSpec, m0: CovarianceMatrix, dt: float, steps: int
) -> Iterator[CovarianceMatrix]:
    """Yield M(0), M(dt), ..., M(steps dt) in the Majorana basis.

    Computes one affine flow (E, Q) over dt with ``_affine_flow`` and steps
    it by the semigroup law M((j+1) dt) = E M(j dt) E* + Q, whether or not
    the stationary state is unique.  M(0) is ``m0``, trusted by its tag;
    every stepped state is Hermitian-symmetrized and validated.  The checks
    on dt and m0 run when iteration starts.
    """
    if dt < 0:
        raise ValueError("propagation time must be nonnegative")
    if m0.mode_count != spec.mode_count:
        raise StructureViolation(
            f"initial covariance has {m0.mode_count} modes, spec has {spec.mode_count}"
        )
    e, q = _affine_flow(spec.drift, spec.pump, float(dt))
    e_adj = e.conj().T
    m = convert_basis(m0, BasisTag.MAJORANA)
    yield m
    for _ in range(steps):
        out = e @ m.entries @ e_adj + q
        m = CovarianceMatrix(
            entries=(out + out.conj().T) / 2, basis=BasisTag.MAJORANA, mode_count=spec.mode_count
        )
        m.validate()
        yield m


def propagate(spec: SemigroupSpec, m0: CovarianceMatrix, t: float) -> CovarianceMatrix:
    """Solve the covariance master equation up to time t >= 0.

    The single-step case of ``propagate_series``: one affine flow over t,
    applied once and validated once.  The result is returned in the basis
    of ``m0``.
    """
    *_, m_t = propagate_series(spec, m0, t, 1)
    return convert_basis(m_t, m0.basis)


def propagate_gauge_invariant(
    spec: GaugeInvariantSpec, m0: SmallCovarianceMatrix, a0, t: float
) -> tuple[SmallCovarianceMatrix, np.ndarray]:
    """Integrate the reduced block system of a gauge-invariant model.

    The small covariance block follows the same affine equation with the
    L x L drift and pump; the pairing block obeys
    dA/dt = G0 A + A G0^T, so A(t) = E A(0) E^T with the same E = e^(t G0)
    and decays to 0 whenever the uniqueness criterion holds.
    """
    if t < 0:
        raise ValueError("propagation time must be nonnegative")
    a_mat = _as_matrix(a0)
    L = spec.mode_count
    if m0.mode_count != L or a_mat.shape != (L, L):
        raise StructureViolation("block sizes do not match the gauge-invariant spec")
    e, q = _affine_flow(spec.drift0, spec.pump0, float(t))
    m_t = e @ m0.entries @ e.conj().T + q
    m_t = (m_t + m_t.conj().T) / 2
    a_t = e @ a_mat @ e.T
    out = SmallCovarianceMatrix(entries=m_t, mode_count=L)
    out.validate()
    return out, a_t


def real_case_kalman(c_t, c_theta) -> bool:
    """Controllability test for systems real in the creation/annihilation basis.

    For T = [[0, i C_T], [-i C_T^T, 0]] and Theta = [[0, i C_Th], [-i C_Th, 0]]
    (real C_T, C_Th), the 2L-dimensional criterion splits into two L-dimensional
    span conditions, each tested here by a numerical rank.
    """
    a = np.asarray(c_t, dtype=float)
    b = np.asarray(c_theta, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.ndim != 2 or b.shape[0] != a.shape[0]:
        raise StructureViolation(f"incompatible shapes {a.shape}, {b.shape}")
    L = a.shape[0]
    norm = np.linalg.norm(a, 2)
    a_hat = a / norm if norm > 0 else a

    def spans(m: np.ndarray) -> bool:
        gram = m @ m.T
        blocks = [b, m @ b]
        cur_even, cur_odd = b, m @ b
        for _ in range(L):
            cur_even = gram @ cur_even
            cur_odd = gram @ cur_odd
            blocks += [cur_even, cur_odd]
        rank, _ = _numerical_rank(np.hstack(blocks))
        return rank == L

    return spans(a_hat) and spans(a_hat.T)


def support_decomposition(m_inf: CovarianceMatrix) -> tuple[int, int, BogoliubovTransform]:
    """Split the mode space into pinned-empty modes and a faithful remainder.

    Block-reduces M - I/2 and counts covariance eigenvalues within ``PIN_TOL``
    of 1; the returned transform orders the pinned modes first.
    """
    mc = convert_basis(m_inf, BasisTag.CREATION_ANNIHILATION)
    L = m_inf.mode_count
    q = validate_qf(mc.entries - 0.5 * np.eye(2 * L), BasisTag.CREATION_ANNIHILATION)
    u, lam = block_reduce(q)
    mu = 0.5 + lam
    a = int(np.sum(mu >= 1.0 - PIN_TOL))
    return a, L - a, u
