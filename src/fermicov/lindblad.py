"""Quasi-free Lindblad semigroups at the covariance-matrix level.

In the Majorana basis T_S = iA, Theta = iW and M = I/2 + iR with A, W and R
real, so the master equation

    dM/dt = -i [T_S, M] - 1/2 {Theta Theta*, M} + Theta M_B Theta* = G M + M G* + P

keeps I/2 fixed and moves R by dR/dt = G R + R G^T + Y, with the real drift
G = A - 1/2 W W^T (``spec.drift.real``) and Y = W R_B W^T (``spec.pump.imag``).
The stationary solve and the flow R(t) = E R(0) E^T + Q work on R in real
arithmetic; ``propagate_series`` steps one flow on an even grid, and
``propagate`` is its single-step case.

The stationary state is unique exactly when span{T_S^k Theta} is the whole
space (the Kalman-type criterion).  Since T_S is Hermitian, ``_uncontrolled``
decides it in the eigenbasis of T_S (the PBH test): one ``eigh``, and per
cluster of near-equal eigenvalues one SVD of the cluster's overlap with
Theta, whose null vectors span that cluster's part of the uncontrolled
subspace V_u.  The Kalman rank is n - dim V_u, and the same V_u decides
convergence.  On V_u the drift is the antisymmetric A, so the flow rotates
it exactly.  Gauge-invariant L x L data keeps its own ergodicity test and
block propagation, and reads its stationary state off the lifted solve.
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
    _check_hermitian,
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
    small_from_full,
    validate_covariance,
    validate_small_covariance,
)

#: Bound on |G M + M G* + P| / |P|, the residual gate on the stationary solve.
RESIDUAL_TOL = 1e-10
#: Covariance eigenvalues within this distance of 1 count as pinned-empty modes.
PIN_TOL = 1e-7
#: Drift spectral abscissa below this value counts as Hurwitz.
HURWITZ_TOL = -1e-12
#: Eigenvalues of T_S closer than this are treated as one degenerate cluster.  A
#: dark mode split off by a gap g decays at a rate of about g^2, so the gap is
#: sqrt(-HURWITZ_TOL): a pair the clustering merges leaves a drift that is not Hurwitz.
CLUSTER_GAP = float(np.sqrt(-HURWITZ_TOL))


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


def _drift_pump(t: np.ndarray, theta: np.ndarray, m_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drift G = -i T - 1/2 Theta Theta* and pump P = Theta M_B Theta*."""
    theta_adj = theta.conj().T
    return -1j * t - 0.5 * theta @ theta_adj, theta @ m_b @ theta_adj


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
    drift, pump = _drift_pump(t.entries, th.entries, mb.entries)
    tol = _tol(pump)
    eigs = np.linalg.eigvalsh(_check_hermitian(pump, "pump matrix", tol))
    if eigs.size and eigs.min() < -tol:
        raise StructureViolation("pump matrix is not positive semidefinite", float(-eigs.min()))
    return SemigroupSpec(t_s=t, theta=th, m_b=mb, drift=drift, pump=pump)


def make_gauge_invariant(t_s0, theta0, m_b0) -> GaugeInvariantSpec:
    """Assemble and validate an L x L gauge-invariant spec."""
    t0 = _as_matrix(t_s0)
    _check_hermitian(t0, "gauge-invariant Hamiltonian matrix", _tol(t0))
    th0 = _as_matrix(theta0)
    if th0.shape[0] != t0.shape[0]:
        raise StructureViolation(f"coupling rows {th0.shape[0]} do not match {t0.shape[0]} modes")
    mb0 = m_b0 if isinstance(m_b0, SmallCovarianceMatrix) else validate_small_covariance(m_b0)
    if mb0.mode_count != th0.shape[1]:
        raise StructureViolation(
            f"bath covariance size {mb0.mode_count} does not match coupling columns {th0.shape[1]}"
        )
    drift0, pump0 = _drift_pump(t0, th0, mb0.entries)
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


def _uncontrolled(t: np.ndarray, theta: np.ndarray, majorana: bool = False) -> tuple:
    """Kalman rank, convergence, an offending eigenvalue and V_u from one ``eigh`` of t.

    Eigenvalues of the Hermitian t closer than ``CLUSTER_GAP`` form a cluster.
    For a cluster with eigenvectors V, the right singular vectors of Theta* V
    whose singular values do not exceed
    64 max(shape) eps max|Theta| max(1, |t|_2 / sep) span the cluster's part of
    the uncontrolled subspace V_u; sep, the cluster's distance to the rest of
    the spectrum, bounds the rounding error of V (Davis-Kahan).  Returns
    n - dim V_u; whether t acts on V_u as one multiple of the identity within
    TAU_NUM |t|, so that every state converges; and the mean eigenvalue of the
    first uncontrolled cluster; and orthonormal columns spanning V_u.  A
    Majorana spectrum is symmetric about 0, and with ``majorana`` it is
    symmetrized so that the clusters at +-lambda pair.
    """
    w, v = scipy.linalg.eigh(t)
    if majorana:
        w = (w - w[::-1]) / 2
    n = len(w)
    t_norm = float(np.abs(w).max(initial=0.0))
    base = 64 * np.finfo(float).eps * max(_max_abs(theta), 1e-300)
    overlap = theta.conj().T @ v
    edges = [0, *(np.flatnonzero(np.diff(w) > CLUSTER_GAP) + 1), n]
    on_vu = []  # eigenvalues of t restricted to each cluster's part of V_u
    v_u = [v[:, :0]]
    offending = None
    for lo, hi in zip(edges[:-1], edges[1:]):
        sep = min(w[lo] - w[lo - 1] if lo else np.inf, w[hi] - w[hi - 1] if hi < n else np.inf)
        block = overlap[:, lo:hi]
        _, s, vh = np.linalg.svd(block)
        thresh = base * max(block.shape) * max(1.0, t_norm / sep)
        null = vh[int(np.sum(s > thresh)) :].conj().T
        if null.shape[1]:
            lam = np.linalg.eigvalsh(null.conj().T @ (w[lo:hi, None] * null))
            offending = complex(lam.mean()) if offending is None else offending
            on_vu.append(lam)
            v_u.append(v[:, lo:hi] @ null)
    lam = np.concatenate(on_vu) if on_vu else np.zeros(0)
    converges = lam.size == 0 or float(np.ptp(lam)) <= TAU_NUM * _scale(t)
    return n - lam.size, converges, offending, np.hstack(v_u)


def _ergodicity_core(t: np.ndarray, theta: np.ndarray, drift: np.ndarray, majorana: bool) -> ErgodicityReport:
    rank, converges, offending, _ = _uncontrolled(t, theta, majorana)
    unique = rank == t.shape[0]
    return ErgodicityReport(
        kalman_rank=rank,
        kalman_full=unique,
        unique_stationary=unique,
        converges=converges,
        spectral_abscissa=float(np.linalg.eigvals(drift).real.max()),
        offending_eigenvalue=offending,
    )


def ergodicity(spec: SemigroupSpec) -> ErgodicityReport:
    """Uniqueness/convergence criteria for the full 2L-dimensional semigroup."""
    return _ergodicity_core(spec.t_s.entries, spec.theta.entries, spec.drift.real, majorana=True)


def ergodicity_gauge_invariant(spec: GaugeInvariantSpec) -> ErgodicityReport:
    """Criteria evaluated on the L x L gauge-invariant data only."""
    return _ergodicity_core(spec.t_s0, spec.theta0, spec.drift0, majorana=False)


def _checked(check, *args):
    """``check(*args)`` on a computed result.

    A result that fails its check is a numerical failure, not malformed
    input, so the StructureViolation is re-raised as NumericalFailure with
    the same message and residual.
    """
    try:
        return check(*args)
    except StructureViolation as exc:
        raise NumericalFailure(str(exc)) from exc


def _stationary_given(spec: SemigroupSpec, report: ErgodicityReport, n: int = 0) -> CovarianceMatrix:
    """``stationary`` given the spec's ergodicity report, whose rank counts n (2L by default) dimensions.

    Solves G R + R G^T = -Y by Bartels-Stewart on one real Schur form of G,
    then takes one step of iterative refinement with the same form.  Raises
    NumericalFailure when the report says unique but the drift is not
    Hurwitz, or when i (G R + R G^T + Y), the full residual, exceeds
    ``RESIDUAL_TOL`` |P|.
    """
    if not report.unique_stationary:
        raise NonUniqueStationary(f"controllability rank {report.kalman_rank} < {n or 2 * spec.mode_count}")
    if not report.spectral_abscissa < HURWITZ_TOL:
        a = report.spectral_abscissa
        raise NumericalFailure(f"unique, but drift spectral abscissa {a:.3e} >= HURWITZ_TOL = {HURWITZ_TOL:.0e}")
    g, y = spec.drift.real, spec.pump.imag
    s, z = scipy.linalg.schur(g, output="real")
    r = np.zeros_like(g)
    for _ in range(2):  # the solve, then one step of iterative refinement
        c = z.T @ (g @ r + r @ g.T + y) @ z
        x, scale, _ = scipy.linalg.lapack.dtrsyl(s, s, c, tranb="T")
        r = r - z @ x @ z.T / scale
    r = (r - r.T) / 2
    residual = _max_abs(g @ r + r @ g.T + y)
    if not residual <= RESIDUAL_TOL * max(_max_abs(spec.pump), 1e-300):
        raise NumericalFailure(f"stationary residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e} |P|")
    return _checked(validate_covariance, 0.5 * np.eye(len(r)) + 1j * r, BasisTag.MAJORANA)


def stationary(spec: SemigroupSpec) -> CovarianceMatrix:
    """Stationary covariance matrix of an ergodic semigroup (Majorana basis).

    Raises NonUniqueStationary when the uniqueness criterion fails; that is a
    property of the model, not a numerical defect.  A solution that fails
    its checks raises NumericalFailure.
    """
    return _stationary_given(spec, ergodicity(spec))


def stationary_gauge_invariant(spec: GaugeInvariantSpec) -> SmallCovarianceMatrix:
    """Stationary small covariance of an ergodic gauge-invariant semigroup, from the lifted solve."""
    report = ergodicity_gauge_invariant(spec)
    return small_from_full(_stationary_given(lift_gauge_invariant(spec), report, spec.mode_count))


def _affine_flow(drift: np.ndarray, pump: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(E, Q) with M(t) = E M(0) E* + Q for dM/dt = G M + M G* + P.

    The Van Loan block exp(h [[G, P], [0, -G*]]) = [[E_h, F], [0, E_h^-*]]
    gives E_h and Q_h = F E_h* at a step h = t / 2^k with h |G|_1 <= 1, where
    the growing e^(-h G*) block stays bounded; k doublings
    (E, Q) <- (E^2, E Q E* + Q) then reach t.  Real data gives a real flow.
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


def _majorana_flow(spec: SemigroupSpec, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Real (E, Q) with R(t) = E R(0) E^T + Q for dR/dt = G R + R G^T + Y.

    A Hurwitz drift has no V_u.  Otherwise V_u, being closed under
    conjugation, has a real orthonormal basis U_u; G keeps V_u and its
    complement V_c, acts on V_u as the antisymmetric A_u, and Y vanishes
    there.  So V_u gets the exact rotation e^(t A_u) from one ``eigh``, with
    eigenvalues within rounding of zero set to zero so that a dark mode stays
    put at any t, and only V_c goes through ``_affine_flow``.  Written as
    E = I + U (e^(tG) - I) U^T, E is exactly I at t = 0.
    """
    g, y = spec.drift.real, spec.pump.imag
    hurwitz = np.linalg.eigvals(g).real.max() < HURWITZ_TOL
    v_u = g[:, :0] if hurwitz else _uncontrolled(spec.t_s.entries, spec.theta.entries, majorana=True)[3]
    k = v_u.shape[1]
    if k == 0:
        return _affine_flow(g, y, t)
    basis = np.linalg.svd(np.hstack([v_u.real, v_u.imag]))[0]
    u_u, u_c = basis[:, :k], basis[:, k:]
    e_c, q_c = _affine_flow(u_c.T @ g @ u_c, u_c.T @ y @ u_c, t)
    a_u = u_u.T @ g @ u_u
    w, v = scipy.linalg.eigh(0.5j * (a_u - a_u.T))  # i A_u, Hermitian
    w[np.abs(w) <= 64 * len(g) * np.finfo(float).eps * _max_abs(g)] = 0.0
    rotation = ((v * np.expm1(-1j * t * w)) @ v.conj().T).real  # e^(t A_u) - I
    e = np.eye(len(g)) + u_c @ (e_c - np.eye(len(e_c))) @ u_c.T + u_u @ rotation @ u_u.T
    return e, u_c @ q_c @ u_c.T


def propagate_series(
    spec: SemigroupSpec, m0: CovarianceMatrix, dt: float, steps: int
) -> Iterator[CovarianceMatrix]:
    """Yield M(0), M(dt), ..., M(steps dt) in the Majorana basis.

    Computes one flow (E, Q) over dt with ``_majorana_flow`` and steps R by
    the semigroup law R((j+1) dt) = E R(j dt) E^T + Q, whether or not the
    stationary state is unique.  M(0) is ``m0``, trusted by its tag; every
    stepped state is I/2 + iR with R antisymmetrized, and one that fails its
    validation raises NumericalFailure.  The checks on dt, steps and m0 run
    when iteration starts.
    """
    if not (np.isfinite(dt) and dt >= 0):
        raise ValueError("propagation time must be nonnegative and finite")
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    if m0.mode_count != spec.mode_count:
        raise StructureViolation(
            f"initial covariance has {m0.mode_count} modes, spec has {spec.mode_count}"
        )
    e, q = _majorana_flow(spec, float(dt))
    m = convert_basis(m0, BasisTag.MAJORANA)
    yield m
    r = m.entries.imag
    half = 0.5 * np.eye(len(r))
    for _ in range(steps):
        r = e @ r @ e.T + q
        r = (r - r.T) / 2
        m = CovarianceMatrix(entries=half + 1j * r, basis=BasisTag.MAJORANA, mode_count=spec.mode_count)
        _checked(m.validate)
        yield m


def propagate(spec: SemigroupSpec, m0: CovarianceMatrix, t: float) -> CovarianceMatrix:
    """Solve the covariance master equation up to time t >= 0.

    The single-step case of ``propagate_series``: one flow over t,
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
    if not (np.isfinite(t) and t >= 0):
        raise ValueError("propagation time must be nonnegative and finite")
    a_mat = _as_matrix(a0)
    L = spec.mode_count
    if m0.mode_count != L or a_mat.shape != (L, L):
        raise StructureViolation("block sizes do not match the gauge-invariant spec")
    e, q = _affine_flow(spec.drift0, spec.pump0, float(t))
    m_t = e @ m0.entries @ e.conj().T + q
    m_t = (m_t + m_t.conj().T) / 2
    return _checked(validate_small_covariance, m_t), e @ a_mat @ e.T


def real_case_kalman(c_t, c_theta) -> bool:
    """Controllability test for systems real in the creation/annihilation basis.

    For T = [[0, i C_T], [-i C_T^T, 0]] and Theta = [[0, i C_Th], [-i C_Th, 0]]
    (real C_T, C_Th), the 2L-dimensional criterion splits into two L-dimensional
    span conditions: the Krylov space of C C^T on [C_Th, C C_Th] is the whole
    space, for C = C_T and C = C_T^T.  Each is decided in the eigenbasis of
    the symmetric C C^T by the same test as ``ergodicity``.
    """
    a = np.asarray(c_t, dtype=float)
    b = np.asarray(c_theta, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.ndim != 2 or b.shape[0] != a.shape[0]:
        raise StructureViolation(f"incompatible shapes {a.shape}, {b.shape}")
    norm = np.linalg.norm(a, 2)
    a_hat = a / norm if norm > 0 else a

    def spans(m: np.ndarray) -> bool:
        return _uncontrolled(m @ m.T, np.hstack([b, m @ b]))[0] == a.shape[0]

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
