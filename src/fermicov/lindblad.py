"""Quasi-free Lindblad semigroups at the covariance-matrix level.

In the Majorana basis T_S = iA, Theta = iW and M = I/2 + iR with A, W and R
real, so the master equation

    dM/dt = -i [T_S, M] - 1/2 {Theta Theta*, M} + Theta M_B Theta* = G M + M G* + P

keeps I/2 fixed and moves R by dR/dt = G R + R G^T + Y, with the real drift
G = A - 1/2 W W^T (``spec.drift.real``) and Y = W R_B W^T (``spec.pump.imag``).
The stationary solve and the flow R(t) = E R(0) E^T + Q work on R in real
arithmetic; ``propagate_series`` steps one flow on an even grid into real
stacks of R, each certified once, and ``propagate`` is its single-step case.
I/2 + iR is built only for a covariance that leaves the module.

The stationary state is unique exactly when span{T_S^k Theta} is the whole
space (the Kalman-type criterion), which holds exactly when the drift is
Hurwitz.  Each spec computes one Schur form of its drift, lazily, and every
answer reads it: the eigenvalues with real part at least ``HURWITZ_TOL``, or
within rounding of 0, are reordered to lead, their count k is n minus the
Kalman rank, their leading k x k block decides convergence, the whole form
feeds the stationary solve, and its leading columns span the near-axis
subspace V_u, which the flow rotates exactly when it is dark.
Gauge-invariant L x L data decides only its own Kalman verdict, on the
complex Schur form of its drift; every state is read off the lifted spec,
which each gauge-invariant spec builds once, with its Schur form.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import NonUniqueStationary, NumericalFailure, StructureViolation
from .phase import (
    TAU_NUM,
    TAU_STRUCT,
    BasisTag,
    BogoliubovTransform,
    CouplingMatrix,
    HamiltonianMatrix,
    _as_matrix,
    _check_hermitian,
    _convert_entries,
    _max_abs,
    _scale,
    _tol,
    block_reduce,
    convert_basis,
    expm,
)
from .quasifree import (
    CovarianceMatrix,
    SmallCovarianceMatrix,
    _check_unit_spectrum,
    full_from_small,
    small_from_full,
    validate_small_covariance,
)

#: Bound on |G M + M G* + P| / |P|, the residual gate on the stationary solve.
RESIDUAL_TOL = 1e-10
#: Covariance eigenvalues within this distance of 1 count as pinned-empty modes.
PIN_TOL = 1e-7
#: Drift spectral abscissa below this value counts as Hurwitz.
HURWITZ_TOL = -1e-12
#: Entries in one block of stepped states, which bounds their memory by n alone.
_BLOCK_ENTRIES = 2**16


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

    @cached_property
    def _schur(self) -> tuple:
        return _near_axis(self.drift.real)


@dataclass(frozen=True, eq=False)
class GaugeInvariantSpec:
    """Number-conserving semigroup data reduced to L x L matrices."""

    t_s0: np.ndarray
    theta0: np.ndarray
    m_b0: SmallCovarianceMatrix

    @property
    def mode_count(self) -> int:
        return self.t_s0.shape[0]

    @property
    def bath_modes(self) -> int:
        return self.theta0.shape[1]

    @cached_property
    def _schur(self) -> tuple:
        return _near_axis(_drift(self.t_s0, self.theta0))

    @cached_property
    def _lifted(self) -> SemigroupSpec:
        """Valid by construction: Majorana blocks i*(real), and T's Hermiticity residual is T0's."""
        L, K = self.mode_count, self.bath_modes
        zl, zk = np.zeros((L, L)), np.zeros((L, K))
        t_c = np.block([[self.t_s0, zl], [zl, -self.t_s0.conj()]])
        th_c = np.block([[self.theta0, zk], [zk, -self.theta0.conj()]])
        return make_semigroup(
            HamiltonianMatrix(entries=t_c, basis=BasisTag.CREATION_ANNIHILATION, mode_count=L),
            CouplingMatrix(entries=th_c, basis=BasisTag.CREATION_ANNIHILATION, system_modes=L, bath_modes=K),
            full_from_small(self.m_b0),
        )


@dataclass(frozen=True)
class ErgodicityReport:
    kalman_rank: int
    kalman_full: bool
    unique_stationary: bool
    converges: bool
    spectral_abscissa: float
    offending_eigenvalue: complex | None


def _drift(t: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Drift G = -i T - 1/2 Theta Theta*."""
    return -1j * t - 0.5 * theta @ theta.conj().T


def make_semigroup(t_s: HamiltonianMatrix, theta: CouplingMatrix, m_b: CovarianceMatrix) -> SemigroupSpec:
    """Assemble a semigroup spec; inputs may carry either basis.

    P = Theta M_B Theta* is PSD because M_B is, so only overflow is checked."""
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
    drift = _drift(t.entries, th.entries)
    pump = th.entries @ mb.entries @ th.entries.conj().T
    if not (np.all(np.isfinite(drift)) and np.all(np.isfinite(pump))):
        raise StructureViolation("drift or pump has non-finite entries (the coupling overflowed)")
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
    return GaugeInvariantSpec(t_s0=t0, theta0=th0, m_b0=mb0)


def lift_gauge_invariant(gi: GaugeInvariantSpec) -> SemigroupSpec:
    """Embed L x L gauge-invariant data into the full 2L-dimensional spec, once per spec."""
    return gi._lifted


def _schur_eigenvalues(s: np.ndarray) -> np.ndarray:
    """Eigenvalues on the diagonal of a Schur form, in order.

    A 2 x 2 block of a real form is in LAPACK's standard form [[a, b], [c, a]]
    with b c < 0, whose eigenvalues are a +- i sqrt(-b c).  So the diagonal
    of either form holds the real parts.
    """
    lam = s.diagonal().astype(complex)
    j = np.flatnonzero(s.diagonal(-1))
    im = np.sqrt(np.abs(s[j, j + 1] * s[j + 1, j]))
    lam[j] += 1j * im
    lam[j + 1] -= 1j * im
    return lam


def _near_axis(g: np.ndarray) -> tuple:
    """(S, Z, k) of one Schur form G = Z S Z*, real for a real G.

    k counts the eigenvalues whose real part is at least HURWITZ_TOL or
    within its rounding of 0: the j-th real part, z_j* G z_j, moves by up to
    eps |z_j|^T |G| |z_j| when each entry of G moves by a relative eps.  Only
    when k > 0 is the form computed again, with those eigenvalues sorted to
    lead (cutting halfway to the next real part, clear of the reordering's
    rounding), so that the first k columns of Z span their invariant subspace.
    """
    s, z = scipy.linalg.schur(g)
    re = s.diagonal().real
    rounding = np.finfo(float).eps * np.einsum("ij,ij->j", np.abs(z), np.abs(g) @ np.abs(z))
    near = re >= np.minimum(HURWITZ_TOL, -rounding)
    if not near.any():
        return s, z, 0
    low = re[near].min()
    cut = (low + re[re < low].max(initial=-np.inf)) / 2
    return scipy.linalg.schur(g, sort=lambda x, y=None: np.real(x) >= cut)


def _ergodicity_core(t: np.ndarray, near_axis: tuple) -> ErgodicityReport:
    """The report read off a drift's sorted Schur form.

    On V_u the drift is -i T, so its k leading eigenvalues are -i mu for the
    eigenvalues mu of T there; every state converges when those agree within
    TAU_NUM |T|.
    """
    s, _, k = near_axis
    lam = _schur_eigenvalues(s[:k, :k])
    return ErgodicityReport(
        kalman_rank=len(s) - k,
        kalman_full=k == 0,
        unique_stationary=k == 0,
        converges=k == 0 or float(np.ptp(lam.imag)) <= TAU_NUM * _scale(t),
        spectral_abscissa=float(s.diagonal().real.max()),
        offending_eigenvalue=complex(1j * lam[0]) if k else None,
    )


def ergodicity(spec: SemigroupSpec) -> ErgodicityReport:
    """Uniqueness/convergence criteria for the full 2L-dimensional semigroup."""
    return _ergodicity_core(spec.t_s.entries, spec._schur)


def ergodicity_gauge_invariant(spec: GaugeInvariantSpec) -> ErgodicityReport:
    """Criteria evaluated on the L x L gauge-invariant data only."""
    return _ergodicity_core(spec.t_s0, spec._schur)


def stationary(spec: SemigroupSpec) -> CovarianceMatrix:
    """Stationary covariance matrix of an ergodic semigroup (Majorana basis).

    Solves G R + R G^T = -Y by Bartels-Stewart on the spec's real Schur form
    of G, plus one step of iterative refinement.  Raises NonUniqueStationary,
    a property of the model naming the abscissa against ``HURWITZ_TOL``, when
    ``ergodicity`` says not unique, and NumericalFailure when the residual
    exceeds ``RESIDUAL_TOL`` |P| or the solution fails its checks.
    """
    report = ergodicity(spec)
    if not report.unique_stationary:
        raise NonUniqueStationary(
            f"drift spectral abscissa {report.spectral_abscissa:.3e} >= min(HURWITZ_TOL = {HURWITZ_TOL:.0e},"
            f" -rounding): controllability rank {report.kalman_rank} < {2 * spec.mode_count}"
        )
    s, z, _ = spec._schur
    g, y = spec.drift.real, spec.pump.imag
    r = np.zeros_like(g)
    for _ in range(2):  # the solve, then one step of iterative refinement
        c = z.T @ (g @ r + r @ g.T + y) @ z
        x, scale, _ = scipy.linalg.lapack.dtrsyl(s, s, c, tranb="T")
        r = r - z @ x @ z.T / scale
    r = (r - r.T) / 2
    residual = _max_abs(g @ r + r @ g.T + y)
    if not residual <= RESIDUAL_TOL * max(_max_abs(spec.pump), 1e-300):
        raise NumericalFailure(f"stationary residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e} |P|")
    _check_unit_spectrum(r, "covariance", TAU_STRUCT, NumericalFailure)
    m = 0.5 * np.eye(len(r)) + 1j * r
    return CovarianceMatrix(entries=m, basis=BasisTag.MAJORANA, mode_count=spec.mode_count)


def stationary_gauge_invariant(spec: GaugeInvariantSpec) -> SmallCovarianceMatrix:
    """The small block of the lifted ``stationary``, whose verdict and rank it reports."""
    return small_from_full(stationary(lift_gauge_invariant(spec)))


def _affine_flow(drift: np.ndarray, pump: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Real (E, Q) with R(t) = E R(0) E^T + Q for dR/dt = G R + R G^T + Y, G and Y real.

    The Van Loan block exp(h [[G, Y], [0, -G^T]]) = [[E_h, F], [0, E_h^-T]]
    gives E_h and Q_h = F E_h^T at a step h = t / 2^k with h |G|_1 <= 1, where
    the growing e^(-h G^T) block stays bounded; k doublings
    (E, Q) <- (E^2, E Q E^T + Q) then reach t.  k is read off t = m 2^e as
    e plus the exponent of m |G|_1, as t |G|_1 overflows at the top of the
    float range.
    """
    n = drift.shape[0]
    mantissa, exponent = np.frexp(t)
    k = max(int(np.frexp(mantissa * np.abs(drift).sum(axis=0).max(initial=0.0))[1]) + int(exponent), 0)
    block = np.block([[drift, pump], [np.zeros_like(drift), -drift.T]])
    f = expm(np.ldexp(t, -k) * block)
    e = f[:n, :n]
    q = f[:n, n:] @ e.T
    for _ in range(k):
        q = e @ q @ e.T + q
        e = e @ e
    if not (np.all(np.isfinite(e)) and np.all(np.isfinite(q))):
        raise NumericalFailure(f"affine flow overflowed within {k} doublings")
    return e, q


def _majorana_flow(spec: SemigroupSpec, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Real (E, Q) with R(t) = E R(0) E^T + Q for dR/dt = G R + R G^T + Y.

    The spec's sorted real Schur form G = Z S Z^T splits the space into the
    near-axis V_u, spanned by U_u = Z[:, :k], and V_c, spanned by U_c = Z[:, k:].
    When V_u is dark (within 64 n eps of |G| and |Y|, G acts on it as the
    antisymmetric part A_u of S[:k, :k], S[:k, k:] = 0 and U_u^T Y = 0), V_u
    gets the exact rotation e^(t A_u) from one ``eigh``, with frequencies
    within rounding of |G - G^T| set to zero so that a dark mode stays put at
    any t, and only V_c goes through ``_affine_flow``; E = I + U (e^(tG) - I) U^T
    is exactly I at t = 0.  Otherwise the whole drift goes through ``_affine_flow``.
    """
    if not (np.isfinite(t) and t >= 0):
        raise ValueError("propagation time must be nonnegative and finite")
    g, y = spec.drift.real, spec.pump.imag
    s, z, k = spec._schur
    if k == 0:
        return _affine_flow(g, y, t)
    rounding = 64 * len(g) * np.finfo(float).eps
    u_u, u_c, a_u = z[:, :k], z[:, k:], (s[:k, :k] - s[:k, :k].T) / 2
    left_out = np.hstack([s[:k, :k] - a_u, s[:k, k:]])  # what the split drops from S
    if _max_abs(left_out) > rounding * _max_abs(g) or _max_abs(u_u.T @ y) > rounding * _max_abs(y):
        return _affine_flow(g, y, t)
    e_c, q_c = _affine_flow(s[k:, k:], u_c.T @ y @ u_c, t)
    w, v = scipy.linalg.eigh(1j * a_u)  # i A_u, Hermitian
    w[np.abs(w) <= rounding * _max_abs(g - g.T)] = 0.0
    rotation = ((v * np.expm1(-1j * t * w)) @ v.conj().T).real  # e^(t A_u) - I
    e = np.eye(len(g)) + u_c @ (e_c - np.eye(len(e_c))) @ u_c.T + u_u @ rotation @ u_u.T
    return e, u_c @ q_c @ u_c.T


def _stepped_blocks(e: np.ndarray, q: np.ndarray, r0: np.ndarray, steps: int) -> Iterator[np.ndarray]:
    """R(0) = r0, trusted, as a block of its own, then R_(j+1) = E R_j E^T + Q
    (antisymmetrized), j < steps, in new real stacks of at most
    max(1, ``_BLOCK_ENTRIES`` // n^2) states, each certified once at
    ``TAU_STRUCT``, the tol ``validate`` gives any state that can pass.  A
    failing stack yields the states before its first failing one and raises."""
    yield r0[None]
    n, r = len(r0), r0
    size = max(1, _BLOCK_ENTRIES // n**2)
    for start in range(0, steps, size):
        block = np.empty((min(size, steps - start), n, n))
        for j in range(len(block)):
            r = e @ r @ e.T + q
            block[j] = r = (r - r.T) / 2
        try:
            _check_unit_spectrum(block, "covariance", TAU_STRUCT, NumericalFailure)
        except NumericalFailure as exc:
            if exc.index:
                yield block[: exc.index]
            raise
        yield block


def _series_blocks(spec: SemigroupSpec, m0: CovarianceMatrix, dt: float, steps: int) -> Iterator[np.ndarray]:
    """The states R of ``propagate_series`` as the stacks of ``_stepped_blocks``."""
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    if m0.mode_count != spec.mode_count:
        raise StructureViolation(f"initial covariance has {m0.mode_count} modes, spec has {spec.mode_count}")
    e, q = _majorana_flow(spec, float(dt))
    return _stepped_blocks(e, q, convert_basis(m0, BasisTag.MAJORANA).entries.imag, steps)


def propagate_series(
    spec: SemigroupSpec, m0: CovarianceMatrix, dt: float, steps: int
) -> Iterator[CovarianceMatrix]:
    """Yield M(0), M(dt), ..., M(steps dt) in the Majorana basis.

    Computes one flow (E, Q) over dt with ``_majorana_flow`` and steps R by
    the semigroup law R((j+1) dt) = E R(j dt) E^T + Q, whether or not the
    stationary state is unique.  M(0) is ``m0`` in the Majorana basis, trusted
    by its tag; the stepped R, antisymmetrized, are certified a block at a
    time, so memory stays O(n^2) whatever ``steps`` is, and each is yielded
    as its own I/2 + iR.  A state that fails its check raises NumericalFailure
    after those before it.  The checks run when iteration starts.
    """
    m0 = convert_basis(m0, BasisTag.MAJORANA)
    blocks = _series_blocks(spec, m0, dt, steps)
    next(blocks)  # R(0): M(0) is m0 itself, whose real part may be off I/2 within tolerance
    yield m0
    for r in (r for block in blocks for r in block):
        m = 0.5 * np.eye(len(r)) + 1j * r
        yield CovarianceMatrix(entries=m, basis=BasisTag.MAJORANA, mode_count=spec.mode_count)


def propagate(spec: SemigroupSpec, m0: CovarianceMatrix, t: float) -> CovarianceMatrix:
    """Solve the covariance master equation up to time t >= 0.

    The single-step case of ``propagate_series``: one flow over t, applied
    once and certified once.  The result is returned in the basis of ``m0``.
    """
    *_, m_t = propagate_series(spec, m0, t, 1)
    return convert_basis(m_t, m0.basis)


def propagate_gauge_invariant(
    spec: GaugeInvariantSpec, m0: SmallCovarianceMatrix, a0, t: float
) -> tuple[SmallCovarianceMatrix, np.ndarray]:
    """Small block M0(t) and pairing block A(t), both read off one lifted flow (E, Q).

    M0(t) is ``small_from_full`` of the lifted M0 stepped once; A(t) = E0 A(0) E0^T
    with E0 the top-left creation/annihilation block of E, so A = 0 stays
    exactly 0 and A decays whenever the uniqueness criterion holds.
    """
    a_mat = _as_matrix(a0)
    L = spec.mode_count
    if m0.mode_count != L or a_mat.shape != (L, L):
        raise StructureViolation("block sizes do not match the gauge-invariant spec")
    e, q = _majorana_flow(lift_gauge_invariant(spec), float(t))
    *_, block = _stepped_blocks(e, q, convert_basis(full_from_small(m0), BasisTag.MAJORANA).entries.imag, 1)
    m_t = CovarianceMatrix(entries=0.5 * np.eye(2 * L) + 1j * block[-1], basis=BasisTag.MAJORANA, mode_count=L)
    e0 = _convert_entries(e, BasisTag.MAJORANA, BasisTag.CREATION_ANNIHILATION)[:L, :L]
    return small_from_full(m_t), e0 @ a_mat @ e0.T


def real_case_kalman(c_t, c_theta) -> bool:
    """Controllability test for systems real in the creation/annihilation basis.

    For T = [[0, i C_T], [-i C_T^T, 0]] and Theta = [[0, i C_Th], [-i C_Th, 0]]
    (real C_T, C_Th), the 2L-dimensional criterion splits into two L-dimensional
    span conditions: the Krylov space of m m^T on C = [C_Th, m C_Th] is the
    whole space, for m = C_T and m = C_T^T.  Each holds exactly when
    -i m m^T - 1/2 C C^T is Hurwitz, decided on its Schur form as in
    ``ergodicity``, with m scaled to |m|_2 = 1 and C to |C|_2 = 1.
    """
    a = _as_matrix(c_t, float)
    b = _as_matrix(c_theta, float)
    if a.shape[0] != a.shape[1] or b.shape[0] != a.shape[0]:
        raise StructureViolation(f"incompatible shapes {a.shape}, {b.shape}")
    a_hat = a / (np.linalg.norm(a, 2) or 1.0)

    def spans(m: np.ndarray) -> bool:
        c = np.hstack([b, m @ b])
        c = c / (np.linalg.norm(c, 2) or 1.0)
        return _near_axis(-1j * (m @ m.T) - 0.5 * c @ c.T)[2] == 0

    return spans(a_hat) and spans(a_hat.T)


def support_decomposition(m_inf: CovarianceMatrix) -> tuple[int, int, BogoliubovTransform]:
    """Split the mode space into pinned-empty modes and a faithful remainder.

    Block-reduces M - I/2, read as iR from M = I/2 + iR in the Majorana basis,
    and counts covariance eigenvalues within ``PIN_TOL`` of 1; the returned
    transform orders the pinned modes first.
    """
    r = convert_basis(m_inf, BasisTag.MAJORANA).entries.imag
    u, lam = block_reduce(HamiltonianMatrix(entries=1j * r, basis=BasisTag.MAJORANA, mode_count=len(r) // 2))
    a = int(np.sum(0.5 + lam >= 1.0 - PIN_TOL))
    return a, m_inf.mode_count - a, u
