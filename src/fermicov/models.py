"""Constructors for the standard model families.

Every constructor returns validated semigroup data; closed-form stationary
expectations are attached where they exist.  Gauge-invariant models use the
convention of :mod:`fermicov.quasifree`: the bath parameters n1, nL enter as
the diagonal of the bath small covariance matrix, and the stationary small
covariance reproduces the closed-form barycenters of those numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructureViolation
from .lindblad import GaugeInvariantSpec, SemigroupSpec, make_gauge_invariant, make_semigroup
from .phase import BasisTag, HamiltonianMatrix, validate_coupling, validate_qf
from .quasifree import covariance_from_gibbs, full_from_small, validate_small_covariance


def _upper_shift(length: int) -> np.ndarray:
    return np.diag(np.ones(length - 1), 1)


def chain_hamiltonian(length: int) -> np.ndarray:
    """Nearest-neighbor hopping matrix D + D^T."""
    if length < 1:
        raise StructureViolation("chain needs at least one site")
    d = _upper_shift(length)
    return d + d.T


@dataclass(frozen=True)
class ChainParams:
    """Two-bath chain: end couplings theta1, theta_l > 0 and bath covariance
    diagonal n1, n_l in [0, 1]."""

    length: int
    theta1: float
    theta_l: float
    n1: float
    n_l: float

    def __post_init__(self):
        if self.length < 3:
            raise StructureViolation("two-bath chain needs at least 3 sites")
        if self.theta1 <= 0 or self.theta_l <= 0:
            raise StructureViolation("end couplings must be positive")
        if not (0 <= self.n1 <= 1 and 0 <= self.n_l <= 1):
            raise StructureViolation("bath parameters must lie in [0, 1]")


@dataclass(frozen=True)
class ChainStationaryPrediction:
    """Closed-form stationary data of the two-bath chain.

    p1, pm, pL are the first, bulk and last diagonal entries of the stationary
    small covariance, current is the uniform imaginary part of its first
    off-diagonal, and s is the common denominator.
    """

    p1: float
    pm: float
    pL: float
    current: float
    s: float

    def matrix(self, length: int) -> np.ndarray:
        diag = np.full(length, self.pm)
        diag[0] = self.p1
        diag[-1] = self.pL
        d = _upper_shift(length)
        return np.diag(diag).astype(complex) + 1j * self.current * (d - d.T)


@dataclass(frozen=True)
class XYParams:
    """Anisotropic spin chain driven at both ends.

    kappa in [0, 1] interpolates between the isotropic chain (0) and the
    Ising-like chain (1); h is the transverse field; bath1, bath2 are the
    single-mode small covariances of the two end baths.
    """

    length: int
    kappa: float
    h: float
    theta1: float
    theta2: float
    bath1: float
    bath2: float

    def __post_init__(self):
        if self.length < 2:
            raise StructureViolation("spin chain needs at least 2 sites")
        if not 0 <= self.kappa <= 1:
            raise StructureViolation("anisotropy must lie in [0, 1]")
        if self.theta1 <= 0 or self.theta2 <= 0:
            raise StructureViolation("end couplings must be positive")
        if not (0 <= self.bath1 <= 1 and 0 <= self.bath2 <= 1):
            raise StructureViolation("bath covariances must lie in [0, 1]")


def thermalization_model(t_s: HamiltonianMatrix, beta: float) -> SemigroupSpec:
    """Mode-by-mode coupling to a bath held in the Gibbs state of t_s itself.

    The coupling is i times the identity in the Majorana basis, so the pump
    reproduces the bath covariance exactly and the unique stationary state is
    the Gibbs covariance at inverse temperature beta, whatever t_s is.
    """
    L = t_s.mode_count
    theta = validate_coupling(1j * np.eye(2 * L), BasisTag.MAJORANA)
    m_b = covariance_from_gibbs(t_s, beta)
    return make_semigroup(t_s, theta, m_b)


def simple_bath_model(t_s0, theta0, beta: float) -> GaugeInvariantSpec:
    """Gauge-invariant model whose bath is Gibbs for the bare number operator.

    The bath small covariance is the scalar (1 + e^{-beta})^{-1} times the
    identity, and the same scalar matrix is stationary for every t_s0 and
    theta0 (it commutes with everything and balances pump against damping).
    """
    theta0 = np.asarray(theta0, dtype=complex)
    scalar = 1.0 / (1.0 + np.exp(-beta))
    m_b0 = scalar * np.eye(theta0.shape[1])
    return make_gauge_invariant(t_s0, theta0, m_b0)


def two_bath_chain(params: ChainParams) -> tuple[GaugeInvariantSpec, ChainStationaryPrediction]:
    """Hopping chain with one bath mode coupled at each end."""
    L = params.length
    t0 = chain_hamiltonian(L)
    theta0 = np.zeros((L, 2))
    theta0[0, 0] = params.theta1
    theta0[-1, 1] = params.theta_l
    m_b0 = np.diag([params.n1, params.n_l]).astype(complex)
    spec = make_gauge_invariant(t0, theta0, m_b0)

    q1, ql = params.theta1 * params.theta1, params.theta_l * params.theta_l  # inf, not OverflowError
    s = 4 * (q1 + ql) + q1 * ql * (q1 + ql)
    n1, nl = params.n1, params.n_l
    # s = (q1 + ql)(4 + q1 ql) divided out; a : c = q1 ql : 4, scaled to stay finite
    a, c = (1.0, 4 / (q1 * ql)) if q1 * ql > 4 else (q1 * ql, 4.0)
    b = (q1 * n1 + ql * nl) / (q1 + ql)
    prediction = ChainStationaryPrediction(
        p1=(a * n1 + c * b) / (a + c),
        pm=(a * (ql * n1 + q1 * nl) / (q1 + ql) + c * b) / (a + c),
        pL=(a * nl + c * b) / (a + c),
        current=2 * a * (n1 - nl) / ((q1 + ql) * (a + c)),
        s=s,
    )
    return spec, prediction


def one_end_chain(length: int, theta: float, m_b0: float) -> GaugeInvariantSpec:
    """Hopping chain coupled to a single bath mode at its first site."""
    if length < 1:
        raise StructureViolation("chain needs at least one site")
    theta0 = np.zeros((length, 1))
    theta0[0, 0] = theta
    return make_gauge_invariant(chain_hamiltonian(length), theta0, np.array([[m_b0]], dtype=complex))


def star_model(length: int, theta: float, m_b0: float) -> GaugeInvariantSpec:
    """Central site coupled to all leaves and to a single bath mode.

    For length >= 3 the controllability space is two-dimensional (rank 2), so
    the stationary state is not unique, but the complement consists of
    leaf-difference vectors annihilated by the Hamiltonian, so every initial
    state still converges.
    """
    if length < 2:
        raise StructureViolation("star needs at least 2 sites")
    t0 = np.zeros((length, length))
    t0[0, 1:] = 1.0
    t0[1:, 0] = 1.0
    theta0 = np.zeros((length, 1))
    theta0[0, 0] = theta
    return make_gauge_invariant(t0, theta0, np.array([[m_b0]], dtype=complex))


def xy_chain(params: XYParams) -> SemigroupSpec:
    """Anisotropic spin chain mapped to free fermions, driven at both ends.

    Assembled directly in the Majorana basis:

        T_S  = 1/2 [[0, i C_T], [-i C_T^T, 0]],
        C_T  = h I + (1 - kappa)/2 D + (1 + kappa)/2 D^T,

    with a coupling matrix whose only entries sit at the chain ends and carry
    the weights -(1 + kappa) theta1 / 2 and -(1 - kappa) theta2 / 2.  At
    kappa = 0 this is the two-bath hopping chain up to an overall rescaling
    of time, with identical stationary state.
    """
    L = params.length
    d = _upper_shift(L)
    c_t = params.h * np.eye(L) + 0.5 * (1 - params.kappa) * d + 0.5 * (1 + params.kappa) * d.T
    zl = np.zeros((L, L))
    t_maj = 0.5 * np.block([[zl, 1j * c_t], [-1j * c_t.T, zl]])
    t_s = validate_qf(t_maj, BasisTag.MAJORANA)

    c_th = np.zeros((L, 2))
    c_th[0, 0] = -0.5 * (1 + params.kappa) * params.theta1
    c_th[-1, 1] = -0.5 * (1 - params.kappa) * params.theta2
    zk = np.zeros((L, 2))
    theta = validate_coupling(
        np.block([[zk, 1j * c_th], [-1j * c_th, zk]]), BasisTag.MAJORANA
    )

    m_b = full_from_small(validate_small_covariance(np.diag([params.bath1, params.bath2])))
    return make_semigroup(t_s, theta, m_b)
