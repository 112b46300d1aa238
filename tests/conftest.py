"""Shared random-model builders for the test suite, and a guard on the
process-wide garbage-collector state that ``fermicov.cli`` pauses."""

import gc

import numpy as np
import pytest

from fermicov import (
    BasisTag,
    CovarianceMatrix,
    HamiltonianMatrix,
    covariance_from_gibbs,
    make_semigroup,
    validate_coupling,
    validate_covariance,
    validate_qf,
)


@pytest.fixture(autouse=True)
def collector_state_kept():
    """Fail a test that leaves the cyclic garbage collector disabled or its
    thresholds changed, after restoring both for the tests that follow."""
    threshold = gc.get_threshold()
    yield
    left = (gc.isenabled(), gc.get_threshold())
    gc.enable()
    gc.set_threshold(*threshold)
    assert left == (True, threshold), "the test left the garbage collector disabled or re-tuned"


def random_qf(rng, modes: int) -> HamiltonianMatrix:
    """Random quadratic-form matrix in the creation/annihilation basis."""
    a = rng.standard_normal((modes, modes)) + 1j * rng.standard_normal((modes, modes))
    a = (a + a.conj().T) / 2
    b = rng.standard_normal((modes, modes)) + 1j * rng.standard_normal((modes, modes))
    b = (b - b.T) / 2
    blocks = np.block([[a, b], [-b.conj(), -a.conj()]])
    return validate_qf(blocks, BasisTag.CREATION_ANNIHILATION)


def random_coupling(rng, system_modes: int, bath_modes: int, scale: float = 1.0):
    w = scale * rng.standard_normal((2 * system_modes, 2 * bath_modes))
    return validate_coupling(1j * w, BasisTag.MAJORANA)


def random_covariance(rng, modes: int, beta: float = 1.0) -> CovarianceMatrix:
    """Strictly nondegenerate covariance, built as a Gibbs covariance."""
    return covariance_from_gibbs(random_qf(rng, modes), beta)


def random_semigroup(rng, system_modes: int, bath_modes: int, coupling_scale: float = 1.0):
    return make_semigroup(
        random_qf(rng, system_modes),
        random_coupling(rng, system_modes, bath_modes, coupling_scale),
        random_covariance(rng, bath_modes, beta=0.9),
    )


def strongly_coupled_semigroup():
    """Random L = 3, K = 1 model with |Theta| = 1e5, whose jump coefficient
    matrix (1/2) Theta (I - M_B) Theta* has eigenvalues up to about 1e10, so
    its rounding puts a zero eigenvalue at -3.9e-8.  That rounding depends on
    the last bits, so Theta is built as a model file stores it, with + 0.0
    turning the -0.0 real parts into 0.0."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 6))
    w = rng.normal(size=(6, 2))
    r = rng.uniform(-0.45, 0.45)
    a = x - x.T
    return make_semigroup(
        validate_qf(1j * a / np.linalg.norm(a, 2), BasisTag.MAJORANA),
        validate_coupling(1j * w / np.linalg.norm(w, 2) * 1e5 + 0.0, BasisTag.MAJORANA),
        validate_covariance(np.array([[0.5, 1j * r], [-1j * r, 0.5]]), BasisTag.MAJORANA),
    )
