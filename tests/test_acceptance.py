"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS lines).
"""

import time
import tracemalloc

import numpy as np
import pytest

from fermicov import (
    BasisTag,
    IsomorphismTag,
    build_lindbladian,
    convert_basis,
    covariance_from_gibbs,
    covariance_of,
    ergodicity,
    evolve_dense,
    field_operator,
    gibbs_state,
    lift_gauge_invariant,
    make_gauge_invariant,
    propagate,
    quadratic_hamiltonian,
    quasifree_state,
    repeated_interaction_step,
    simple_bath_model,
    small_from_full,
    stationary,
    stationary_dense,
    stationary_gauge_invariant,
    support_decomposition,
    two_bath_chain,
    validate_covariance,
    wick_moment,
    xy_chain,
)
from fermicov.lindblad import HURWITZ_TOL
from fermicov.models import ChainParams, XYParams, chain_hamiltonian

from conftest import random_covariance, random_semigroup

MAJ = BasisTag.MAJORANA
CA = BasisTag.CREATION_ANNIHILATION

CHAIN_PARAMS = [(1.0, 1.0, 1.0, 0.0), (2.0, 1.0, 1.0, 0.0), (1.0, 3.0, 0.7, 0.2)]


def _off_band_max(matrix):
    mask = np.ones_like(matrix, dtype=bool)
    n = matrix.shape[0]
    for k in (-1, 0, 1):
        mask &= ~np.eye(n, k=k, dtype=bool)
    return np.abs(matrix[mask]).max() if mask.any() else 0.0


def test_criterion_01_two_bath_chain_closed_form():
    for length in (3, 5, 10, 20):
        for th1, thl, n1, nl in CHAIN_PARAMS:
            start = time.perf_counter()
            gi, pred = two_bath_chain(ChainParams(length, th1, thl, n1, nl))
            small = stationary_gauge_invariant(gi).entries
            elapsed = time.perf_counter() - start
            assert np.abs(small - pred.matrix(length)).max() <= 1e-10
            assert _off_band_max(small) <= 1e-10
            assert elapsed < 1.0, f"L={length} took {elapsed:.2f}s"
            if length <= 5:
                # the full-phase-space Lyapunov route gives the same block
                lifted = convert_basis(stationary(lift_gauge_invariant(gi)), CA)
                assert np.abs(lifted.entries[:length, :length] - small).max() <= 1e-10
    print("ACCEPTANCE 1 PASS: chain stationary state matches the closed form")


def test_criterion_02_length_independent_current():
    currents = []
    for length in (3, 6, 12, 24):
        gi, _ = two_bath_chain(ChainParams(length, 1.3, 0.8, 0.9, 0.1))
        small = stationary_gauge_invariant(gi).entries
        currents.append(small[0, 1].imag)
        assert _off_band_max(small) <= 1e-10
    assert np.abs(np.array(currents) - currents[0]).max() <= 1e-10

    # a single-site perturbation of the hopping matrix breaks tridiagonality
    length = 6
    gi, _ = two_bath_chain(ChainParams(length, 1.3, 0.8, 0.9, 0.1))
    t0 = chain_hamiltonian(length)
    t0[1, 1] += 0.1
    perturbed = make_gauge_invariant(t0, gi.theta0, gi.m_b0)
    small = stationary_gauge_invariant(perturbed).entries
    assert _off_band_max(small) > 1e-6
    print("ACCEPTANCE 2 PASS: current is length-independent; perturbation breaks the band")


def test_criterion_03_oracle_equivalence():
    rng = np.random.default_rng(2025)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        L = int(rng.integers(1, 4))
        K = int(rng.integers(1, 3))
        spec = random_semigroup(rng, L, K)
        m0 = random_covariance(rng, L, beta=0.7)
        rho0 = quasifree_state(m0)
        for iso in (IsomorphismTag.E_SB, IsomorphismTag.E_BS):
            lind = build_lindbladian(spec, iso)
            for t in (0.3, 1.0, 3.0):
                dense = convert_basis(covariance_of(evolve_dense(lind, rho0, t)), MAJ)
                fast = convert_basis(propagate(spec, m0, t), MAJ)
                worst = max(worst, float(np.abs(dense.entries - fast.entries).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 120.0
    print(f"ACCEPTANCE 3 PASS: oracle deviation {worst:.2e} in {elapsed:.1f}s")


@pytest.mark.parametrize(
    "L, K, iso", [(4, 2, IsomorphismTag.E_SB), (5, 1, IsomorphismTag.E_BS)], ids=["L4", "L5"]
)
def test_criterion_03_oracle_equivalence_at_benchmark_sizes(L, K, iso):
    # the sizes the oracle-verify benchmark runs
    rng = np.random.default_rng(2026 + L)
    spec = random_semigroup(rng, L, K)
    m0 = random_covariance(rng, L, beta=0.7)
    dense = covariance_of(evolve_dense(build_lindbladian(spec, iso), quasifree_state(m0), 1.0))
    fast = propagate(spec, m0, 1.0)
    deviation = np.abs(convert_basis(dense, MAJ).entries - convert_basis(fast, MAJ).entries).max()
    assert deviation <= 1e-8


def test_criterion_03_oracle_equivalence_at_the_oracle_cap():
    # L = 6: rho is a 64 x 64 matrix; the 4096 x 4096 superoperator route peaked at 1283 MiB
    rng = np.random.default_rng(2032)
    spec = random_semigroup(rng, 6, 2)
    m0 = random_covariance(rng, 6, beta=0.7)
    lind = build_lindbladian(spec, IsomorphismTag.E_SB)
    rho0 = quasifree_state(m0)
    tracemalloc.start()
    try:
        rho_t = evolve_dense(lind, rho0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fast = propagate(spec, m0, 1.0)
    dense = covariance_of(rho_t)
    deviation = np.abs(convert_basis(dense, MAJ).entries - convert_basis(fast, MAJ).entries).max()
    assert deviation <= 1e-8
    assert peak < 16 * 2**20, f"evolve_dense peaked at {peak / 2**20:.1f} MiB"


def test_criterion_04_kalman_hurwitz_unique():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        L = int(rng.integers(1, 6))
        K = int(rng.integers(1, 4))
        spec = random_semigroup(rng, L, K)
        report = ergodicity(spec)
        hurwitz = report.spectral_abscissa < HURWITZ_TOL
        assert report.kalman_full == report.unique_stationary == hurwitz
        if not report.unique_stationary:
            continue
        m_inf = stationary(spec)
        m0 = validate_covariance(0.5 * np.eye(2 * L), MAJ)
        c0 = np.abs(m0.entries - m_inf.entries).max()
        if c0 < 1e-13:
            continue
        for t in (1.0, 2.0, 4.0):
            dist = np.abs(propagate(spec, m0, t).entries - m_inf.entries).max()
            envelope = 10.0 * c0 * np.exp(2 * report.spectral_abscissa * t)
            assert dist <= max(envelope, 1e-12)
    print("ACCEPTANCE 4 PASS: Kalman <=> Hurwitz <=> unique, with exponential decay")


def test_criterion_05_xy_uniqueness_boundary():
    for kappa in (0.0, 0.5, 0.99, 1.0):
        for h in (0.0, 0.3):
            for length in (3, 4, 6):
                spec = xy_chain(XYParams(length, kappa, h, 1.0, 1.0, 1.0, 0.0))
                unique = ergodicity(spec).unique_stationary
                assert unique == (kappa**2 != 1.0 or h != 0.0), (kappa, h, length)

    # the isotropic point reproduces the gauge-invariant chain
    for length in (3, 4, 6):
        xy = xy_chain(XYParams(length, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0))
        gi, _ = two_bath_chain(ChainParams(length, 1.0, 1.0, 1.0, 0.0))
        rep_xy = ergodicity(xy)
        rep_gi = ergodicity(lift_gauge_invariant(gi))
        assert rep_xy.unique_stationary == rep_gi.unique_stationary
        assert rep_xy.kalman_rank == rep_gi.kalman_rank
        occ_xy = small_from_full(stationary(xy)).entries.diagonal().real
        occ_gi = stationary_gauge_invariant(gi).entries.diagonal().real
        assert np.abs(occ_xy - occ_gi).max() <= 1e-10
    print("ACCEPTANCE 5 PASS: uniqueness iff kappa^2 != 1 or h != 0; kappa=0 matches the chain")


def test_criterion_06_quasifree_preservation():
    rng = np.random.default_rng(7)
    spec = random_semigroup(rng, 3, 1)
    lind = build_lindbladian(spec, IsomorphismTag.E_BS)
    rho0 = quasifree_state(random_covariance(rng, 3, beta=0.8))
    for t in (0.2, 0.6, 1.0, 2.0, 4.0):
        rho_t = evolve_dense(lind, rho0, t)
        cov_t = covariance_of(rho_t)
        for _ in range(6):
            word = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(4)]
            dense_op = np.eye(8, dtype=complex)
            for x in word:
                dense_op = dense_op @ field_operator(x, 3).entries
            dense = np.trace(rho_t.op.entries @ dense_op)
            assert abs(wick_moment(cov_t, word) - dense) <= 1e-8
    print("ACCEPTANCE 6 PASS: dense evolution keeps the four-point Wick identity")


def test_criterion_07_gibbs_covariance():
    rng = np.random.default_rng(11)
    from conftest import random_qf

    for _ in range(20):
        t = random_qf(rng, int(rng.integers(1, 4)))
        for beta in (0.3, 1.0, 3.0):
            rho = gibbs_state(quadratic_hamiltonian(t, 1.0), beta)
            dense = covariance_of(rho).entries
            closed = covariance_from_gibbs(t, beta).entries
            assert np.abs(dense - closed).max() <= 1e-9
    print("ACCEPTANCE 7 PASS: dense Gibbs covariance matches the closed form")


def test_criterion_08_repeated_interaction_limit():
    rng = np.random.default_rng(13)
    spec = random_semigroup(rng, 2, 1)
    omega = quasifree_state(spec.m_b)
    rho0 = quasifree_state(random_covariance(rng, 2, beta=0.8))
    target = evolve_dense(build_lindbladian(spec, IsomorphismTag.E_SB), rho0, 1.0)
    errors = []
    for tau in (0.1, 0.05, 0.025, 0.0125):
        step = repeated_interaction_step(spec, omega, tau)
        rho = rho0
        for _ in range(round(1.0 / tau)):
            rho = step(rho)
        errors.append(float(np.linalg.norm(rho.op.entries - target.op.entries)))
    assert all(a > b for a, b in zip(errors, errors[1:])), errors
    assert errors[-1] < 1e-2
    print(f"ACCEPTANCE 8 PASS: step errors {['%.1e' % e for e in errors]} decrease below 1e-2")


def test_criterion_09_simple_bath_degeneracy():
    beta = 1.0
    theta0 = np.array([[1.0], [0.0], [0.0]])
    plain = simple_bath_model(chain_hamiltonian(3), theta0, beta)
    detuned = simple_bath_model(
        chain_hamiltonian(3) + np.diag([0.4, -0.2, 0.1]), theta0, beta
    )
    small_a = stationary_gauge_invariant(plain).entries
    small_b = stationary_gauge_invariant(detuned).entries
    assert np.abs(small_a - small_b).max() <= 1e-10
    scalar = small_a[0, 0].real
    assert np.abs(small_a - scalar * np.eye(3)).max() <= 1e-10

    # the dense kernel adjudicates between the two candidate scalars
    rho_inf = stationary_dense(build_lindbladian(lift_gauge_invariant(plain), IsomorphismTag.E_BS))
    dense_scalar = covariance_of(rho_inf).entries[0, 0].real
    logistic = 1.0 / (1.0 + np.exp(-beta))
    saturating = 1.0 - np.exp(-beta)
    assert abs(dense_scalar - scalar) <= 1e-8
    assert abs(scalar - logistic) <= 1e-8
    assert abs(scalar - saturating) > 1e-2
    print(f"ACCEPTANCE 9 PASS: stationary scalar {scalar:.6f} = (1 + e^-beta)^-1, oracle-confirmed")


def test_criterion_10_support_decomposition():
    length = 3
    gi, _ = two_bath_chain(ChainParams(length, 1.0, 1.0, 1.0, 1.0))
    m_inf = stationary(lift_gauge_invariant(gi))
    a, c, u = support_decomposition(m_inf)
    assert a == length
    assert c == 0
    u.validate()
    print("ACCEPTANCE 10 PASS: empty bath pins every mode of the chain")
