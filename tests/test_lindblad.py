from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from fermicov import (
    BasisTag,
    BogoliubovTransform,
    CouplingMatrix,
    CovarianceMatrix,
    HamiltonianMatrix,
    NonUniqueStationary,
    NumericalFailure,
    SmallCovarianceMatrix,
    convert_basis,
    ergodicity,
    ergodicity_gauge_invariant,
    expm,
    full_from_small,
    lift_gauge_invariant,
    make_gauge_invariant,
    make_semigroup,
    one_end_chain,
    propagate,
    propagate_gauge_invariant,
    propagate_series,
    real_case_kalman,
    star_model,
    stationary,
    stationary_gauge_invariant,
    support_decomposition,
    thermalization_model,
    two_bath_chain,
    validate_coupling,
    validate_covariance,
    validate_qf,
    validate_small_covariance,
)
import fermicov.lindblad as lindblad
from fermicov.lindblad import CLUSTER_GAP, HURWITZ_TOL
from fermicov.models import ChainParams, XYParams, chain_hamiltonian, xy_chain

from conftest import random_coupling, random_covariance, random_qf, random_semigroup

CA = BasisTag.CREATION_ANNIHILATION
MAJ = BasisTag.MAJORANA


def _zero_coupling_spec(rng, modes, bath_modes=1):
    t = random_qf(rng, modes)
    theta = validate_coupling(np.zeros((2 * modes, 2 * bath_modes)), MAJ)
    m_b = random_covariance(rng, bath_modes)
    return make_semigroup(t, theta, m_b)


def _vectorized_flow(spec, m0, t):
    """M(t) from the affine flow exponentiated on the n^2 + 1 entries of (vec M, 1)."""
    n = spec.drift.shape[0]
    eye = np.eye(n)
    aug = np.zeros((n * n + 1, n * n + 1), dtype=complex)
    aug[: n * n, : n * n] = np.kron(eye, spec.drift) + np.kron(spec.drift.conj(), eye)
    aug[: n * n, n * n] = spec.pump.flatten(order="F")
    e = expm(t * aug)
    vec = e[: n * n, : n * n] @ m0.flatten(order="F") + e[: n * n, n * n]
    return vec.reshape((n, n), order="F")


class TestPropagate:
    def test_zero_coupling_is_unitary_conjugation(self):
        rng = np.random.default_rng(0)
        spec = _zero_coupling_spec(rng, 2)
        m0 = random_covariance(rng, 2, beta=0.6)
        t = 0.8
        out = convert_basis(propagate(spec, m0, t), MAJ).entries
        t_maj = spec.t_s.entries
        u = expm(-1j * t * t_maj)
        expected = u @ convert_basis(m0, MAJ).entries @ u.conj().T
        assert np.abs(out - expected).max() < 1e-10
        spec_in = np.sort(np.linalg.eigvalsh(convert_basis(m0, MAJ).entries))
        spec_out = np.sort(np.linalg.eigvalsh(out))
        assert np.abs(spec_in - spec_out).max() < 1e-10

    def test_thermalization_relaxes_to_bath(self):
        rng = np.random.default_rng(1)
        t_s = random_qf(rng, 2)
        spec = thermalization_model(t_s, 1.0)
        m0 = random_covariance(rng, 2, beta=0.3)
        out = convert_basis(propagate(spec, m0, 50.0), MAJ).entries
        assert np.abs(out - spec.m_b.entries).max() < 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_semigroup_law(self, seed):
        rng = np.random.default_rng(10 + seed)
        spec = random_semigroup(rng, rng.integers(1, 6), rng.integers(1, 4))
        m0 = random_covariance(rng, spec.mode_count, beta=0.5)
        s, t = 0.4, 0.9
        two_step = propagate(spec, propagate(spec, m0, s), t)
        one_step = propagate(spec, m0, s + t)
        assert np.abs(two_step.entries - one_step.entries).max() < 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_output_structure(self, seed):
        rng = np.random.default_rng(20 + seed)
        spec = random_semigroup(rng, 3, 2)
        m0 = random_covariance(rng, 3, beta=0.4)
        out = convert_basis(propagate(spec, m0, 1.3), MAJ)
        assert np.abs(out.entries.real - 0.5 * np.eye(6)).max() < 1e-9
        r = out.entries.imag
        assert np.abs(r + r.T).max() < 1e-9
        eigs = np.linalg.eigvalsh(out.entries)
        assert eigs.min() > -1e-9 and eigs.max() < 1 + 1e-9

    @pytest.mark.parametrize("t", [10.0, 300.0, 1000.0])
    @pytest.mark.parametrize("unique", [False, True])
    def test_matches_vectorized_flow_at_long_times(self, unique, t):
        rng = np.random.default_rng(30)
        if unique:
            spec = random_semigroup(rng, 3, 2)
        else:
            spec = lift_gauge_invariant(star_model(3, 1.0, 0.5))
        assert ergodicity(spec).unique_stationary == unique
        m0 = convert_basis(random_covariance(rng, 3, beta=0.5), MAJ)
        out = propagate(spec, m0, t).entries
        assert np.abs(out - _vectorized_flow(spec, m0.entries, t)).max() < 1e-10

    @pytest.mark.parametrize("unique", [False, True])
    def test_series_steps_match_propagate(self, unique):
        rng = np.random.default_rng(32)
        if unique:
            spec = random_semigroup(rng, 3, 2)
        else:
            spec = lift_gauge_invariant(star_model(3, 1.0, 0.5))
        m0 = random_covariance(rng, 3, beta=0.5)
        dt = 2.5
        series = list(propagate_series(spec, m0, dt, 40))
        assert np.array_equal(series[0].entries, convert_basis(m0, MAJ).entries)
        for j, m_t in enumerate(series):
            expected = convert_basis(propagate(spec, m0, j * dt), MAJ).entries
            assert np.abs(m_t.entries - expected).max() < 1e-10

    def test_time_zero_returns_initial_state(self):
        rng = np.random.default_rng(31)
        spec = lift_gauge_invariant(star_model(3, 1.0, 0.5))
        r = convert_basis(random_covariance(rng, 3), MAJ).entries.imag
        # the flow steps R in M = I/2 + iR, so an m0 of exactly that form comes back bit for bit
        m0 = validate_covariance(0.5 * np.eye(6) + 0.5j * (r - r.T), MAJ)
        assert np.array_equal(propagate(spec, m0, 0.0).entries, m0.entries)

    def test_star_stays_on_its_state_up_to_t_1e300(self):
        # the star's uncontrolled modes rotate exactly; ~1000 doublings of them overflowed
        rng = np.random.default_rng(33)
        for L in (3, 6):
            spec = lift_gauge_invariant(star_model(L, 1.0, 0.5))
            for m0 in (validate_covariance(0.5 * np.eye(2 * L), MAJ), random_covariance(rng, L, beta=0.5)):
                settled = propagate(spec, m0, 1e4).entries
                for t in np.geomspace(1e6, 1e300, 50):
                    assert np.abs(propagate(spec, m0, t).entries - settled).max() < 1e-12

    def test_rejects_negative_time(self):
        rng = np.random.default_rng(2)
        spec = random_semigroup(rng, 2, 1)
        with pytest.raises(ValueError):
            propagate(spec, random_covariance(rng, 2), -1.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_rejects_non_finite_time(self, t):
        rng = np.random.default_rng(2)
        spec = random_semigroup(rng, 2, 1)
        m0 = random_covariance(rng, 2)
        message = "propagation time must be nonnegative and finite"
        with pytest.raises(ValueError, match=message):
            propagate(spec, m0, t)
        with pytest.raises(ValueError, match=message):
            next(propagate_series(spec, m0, t, 3))
        gi = one_end_chain(2, 1.0, 0.3)
        with pytest.raises(ValueError, match=message):
            propagate_gauge_invariant(gi, validate_small_covariance(0.5 * np.eye(2)), np.zeros((2, 2)), t)

    def test_series_rejects_negative_steps(self):
        rng = np.random.default_rng(2)
        spec = random_semigroup(rng, 2, 1)
        with pytest.raises(ValueError, match="step count"):
            next(propagate_series(spec, random_covariance(rng, 2), 0.1, -3))


class TestStationary:
    def test_thermalization_fixed_point(self):
        rng = np.random.default_rng(3)
        spec = thermalization_model(random_qf(rng, 3), 0.7)
        m_inf = stationary(spec)
        assert np.abs(m_inf.entries - spec.m_b.entries).max() < 1e-11

    def test_two_bath_chain_matches_closed_form(self):
        gi, pred = two_bath_chain(ChainParams(length=5, theta1=1.0, theta_l=1.0, n1=1.0, n_l=0.0))
        m_inf = stationary(lift_gauge_invariant(gi))
        small = convert_basis(m_inf, CA).entries[:5, :5]
        expected = np.diag([0.6, 0.5, 0.5, 0.5, 0.4]).astype(complex)
        d = np.diag(np.ones(4), 1)
        expected += 0.2j * (d - d.T)
        assert np.abs(small - expected).max() < 1e-11
        assert (pred.p1, pred.pm, pred.pL, pred.current) == (0.6, 0.5, 0.4, 0.2)

    def test_two_bath_chain_full_space_at_length_40(self):
        L = 40
        gi, pred = two_bath_chain(ChainParams(length=L, theta1=1.3, theta_l=0.7, n1=0.9, n_l=0.2))
        full = convert_basis(stationary(lift_gauge_invariant(gi)), CA).entries
        assert np.abs(full[:L, :L] - pred.matrix(L)).max() < 1e-10
        assert np.abs(full[:L, L:]).max() < 1e-10

    def test_star_not_unique(self):
        spec = lift_gauge_invariant(star_model(3, 1.0, 0.5))
        with pytest.raises(NonUniqueStationary):
            stationary(spec)

    def test_star_not_unique_gauge_invariant(self):
        with pytest.raises(NonUniqueStationary, match="rank 2 < 3"):
            stationary_gauge_invariant(star_model(3, 1.0, 0.5))

    @pytest.mark.parametrize("theta", [1e3, 1e4, 1e5, 1e6, 1e7, 1e8])
    def test_stiff_one_end_chain_is_right_or_fails(self, theta):
        # the slowest decay rate falls like 1/theta^2 and meets HURWITZ_TOL near theta = 1e6;
        # below that the answer is the bath occupation, beyond it a NumericalFailure
        gi = one_end_chain(3, theta, 0.3)
        for solve in (
            lambda: convert_basis(stationary(lift_gauge_invariant(gi)), CA).entries[:3, :3],
            lambda: stationary_gauge_invariant(gi).entries,
        ):
            try:
                small = solve()
            except NumericalFailure as exc:
                assert theta >= 1e6 and "spectral abscissa" in str(exc)
                continue
            assert np.abs(small - 0.3 * np.eye(3)).max() < (1e-10 if theta <= 1e5 else 1e-9)

    def test_residual_of_solution(self):
        rng = np.random.default_rng(4)
        spec = random_semigroup(rng, 3, 2)
        m = stationary(spec).entries
        res = spec.drift @ m + m @ spec.drift.conj().T + spec.pump
        assert np.abs(res).max() <= 1e-10 * np.abs(spec.pump).max()


def test_spec_drift_and_pump_stay_complex():
    # bench/workloads.py passes them straight to scipy.linalg.solve_continuous_lyapunov,
    # which in scipy 1.17.1 returns garbage for a real A with a complex Q
    spec = random_semigroup(np.random.default_rng(34), 3, 1)
    assert spec.drift.dtype == spec.pump.dtype == np.complex128


class TestErgodicity:
    def test_one_end_chain_rank(self):
        # controllability columns e1, T e1 = e2, T^2 e1 = e1 + e3: full rank
        report = ergodicity_gauge_invariant(one_end_chain(3, 1.0, 0.5))
        assert report.kalman_rank == 3
        assert report.unique_stationary and report.converges
        t0 = chain_hamiltonian(3)
        e1 = np.array([1.0, 0.0, 0.0])
        cols = np.column_stack([e1, t0 @ e1, t0 @ t0 @ e1])
        assert np.linalg.matrix_rank(cols) == 3

    def test_star_converges_without_uniqueness(self):
        report = ergodicity_gauge_invariant(star_model(3, 1.0, 0.5))
        assert report.kalman_rank == 2
        assert not report.unique_stationary
        assert report.converges
        assert abs(report.spectral_abscissa) < 1e-10
        assert report.offending_eigenvalue is not None
        assert abs(report.offending_eigenvalue) < 1e-10  # kernel eigenvalue

    def test_unique_implies_hurwitz(self):
        from fermicov.lindblad import HURWITZ_TOL

        rng = np.random.default_rng(5)
        for _ in range(20):
            spec = random_semigroup(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
            report = ergodicity(spec)
            assert report.unique_stationary == report.kalman_full
            assert report.unique_stationary == (report.spectral_abscissa < HURWITZ_TOL)
            if report.unique_stationary:
                assert report.converges

    def test_zero_coupling(self):
        rng = np.random.default_rng(6)
        spec = _zero_coupling_spec(rng, 2)
        report = ergodicity(spec)
        assert report.kalman_rank == 0
        assert not report.unique_stationary


def _controllable_basis(t, theta):
    """Orthonormal basis V_c of span{T^k Theta}, by block Krylov in staircase form.

    An independent reference for the library's eigenbasis test (Van Dooren,
    IEEE TAC 26:111, 1981).  Works on the normalized pair (T / |T|_2,
    Theta / |Theta|_2): the first block is Theta, and each later block is T
    applied to the previous block's new columns.  A block is
    re-orthogonalized twice against V_c, and its new directions are the left
    singular vectors of a thin SVD whose singular values exceed 64 n eps.
    Reliable on structured models; on random non-unique models the sweep
    normalizes rounding back to unit length and overcounts (Paige, IEEE TAC
    26:130, 1981).
    """
    n = t.shape[0]
    thresh = 64 * n * np.finfo(float).eps
    t_norm = np.linalg.norm(t, 2)
    theta_norm = np.linalg.norm(theta, 2) if theta.size else 0.0
    t_hat = t / t_norm if t_norm > 0 else t
    block = theta / theta_norm if theta_norm > 0 else theta
    basis = np.empty((n, n), dtype=np.result_type(t, theta))
    rank = 0
    while block.shape[1] and rank < n:
        v_c = basis[:, :rank]
        for _ in range(2):
            block = block - v_c @ (v_c.conj().T @ block)
        u, s, _ = np.linalg.svd(block, full_matrices=False)
        new = min(int(np.sum(s > thresh)), n - rank)
        basis[:, rank : rank + new] = u[:, :new]
        block = t_hat @ u[:, :new]
        rank += new
    return basis[:, :rank]


def _hidden_block_pair(rng, controlled, hidden):
    """Hermitian T and coupling Theta whose controllable subspace has dimension
    ``controlled``: a random unitary mixes a coupled block with an uncoupled one,
    so no entry of the pair is exactly zero."""
    n = controlled + hidden
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    t = np.zeros((n, n), dtype=complex)
    t[:controlled, :controlled] = a[:controlled, :controlled] + a[:controlled, :controlled].conj().T
    t[controlled:, controlled:] = a[controlled:, controlled:] + a[controlled:, controlled:].conj().T
    theta = np.zeros((n, 1), dtype=complex)
    theta[:controlled, 0] = rng.standard_normal(controlled)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return u @ t @ u.conj().T, u @ theta


def _gauge_invariant(pair):
    t, theta = pair
    return make_gauge_invariant(t, theta, 0.5 * np.eye(theta.shape[1]))


STAIRCASE_CASES = {
    "star": (lambda: lift_gauge_invariant(star_model(6, 1.0, 0.5)), 4),
    "xy L=160": (lambda: xy_chain(XYParams(160, 0.4, 0.25, 1.0, 1.0, 0.7, 0.3)), 320),
    "graded spectrum": (
        lambda: _gauge_invariant((np.diag(np.geomspace(1e-3, 1.0, 40)).astype(complex), np.ones((40, 1)))),
        40,
    ),
    "hidden block": (lambda: _gauge_invariant(_hidden_block_pair(np.random.default_rng(40), 5, 7)), 5),
}


@lru_cache(maxsize=None)
def _staircase_case(case):
    """(T, Theta) of a case's full or gauge-invariant spec, and the library's Kalman rank."""
    spec = STAIRCASE_CASES[case][0]()
    if isinstance(spec, lindblad.GaugeInvariantSpec):
        return spec.t_s0, spec.theta0, ergodicity_gauge_invariant(spec).kalman_rank
    return spec.t_s.entries, spec.theta.entries, ergodicity(spec).kalman_rank


class TestKalmanStaircase:
    """The staircase reference above against the library's eigenbasis test."""

    @pytest.mark.parametrize("case", sorted(STAIRCASE_CASES))
    def test_orthonormal_invariant_basis(self, case):
        rank = STAIRCASE_CASES[case][1]
        t, theta, _ = _staircase_case(case)
        v_c = _controllable_basis(t, theta)
        assert v_c.shape == (t.shape[0], rank)
        assert np.abs(v_c.conj().T @ v_c - np.eye(rank)).max() < 1e-12
        outside = np.eye(t.shape[0]) - v_c @ v_c.conj().T
        assert np.abs(outside @ t @ v_c).max() < 1e-12 * np.linalg.norm(t, 2)
        assert np.abs(outside @ theta).max() < 1e-12 * np.linalg.norm(theta, 2)

    @pytest.mark.parametrize("case", sorted(STAIRCASE_CASES))
    def test_library_rank_matches_reference(self, case):
        t, theta, library_rank = _staircase_case(case)
        rank = STAIRCASE_CASES[case][1]
        assert library_rank == _controllable_basis(t, theta).shape[1] == rank

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_rank_does_not_depend_on_the_scale_of_t(self, scale):
        chain = lift_gauge_invariant(two_bath_chain(ChainParams(20, 1.0, 1.0, 0.9, 0.1))[0])
        assert _controllable_basis(scale * chain.t_s.entries, chain.theta.entries).shape[1] == 40
        t, theta = _hidden_block_pair(np.random.default_rng(41), 5, 7)
        assert _controllable_basis(scale * t, theta).shape[1] == 5

    @pytest.mark.parametrize("kappa", [0.9, 0.99, 0.999])
    @pytest.mark.parametrize("h", [1e-2, 1e-4, 0.0])
    def test_near_ising_point_never_disagrees_silently(self, kappa, h):
        report = ergodicity(xy_chain(XYParams(40, kappa, h, 1.0, 1.0, 0.7, 0.3)))
        assert report.kalman_full == report.unique_stationary


def _random_majorana_model(rng, L, project):
    """T = iA with |A|_2 = 1 and one bath mode, Theta = iW with W of shape 2L x 2.

    With ``project``, W is projected off the conjugate eigenvector pair of the
    largest eigenvalue of T, which leaves that pair uncontrolled: rank 2L - 2.
    """
    a = rng.standard_normal((2 * L, 2 * L))
    a = (a - a.T) / np.linalg.norm(a - a.T, 2)
    w = rng.standard_normal((2 * L, 2))
    if project:
        x = np.linalg.eigh(1j * a)[1][:, -1]
        q = np.linalg.qr(np.column_stack([x.real, x.imag]))[0]
        w -= q @ (q.T @ w)
    m_b = validate_covariance(np.array([[0.5, 0.3j], [-0.3j, 0.5]]), MAJ)
    return make_semigroup(validate_qf(1j * a, MAJ), validate_coupling(1j * w, MAJ), m_b)


class TestRandomMajoranaModels:
    """Random models on both sides of the uniqueness boundary, far beyond the
    sizes where a Krylov rank test still separates them."""

    @pytest.mark.parametrize("L, draws", [(4, 40), (8, 40), (12, 40), (20, 40), (40, 10), (80, 4)])
    def test_rank_and_stationary_state(self, L, draws):
        rng = np.random.default_rng(L)
        for _ in range(draws):
            # stationary decides with ergodicity and names its rank when it refuses
            with pytest.raises(NonUniqueStationary, match=f"rank {2 * L - 2} < {2 * L}$"):
                stationary(_random_majorana_model(rng, L, project=True))
            stationary(_random_majorana_model(rng, L, project=False))


def _gap_model(rng, L, gap):
    """Gauge-invariant model whose two lowest eigenvalues of T0 are ``gap`` apart.

    One coupling column Q 1/sqrt(L) couples every eigenvector equally, so the
    model is unique for every gap > 0; the dark combination of the close pair
    decays at a rate of about gap^2.
    """
    q = np.linalg.qr(rng.standard_normal((L, L)))[0]
    w = np.linspace(-1.0, 1.0, L)
    w[1] = w[0] + gap
    return make_gauge_invariant(q @ np.diag(w) @ q.T, q.sum(axis=1, keepdims=True) / np.sqrt(L), [[0.3]])


class TestUniquenessBoundary:
    @pytest.mark.parametrize("L", [2, 4, 8])
    @pytest.mark.parametrize("gap", [1e-12, 1e-10, 1e-8, 1e-7, 1e-5, 1e-4])
    def test_reduced_lifted_and_hurwitz_verdicts_agree(self, gap, L):
        gi = _gap_model(np.random.default_rng(L), L, gap)
        reduced = ergodicity_gauge_invariant(gi)
        lifted = ergodicity(lift_gauge_invariant(gi))
        hurwitz = lifted.spectral_abscissa < HURWITZ_TOL
        assert reduced.unique_stationary == lifted.unique_stationary == hurwitz == (gap > CLUSTER_GAP)
        assert lifted.kalman_rank == 2 * reduced.kalman_rank

    @pytest.mark.parametrize("L", [2, 4, 8])
    def test_at_the_cluster_gap(self, L):
        gi = _gap_model(np.random.default_rng(L), L, CLUSTER_GAP)
        for report in (ergodicity_gauge_invariant(gi), ergodicity(lift_gauge_invariant(gi))):
            assert report.kalman_full == report.unique_stationary
        assert report.kalman_rank % 2 == 0


class TestSizeLadder:
    @pytest.mark.parametrize("length", [80, 160, 320])
    def test_two_bath_chain_gauge_invariant(self, length):
        gi, pred = two_bath_chain(ChainParams(length=length, theta1=1.3, theta_l=0.7, n1=0.9, n_l=0.2))
        small = stationary_gauge_invariant(gi).entries
        assert np.abs(small - pred.matrix(length)).max() < 1e-10

    @pytest.mark.parametrize("length", [80, 160])
    def test_xy_chain_full_rank(self, length):
        report = ergodicity(xy_chain(XYParams(length, 0.4, 0.25, 1.0, 1.0, 0.7, 0.3)))
        assert report.kalman_rank == 2 * length
        assert report.unique_stationary


class TestGaugeInvariant:
    @pytest.mark.parametrize("seed", range(50))
    def test_lifted_agreement(self, seed):
        rng = np.random.default_rng(100 + seed)
        L = int(rng.integers(1, 7))
        K = int(rng.integers(1, 4))
        t0 = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
        t0 = (t0 + t0.conj().T) / 2
        th0 = rng.standard_normal((L, K)) + 1j * rng.standard_normal((L, K))
        mb0 = np.diag(rng.uniform(0.05, 0.95, size=K)).astype(complex)
        gi = make_gauge_invariant(t0, th0, mb0)
        reduced = ergodicity_gauge_invariant(gi)
        lifted = ergodicity(lift_gauge_invariant(gi))
        assert reduced.unique_stationary == lifted.unique_stationary
        assert reduced.converges == lifted.converges
        assert lifted.kalman_rank == 2 * reduced.kalman_rank

    @pytest.mark.parametrize("length", [3, 8, 20])
    def test_two_bath_chain_always_unique(self, length):
        rng = np.random.default_rng(7)
        gi, _ = two_bath_chain(
            ChainParams(
                length=length,
                theta1=float(rng.uniform(0.2, 3.0)),
                theta_l=float(rng.uniform(0.2, 3.0)),
                n1=0.8,
                n_l=0.1,
            )
        )
        assert ergodicity_gauge_invariant(gi).unique_stationary

    def test_zero_coupling_scalar_hamiltonian(self):
        gi = make_gauge_invariant(2.0 * np.eye(3), np.zeros((3, 1)), np.array([[0.5]]))
        report = ergodicity_gauge_invariant(gi)
        assert report.kalman_rank == 0
        assert not report.unique_stationary
        assert report.converges  # whole space is one eigenspace

    def test_zero_coupling_chain_does_not_converge(self):
        gi = make_gauge_invariant(chain_hamiltonian(3), np.zeros((3, 1)), np.array([[0.5]]))
        assert not ergodicity_gauge_invariant(gi).converges

    def test_pairing_block_stays_zero(self):
        rng = np.random.default_rng(8)
        gi = make_gauge_invariant(
            chain_hamiltonian(3), rng.standard_normal((3, 2)), 0.5 * np.eye(2)
        )
        m0 = validate_small_covariance(np.diag([0.9, 0.5, 0.2]))
        m_t, a_t = propagate_gauge_invariant(gi, m0, np.zeros((3, 3)), 2.0)
        assert np.abs(a_t).max() == 0.0
        m_t.validate()

    def test_matches_lifted_propagation(self):
        rng = np.random.default_rng(9)
        L = 3
        t0 = rng.standard_normal((L, L))
        t0 = (t0 + t0.T) / 2
        gi = make_gauge_invariant(t0, rng.standard_normal((L, 2)), 0.5 * np.eye(2))
        m0 = validate_small_covariance(np.diag([0.8, 0.5, 0.3]))
        m_t, _ = propagate_gauge_invariant(gi, m0, np.zeros((L, L)), 0.7)
        full_t = propagate(lift_gauge_invariant(gi), full_from_small(m0), 0.7)
        small = convert_basis(full_t, CA).entries[:L, :L]
        assert np.abs(small - m_t.entries).max() < 1e-9

    def test_pairing_block_decays_under_uniqueness(self):
        rng = np.random.default_rng(10)
        gi = make_gauge_invariant(
            chain_hamiltonian(3), np.array([[1.0], [0.0], [0.0]]), np.array([[0.4]])
        )
        a0 = rng.standard_normal((3, 3)) * 0.1
        _, a_t = propagate_gauge_invariant(
            gi, validate_small_covariance(0.5 * np.eye(3)), a0, 80.0
        )
        assert np.abs(a_t).max() < 1e-8

    def test_lifted_pairing_block_consistency(self):
        # the A block of the lifted flow obeys the same reduced equation
        rng = np.random.default_rng(11)
        L = 2
        gi = make_gauge_invariant(
            (lambda m: (m + m.conj().T) / 2)(
                rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
            ),
            rng.standard_normal((L, 1)),
            np.array([[0.3]]),
        )
        b = 0.1 * (rng.standard_normal((L, L)) - np.eye(L) * 0.0)
        a0 = b - b.T  # antisymmetric pairing block keeps M a covariance
        m0_small = validate_small_covariance(0.5 * np.eye(L))
        full0 = np.block(
            [[m0_small.entries, a0], [-a0.conj(), np.eye(L) - m0_small.entries.conj()]]
        )
        cov0 = validate_covariance(full0, CA)
        m_t, a_t = propagate_gauge_invariant(gi, m0_small, a0, 0.9)
        full_t = convert_basis(propagate(lift_gauge_invariant(gi), cov0, 0.9), CA).entries
        assert np.abs(full_t[:L, :L] - m_t.entries).max() < 1e-9
        assert np.abs(full_t[:L, L:] - a_t).max() < 1e-9

    def test_stationary_gauge_invariant_matches_lift(self):
        rng = np.random.default_rng(12)
        gi = make_gauge_invariant(
            chain_hamiltonian(4), rng.standard_normal((4, 2)), np.diag([0.9, 0.2]).astype(complex)
        )
        small = stationary_gauge_invariant(gi).entries
        full = stationary(lift_gauge_invariant(gi))
        assert np.abs(convert_basis(full, CA).entries[:4, :4] - small).max() < 1e-10


class TestRealCaseKalman:
    @staticmethod
    def _xy_blocks(length, kappa, h, theta1, theta2):
        d = np.diag(np.ones(length - 1), 1)
        c_t = h * np.eye(length) + 0.5 * (1 - kappa) * d + 0.5 * (1 + kappa) * d.T
        c_th = np.zeros((length, 2))
        c_th[0, 0] = -0.5 * (1 + kappa) * theta1
        c_th[-1, 1] = -0.5 * (1 - kappa) * theta2
        return c_t, c_th

    def test_xy_anisotropic_true(self):
        c_t, c_th = self._xy_blocks(4, 0.5, 0.0, 1.0, 1.0)
        assert real_case_kalman(c_t, c_th)

    def test_xy_ising_point_false(self):
        c_t, c_th = self._xy_blocks(4, 1.0, 0.0, 1.0, 1.0)
        assert not real_case_kalman(c_t, c_th)

    def test_square_invertible_coupling(self):
        rng = np.random.default_rng(13)
        c_t = rng.standard_normal((4, 4))
        c_th = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        assert real_case_kalman(c_t, c_th)

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_assembled_spec(self, seed):
        rng = np.random.default_rng(200 + seed)
        L, K = 3, 2
        c_t = rng.standard_normal((L, L))
        c_th = rng.standard_normal((L, K))
        if seed % 3 == 0:
            c_th[:, 1] = 0.0
            c_th[1:, 0] = 0.0  # often controllability-deficient
        zl, zk = np.zeros((L, L)), np.zeros((L, K))
        t = validate_qf(np.block([[zl, 1j * c_t], [-1j * c_t.T, zl]]), MAJ)
        theta = validate_coupling(np.block([[zk, 1j * c_th], [-1j * c_th, zk]]), MAJ)
        spec = make_semigroup(t, theta, random_covariance(rng, K))
        assert real_case_kalman(c_t, c_th) == ergodicity(spec).unique_stationary

    def test_xy_chain_at_length_80(self):
        c_t, c_th = self._xy_blocks(80, 0.4, 0.25, 1.0, 1.0)
        spec = xy_chain(XYParams(80, 0.4, 0.25, 1.0, 1.0, 0.7, 0.3))
        assert real_case_kalman(c_t, c_th)
        assert ergodicity(spec).unique_stationary


class TestSupportDecomposition:
    def test_faithful_state(self):
        rng = np.random.default_rng(14)
        m = random_covariance(rng, 3, beta=0.8)
        a, c, u = support_decomposition(m)
        assert (a, c) == (0, 3)
        u.validate()

    def test_vacuum(self):
        zero = np.zeros((3, 3))
        vac = validate_covariance(np.block([[np.eye(3), zero], [zero, zero]]), CA)
        a, c, _ = support_decomposition(vac)
        assert (a, c) == (3, 0)

    def test_empty_bath_chain(self):
        gi, _ = two_bath_chain(ChainParams(length=3, theta1=1.0, theta_l=1.0, n1=1.0, n_l=1.0))
        m_inf = stationary(lift_gauge_invariant(gi))
        a, c, u = support_decomposition(m_inf)
        assert (a, c) == (3, 0)
        # the transform diagonalizes the stationary covariance with pinned modes first
        mc = convert_basis(m_inf, CA).entries
        diag = u.entries.conj().T @ mc @ u.entries
        assert np.abs(np.diag(diag)[:3].real - 1.0).max() < 1e-7

    def test_fully_occupied_modes_count_once(self):
        zero = np.zeros((2, 2))
        occupied = validate_covariance(np.block([[zero, zero], [zero, np.eye(2)]]), CA)
        a, c, _ = support_decomposition(occupied)
        assert (a, c) == (2, 0)


class TestChainPredictionAlgebra:
    @pytest.mark.parametrize("seed", range(20))
    def test_barycenter_weights_sum_to_one(self, seed):
        rng = np.random.default_rng(300 + seed)
        th1, thl = rng.uniform(0.2, 3.0, size=2)
        _, at_10 = two_bath_chain(ChainParams(5, th1, thl, 1.0, 0.0))
        _, at_01 = two_bath_chain(ChainParams(5, th1, thl, 0.0, 1.0))
        for field in ("p1", "pm", "pL"):
            assert abs(getattr(at_10, field) + getattr(at_01, field) - 1.0) < 1e-12

    def test_current_sign(self):
        _, up = two_bath_chain(ChainParams(4, 1.3, 0.7, 0.9, 0.2))
        _, down = two_bath_chain(ChainParams(4, 1.3, 0.7, 0.2, 0.9))
        assert up.current > 0 > down.current


class TestValidateOnce:
    """A tagged value is checked where it is built; its consumers trust the tag."""

    @pytest.fixture
    def validate_calls(self, monkeypatch):
        calls = Counter()
        for cls in (
            HamiltonianMatrix,
            CouplingMatrix,
            BogoliubovTransform,
            CovarianceMatrix,
            SmallCovarianceMatrix,
        ):

            def counted(self, *args, _original=cls.validate, **kwargs):
                calls[type(self).__name__] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "validate", counted)
        return calls

    def test_convert_basis_makes_no_checks(self, validate_calls):
        rng = np.random.default_rng(20)
        spec = random_semigroup(rng, 2, 1)
        u = BogoliubovTransform(entries=np.eye(4, dtype=complex), basis=CA)
        values = [spec.t_s, spec.theta, spec.m_b, u]
        validate_calls.clear()
        for value in values:
            convert_basis(convert_basis(value, CA), MAJ)
        assert validate_calls == {}

    def test_propagate_checks_its_result_once(self, validate_calls):
        rng = np.random.default_rng(21)
        spec = random_semigroup(rng, 3, 1)
        m0 = random_covariance(rng, 3)
        assert m0.basis is CA
        validate_calls.clear()
        out = propagate(spec, m0, 1.0)
        assert out.basis is CA
        assert validate_calls == {"CovarianceMatrix": 1}

    def test_series_checks_each_stepped_state_once(self, validate_calls, monkeypatch):
        import fermicov.lindblad

        expm_calls = []
        monkeypatch.setattr(fermicov.lindblad, "expm", lambda a: expm_calls.append(1) or expm(a))
        rng = np.random.default_rng(23)
        spec = random_semigroup(rng, 3, 1)
        m0 = random_covariance(rng, 3)
        validate_calls.clear()
        series = list(propagate_series(spec, m0, 0.25, 8))
        assert len(series) == 9
        assert all(m.basis is MAJ for m in series)
        assert validate_calls == {"CovarianceMatrix": 8}
        assert len(expm_calls) == 1

    def test_make_semigroup_trusts_tagged_inputs(self, validate_calls):
        rng = np.random.default_rng(22)
        t_s, theta, m_b = random_qf(rng, 2), random_coupling(rng, 2, 1), random_covariance(rng, 1)
        validate_calls.clear()
        make_semigroup(t_s, theta, m_b)
        assert validate_calls == {}
