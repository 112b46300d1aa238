from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg

from fermicov import (
    BasisTag,
    BogoliubovTransform,
    CouplingMatrix,
    CovarianceMatrix,
    HamiltonianMatrix,
    NonUniqueStationary,
    NumericalFailure,
    SmallCovarianceMatrix,
    StructureViolation,
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
    small_from_full,
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
from fermicov import cli
from fermicov.lindblad import HURWITZ_TOL
from fermicov.models import ChainParams, XYParams, chain_hamiltonian, xy_chain
from fermicov.phase import TAU_NUM, TAU_STRUCT, _max_abs, _scale, _tol

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
        # the star's uncontrolled modes rotate exactly; ~1000 doublings of them overflowed.
        # The gauge-invariant blocks are read off the same lifted flow.
        rng = np.random.default_rng(33)
        for L in (3, 6):
            gi = star_model(L, 1.0, 0.5)
            spec = lift_gauge_invariant(gi)
            for m0 in (validate_covariance(0.5 * np.eye(2 * L), MAJ), random_covariance(rng, L, beta=0.5)):
                settled = propagate(spec, m0, 1e4).entries
                for t in np.geomspace(1e6, 1e300, 50):
                    assert np.abs(propagate(spec, m0, t).entries - settled).max() < 1e-12
            m0 = small_from_full(random_covariance(rng, L, beta=0.5))
            b = 0.05 * rng.standard_normal((L, L))
            for a0 in (np.zeros((L, L)), b - b.T):  # pyproject turns any overflow warning into a failure
                m_settled, a_settled = propagate_gauge_invariant(gi, m0, a0, 1e4)
                for t in np.geomspace(1e6, 1e300, 50):
                    m_t, a_t = propagate_gauge_invariant(gi, m0, a0, t)
                    assert np.abs(m_t.entries - m_settled.entries).max() < 1e-12
                    assert np.abs(a_t - a_settled).max() < 1e-12

    @pytest.mark.parametrize("preset", ["two-bath-chain", "xy", "star"])
    def test_settled_at_the_top_of_the_float_range(self, preset):
        # t |G|_1 overflows there; the doubling count is read off t's exponent instead
        spec = cli.build_preset_spec(preset, {})
        L = spec.mode_count
        mixed = validate_covariance(0.5 * np.eye(2 * L), MAJ)
        for m0 in (mixed, random_covariance(np.random.default_rng(34), L)):
            settled = propagate(spec, m0, 1e4).entries
            for t in (1e308, np.finfo(float).max):
                assert np.abs(propagate(spec, m0, t).entries - settled).max() < 1e-12

    def test_step_is_unchanged_where_t_norm_is_finite(self, monkeypatch):
        # wherever t |G|_1 is finite, k is its exponent and the step is t / 2^k
        steps = []
        monkeypatch.setattr(lindblad, "expm", lambda a: steps.append(a) or expm(a))
        spec = random_semigroup(np.random.default_rng(35), 3, 1)
        g, y = spec.drift.real, spec.pump.imag
        block = np.block([[g, y], [np.zeros_like(g), -g.T]])
        for t in np.geomspace(1e-300, 1e300, 61):
            steps.clear()
            lindblad._affine_flow(g, y, t)
            k = max(int(np.frexp(t * np.abs(g).sum(axis=0).max())[1]), 0)
            assert len(steps) == 1 and np.array_equal(steps[0], (t / 2**k) * block)

    @staticmethod
    def _eigen_flow(spec, m0, t):
        """R(t) from an eigendecomposition G = V diag(lam) V^-1 of the drift."""
        g, y = spec.drift.real, spec.pump.imag
        lam, v = np.linalg.eig(g)
        vi = np.linalg.inv(v)
        s = lam[:, None] + lam[None, :]
        e = (v * np.exp(t * lam)) @ vi
        r0 = convert_basis(m0, MAJ).entries.imag
        return (e @ r0 @ e.T + v @ ((vi @ y @ vi.T) * (np.expm1(t * s) / s)) @ v.T).real

    @pytest.mark.parametrize("case", ["gap", "stiff chain"])
    def test_near_axis_modes_keep_their_decay_pump_and_rotation(self, case):
        # the gap model's near-axis pair still decays and is pumped, so it is not dark and flows
        # whole; the stiff chain's slow modes rotate at frequency ~1 although |G| ~ 1e14
        if case == "gap":
            gi = _gap_model(np.random.default_rng(2), 2, 1.1e-6)
        else:
            gi = one_end_chain(3, 1e7, 0.3)
        spec = lift_gauge_invariant(gi)
        assert not ergodicity(spec).unique_stationary
        m0 = random_covariance(np.random.default_rng(0), spec.mode_count, beta=0.5)
        for t in (10.0, 1e4):
            r_t = convert_basis(propagate(spec, m0, t), MAJ).entries.imag
            assert np.abs(r_t - self._eigen_flow(spec, m0, t)).max() < 1e-10

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
        with pytest.raises(NonUniqueStationary, match="rank 4 < 6"):
            stationary_gauge_invariant(star_model(3, 1.0, 0.5))

    @pytest.mark.parametrize("theta", [1e3, 1e4, 1e5, 1e6, 1e7, 1e8])
    def test_stiff_one_end_chain_is_right_or_fails(self, theta):
        # the slowest decay rate falls like 1/theta^2 and meets HURWITZ_TOL near theta = 1e6;
        # below that the answer is the bath occupation, beyond it the drift is not Hurwitz,
        # so the model counts as not unique and the refusal names the abscissa
        gi = one_end_chain(3, theta, 0.3)
        for solve in (
            lambda: convert_basis(stationary(lift_gauge_invariant(gi)), CA).entries[:3, :3],
            lambda: stationary_gauge_invariant(gi).entries,
        ):
            try:
                small = solve()
            except NonUniqueStationary as exc:
                assert theta >= 1e6 and "spectral abscissa" in str(exc) and "HURWITZ_TOL" in str(exc)
                continue
            assert np.abs(small - 0.3 * np.eye(3)).max() < (1e-10 if theta <= 1e5 else 1e-9)

    def test_residual_of_solution(self):
        rng = np.random.default_rng(4)
        spec = random_semigroup(rng, 3, 2)
        m = stationary(spec).entries
        res = spec.drift @ m + m @ spec.drift.conj().T + spec.pump
        assert np.abs(res).max() <= 1e-10 * np.abs(spec.pump).max()


def _assert_hermitian_psd(p):
    tol = _tol(p)
    assert _max_abs(p - p.conj().T) <= tol
    assert np.linalg.eigvalsh((p + p.conj().T) / 2).min() >= -tol


@pytest.mark.parametrize("seed", range(12))
def test_random_pump_is_hermitian_and_psd(seed):
    # make_semigroup trusts P = Theta M_B Theta* to be PSD because M_B is
    rng = np.random.default_rng(300 + seed)
    scale = (0.1, 1.0, 10.0)[seed % 3]
    _assert_hermitian_psd(random_semigroup(rng, int(rng.integers(1, 7)), int(rng.integers(1, 4)), scale).pump)


@pytest.mark.parametrize("name", sorted(cli.PRESETS))
def test_preset_pump_is_hermitian_and_psd(name):
    _assert_hermitian_psd(cli.build_preset_spec(name, {}).pump)


def test_overflowing_coupling_is_rejected_at_the_lift():
    # the entries are finite, so make_gauge_invariant takes them, but Theta Theta* overflows
    with np.errstate(all="ignore"):
        gi = one_end_chain(3, 1e200, 0.3)
        with pytest.raises(StructureViolation, match="non-finite"):
            lift_gauge_invariant(gi)


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


def _random_majorana_model(rng, L, project, coupling=1.0):
    """T = iA with |A|_2 = 1 and one bath mode, Theta = iW with W of shape 2L x 2, scaled by ``coupling``.

    With ``project``, W is projected off the conjugate eigenvector pair of the
    largest eigenvalue of T, which leaves that pair uncontrolled: rank 2L - 2.
    """
    a = rng.standard_normal((2 * L, 2 * L))
    a = (a - a.T) / np.linalg.norm(a - a.T, 2)
    w = coupling * rng.standard_normal((2 * L, 2))
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


#: Eigenvalues of T_S closer than this are treated as one degenerate cluster.  A
#: dark mode split off by a gap g decays at a rate of about g^2, so the gap is
#: sqrt(-HURWITZ_TOL): a pair the clustering merges leaves a drift that is not Hurwitz.
CLUSTER_GAP = float(np.sqrt(-HURWITZ_TOL))


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


class TestPBHReference:
    """``_uncontrolled`` above is the eigenvector (Hautus, PBH) form of the Kalman
    test: an independent reference for the library's Schur count."""

    @pytest.mark.parametrize("L, draws", [(4, 10), (8, 10), (20, 6), (40, 3), (80, 2), (160, 1)])
    @pytest.mark.parametrize("project", [True, False])
    def test_random_models(self, L, draws, project):
        rng = np.random.default_rng(L + 1000 * project)
        for _ in range(draws):
            spec = _random_majorana_model(rng, L, project)
            rank, converges, offending, _ = _uncontrolled(spec.t_s.entries, spec.theta.entries, majorana=True)
            report = ergodicity(spec)
            assert report.kalman_rank == rank == 2 * L - 2 * project
            assert report.converges == converges == (not project)
            if project:  # V_u is the eigenvalue pair +-mu of T, and either one may come first
                assert abs(abs(report.offending_eigenvalue) - abs(offending)) < 1e-10

    @pytest.mark.parametrize("L", [4, 8, 20])
    def test_dark_pair_under_strong_coupling(self, L):
        # with |W| ~ 100 the dark pair's real parts round to about 1e-12 on either side of
        # HURWITZ_TOL; the rounding margin keeps the pair uncontrolled
        rng = np.random.default_rng(L)
        for _ in range(8):
            spec = _random_majorana_model(rng, L, True, coupling=100.0)
            rank, _, _, _ = _uncontrolled(spec.t_s.entries, spec.theta.entries, majorana=True)
            assert ergodicity(spec).kalman_rank == rank == 2 * L - 2
            with pytest.raises(NonUniqueStationary):
                stationary(spec)

    @pytest.mark.parametrize("theta", [1e2, 1e3, 1e4])
    def test_star_under_strong_coupling(self, theta):
        gi = star_model(4, theta, 0.5)
        spec = lift_gauge_invariant(gi)
        assert ergodicity_gauge_invariant(gi).kalman_rank == 2
        assert ergodicity(spec).kalman_rank == 4
        with pytest.raises(NonUniqueStationary):
            stationary(spec)
        with pytest.raises(NonUniqueStationary):
            stationary_gauge_invariant(gi)

    @pytest.mark.parametrize("length", [None, 16])
    @pytest.mark.parametrize("name", sorted(cli.PRESETS))
    def test_presets(self, name, length):
        spec = cli.build_preset_spec(name, {} if length is None else {"length": length})
        rank, converges, _, _ = _uncontrolled(spec.t_s.entries, spec.theta.entries, majorana=True)
        report = ergodicity(spec)
        assert (report.kalman_rank, report.converges) == (rank, converges)


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
        assert reduced.unique_stationary == lifted.unique_stationary == hurwitz == (gap > 1e-6)
        assert lifted.kalman_rank == 2 * reduced.kalman_rank

    @pytest.mark.parametrize("L", [2, 4, 8])
    def test_every_verdict_is_the_abscissa_against_hurwitz_tol(self, L):
        # the band around gap 1e-6, where the dark mode's decay rate crosses |HURWITZ_TOL|
        gaps = [*np.geomspace(1e-12, 2e-6, 40), 9e-7, 1.0e-6, 1.1e-6, 1.2e-6, 1.3e-6]
        for gap in gaps:
            gi = _gap_model(np.random.default_rng(L), L, gap)
            reduced = ergodicity_gauge_invariant(gi)
            lifted = ergodicity(lift_gauge_invariant(gi))
            for report in (reduced, lifted):
                assert report.unique_stationary == (report.spectral_abscissa < HURWITZ_TOL)
                assert report.kalman_full == report.unique_stationary
            assert lifted.kalman_rank % 2 == 0
            if (reduced.spectral_abscissa < HURWITZ_TOL) == (lifted.spectral_abscissa < HURWITZ_TOL):
                assert reduced.unique_stationary == lifted.unique_stationary

    @pytest.mark.parametrize("L", [2, 4, 8])
    def test_at_the_cluster_gap(self, L):
        gi = _gap_model(np.random.default_rng(L), L, 1e-6)
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

    @pytest.mark.parametrize("shape", [(1, 3), (2, 3), (0, 0)])
    def test_t0_must_be_a_nonempty_square_matrix(self, shape):
        # a 1 x 3 T0 once passed the Hermiticity check by broadcasting against its transpose
        with pytest.raises(StructureViolation, match="nonempty square matrix"):
            make_gauge_invariant(np.zeros(shape), np.ones((shape[0], 1)), [[0.5]])

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

    @pytest.mark.parametrize("case", ["xy", "ising", *range(10)])
    def test_verdict_does_not_depend_on_scale(self, case):
        if case == "xy":
            c_t, c_th = self._xy_blocks(4, 0.5, 0.0, 1.0, 1.0)
        elif case == "ising":
            c_t, c_th = self._xy_blocks(4, 1.0, 0.0, 1.0, 1.0)
        else:  # the inputs of test_agrees_with_assembled_spec
            rng = np.random.default_rng(200 + case)
            c_t, c_th = rng.standard_normal((3, 3)), rng.standard_normal((3, 2))
            if case % 3 == 0:
                c_th[:, 1] = 0.0
                c_th[1:, 0] = 0.0
        verdict = real_case_kalman(c_t, c_th)
        for s in (1e-8, 1.0, 1e8):
            for s_th in (1e-8, 1.0, 1e8):
                assert real_case_kalman(s * c_t, s_th * c_th) == verdict

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("argument", [0, 1])
    def test_non_finite_input_is_rejected(self, bad, argument):
        blocks = list(self._xy_blocks(4, 0.5, 0.0, 1.0, 1.0))
        blocks[argument][0, 0] = bad
        with pytest.raises(StructureViolation, match="non-finite"):
            real_case_kalman(*blocks)

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


class TestSteppedStateCheck:
    """A stepped state that fails its check raises NumericalFailure with the
    message ``validate`` gives that state; a non-finite one is named as such."""

    @pytest.mark.parametrize("flow", ["doubling", "nan", "inf"])
    def test_invalid_stepped_state(self, flow, monkeypatch):
        spec = random_semigroup(np.random.default_rng(25), 3, 1)
        n = 2 * spec.mode_count
        m0 = validate_covariance(np.diag(np.r_[np.ones(3), np.zeros(3)]), CA)  # the vacuum, |R|_2 = 1/2
        q = np.zeros((n, n))
        q[0, 1], q[1, 0] = {"doubling": (0.0, 0.0), "nan": (np.nan, np.nan), "inf": (np.inf, -np.inf)}[flow]
        e = 2 * np.eye(n) if flow == "doubling" else np.eye(n)
        monkeypatch.setattr(lindblad, "_majorana_flow", lambda spec, t: (e, q))
        with np.errstate(invalid="ignore"), pytest.raises(NumericalFailure) as raised:
            list(propagate_series(spec, m0, 0.1, 2))
        if flow == "doubling":
            r = e @ convert_basis(m0, MAJ).entries.imag @ e.T
            bare = CovarianceMatrix(entries=0.5 * np.eye(n) + 1j * (r - r.T) / 2, basis=MAJ, mode_count=3)
            with pytest.raises(StructureViolation) as expected:
                bare.validate()
            assert str(raised.value) == str(expected.value)
            assert str(raised.value).startswith("covariance eigenvalues leave [0, 1]")
        else:
            assert str(raised.value) == "covariance has non-finite entries (residual inf)"


class TestSteppedBlocks:
    """A block of stepped states gets the verdict its states get one by one."""

    @pytest.mark.parametrize("offset", [-1e-12, 1e-12])
    @pytest.mark.parametrize("first_bad", [1, 4, 7, 8])
    def test_states_before_the_failing_one_are_yielded(self, first_bad, offset, monkeypatch):
        # blocks of 7 stepped states; |R_k|_2 = k |Q|_2 puts R_first_bad at
        # 1/2 + tol + offset: first, middle or last of the first block, or first of the second
        n = 6
        j = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(3))  # antisymmetric, unit norm
        q = (0.5 + TAU_STRUCT + offset) / first_bad * j
        monkeypatch.setattr(lindblad, "_majorana_flow", lambda spec, t: (np.eye(n), q))
        monkeypatch.setattr(lindblad, "_BLOCK_ENTRIES", 7 * n * n)
        m0 = validate_covariance(0.5 * np.eye(n), MAJ)
        reference, r = [m0.entries], m0.entries.imag
        while True:  # one state at a time, as ``validate`` sees it
            r = np.eye(n) @ r @ np.eye(n).T + q
            r = (r - r.T) / 2
            bare = CovarianceMatrix(entries=0.5 * np.eye(n) + 1j * r, basis=MAJ, mode_count=3)
            try:
                bare.validate()
            except StructureViolation as exc:
                message = str(exc)
                break
            reference.append(bare.entries)
        assert len(reference) == first_bad + (offset < 0)
        seen = []
        with pytest.raises(NumericalFailure) as raised:
            for m in propagate_series(random_semigroup(np.random.default_rng(26), 3, 1), m0, 0.1, 12):
                seen.append(m.entries)
        assert str(raised.value) == message
        assert len(seen) == len(reference)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(seen, reference))

    def test_a_block_is_judged_state_by_state(self, monkeypatch):
        # R_k = k (1/2 + 5e-9) J in one block of 12: state 1 is 5e-9 over, while
        # the block's largest entry, about 6, would give it a tol of 6e-9
        n = 6
        j = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(3))
        monkeypatch.setattr(lindblad, "_majorana_flow", lambda spec, t: (np.eye(n), (0.5 + 5e-9) * j))
        m0 = validate_covariance(0.5 * np.eye(n), MAJ)
        bare = CovarianceMatrix(entries=0.5 * np.eye(n) + 1j * (0.5 + 5e-9) * j, basis=MAJ, mode_count=3)
        with pytest.raises(StructureViolation) as expected:
            bare.validate()
        seen = []
        with pytest.raises(NumericalFailure) as raised:
            for m in propagate_series(random_semigroup(np.random.default_rng(27), 3, 1), m0, 0.1, 12):
                seen.append(m.entries)
        assert str(raised.value) == str(expected.value)
        assert len(seen) == 1 and seen[0] is m0.entries

    @pytest.mark.parametrize("first_bad", [0, 3])
    def test_a_failing_block_is_certified_once(self, first_bad, monkeypatch):
        n = 6
        j = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(3))
        r0 = np.zeros((n, n))
        q = 0.6 / (first_bad + 1) * j  # R_k = (k + 1) q: the state at index first_bad has |R|_2 = 0.6
        calls = []

        def certified(r, *args, _original=lindblad._check_unit_spectrum):
            calls.append(r.shape)
            return _original(r, *args)

        monkeypatch.setattr(lindblad, "_check_unit_spectrum", certified)
        blocks = lindblad._stepped_blocks(np.eye(n), q, r0, 8)
        yielded = [next(blocks)]
        with pytest.raises(NumericalFailure, match="eigenvalues leave"):
            yielded.extend(blocks)
        assert calls == [(8, n, n)]
        assert [len(b) for b in yielded] == [1] + ([first_bad] if first_bad else [])

    def test_yielded_blocks_are_never_overwritten(self, monkeypatch):
        # blocks of 3 states; every block is kept until the series ends
        rng = np.random.default_rng(28)
        spec = random_semigroup(rng, 3, 1)
        m0 = random_covariance(rng, 3)
        monkeypatch.setattr(lindblad, "_BLOCK_ENTRIES", 3 * 36)
        blocks = list(lindblad._series_blocks(spec, m0, 0.3, 10))
        assert [len(b) for b in blocks] == [1, 3, 3, 3, 1]
        e, q = lindblad._majorana_flow(spec, 0.3)
        r = convert_basis(m0, MAJ).entries.imag
        expected = [r]
        for _ in range(10):
            r = e @ r @ e.T + q
            expected.append((r - r.T) / 2)
            r = expected[-1]
        assert np.concatenate(blocks).tobytes() == np.stack(expected).tobytes()


class TestValidateOnce:
    """A tagged value is checked where it is built; its consumers trust the tag."""

    @pytest.fixture
    def validate_calls(self, monkeypatch):
        """Checks made, by the class validated; each spectrum certificate of
        computed states R counts once, under its name and the shape of the one
        state or the stack of states it certifies."""
        calls = Counter()

        def certified(r, *args, _original=lindblad._check_unit_spectrum):
            calls[("_check_unit_spectrum", r.shape)] += 1
            return _original(r, *args)

        monkeypatch.setattr(lindblad, "_check_unit_spectrum", certified)
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
        # one certificate of a block of one state, and no ``validate``
        assert validate_calls == {("_check_unit_spectrum", (1, 6, 6)): 1}

    @staticmethod
    def _series_checks(monkeypatch, validate_calls):
        """The checks and exponentials of an 8-step series at L = 3."""
        expm_calls = []
        monkeypatch.setattr(lindblad, "expm", lambda a: expm_calls.append(1) or expm(a))
        rng = np.random.default_rng(23)
        spec = random_semigroup(rng, 3, 1)
        m0 = random_covariance(rng, 3)
        validate_calls.clear()
        series = list(propagate_series(spec, m0, 0.25, 8))
        assert len(series) == 9
        assert all(m.basis is MAJ for m in series)
        assert len(expm_calls) == 1
        return validate_calls

    def test_series_checks_each_stepped_state_once(self, validate_calls, monkeypatch):
        # one flow, then one batched certificate of the block of all 8 stepped
        # states; computed states never reach ``validate``
        assert self._series_checks(monkeypatch, validate_calls) == {("_check_unit_spectrum", (8, 6, 6)): 1}

    def test_series_blocks_hold_at_most_block_entries(self, validate_calls, monkeypatch):
        monkeypatch.setattr(lindblad, "_BLOCK_ENTRIES", 3 * 36 + 35)  # three 6 x 6 states
        calls = self._series_checks(monkeypatch, validate_calls)
        assert calls == {("_check_unit_spectrum", (3, 6, 6)): 2, ("_check_unit_spectrum", (2, 6, 6)): 1}

    def test_stationary_checks_its_one_state(self, validate_calls):
        spec = cli.build_preset_spec("xy", {})
        validate_calls.clear()
        stationary(spec)
        assert validate_calls == {("_check_unit_spectrum", (8, 8)): 1}

    def test_gauge_invariant_propagation_takes_one_flow(self, validate_calls, monkeypatch):
        # M0(t) and the pairing block's E0 come from the same lifted (E, Q)
        expm_calls = []
        monkeypatch.setattr(lindblad, "expm", lambda a: expm_calls.append(a.shape) or expm(a))
        gi = two_bath_chain(ChainParams(length=8, theta1=1.0, theta_l=1.0, n1=1.0, n_l=0.0))[0]
        m0 = validate_small_covariance(0.5 * np.eye(8))
        validate_calls.clear()
        for t in (0.0, 3.0):
            propagate_gauge_invariant(gi, m0, np.zeros((8, 8)), t)
        assert expm_calls == [(32, 32), (32, 32)]
        assert validate_calls == {("_check_unit_spectrum", (1, 16, 16)): 2}

    @pytest.mark.parametrize("basis", [CA, MAJ])
    def test_normal_modes_trust_the_covariance(self, validate_calls, basis, monkeypatch):
        # both read the normal modes of R off one certified real Schur form and build
        # their results bare; no computed transform is validated again
        import fermicov.fock
        import fermicov.phase
        from fermicov import quasifree_state

        def counted(a, _original=fermicov.phase._real_modes):
            validate_calls["_real_modes"] += 1
            return _original(a)

        for module in (fermicov.phase, fermicov.fock):
            monkeypatch.setattr(module, "_real_modes", counted)
        m = convert_basis(random_covariance(np.random.default_rng(24), 3), basis)
        validate_calls.clear()
        support_decomposition(m)
        quasifree_state(m)
        assert validate_calls == {"_real_modes": 2}

    def test_lift_trusts_gauge_invariant_data(self, validate_calls):
        gi = two_bath_chain(ChainParams(length=4, theta1=1.0, theta_l=1.0, n1=1.0, n_l=0.0))[0]
        validate_calls.clear()
        lift_gauge_invariant(gi)
        assert validate_calls == {}

    def test_make_semigroup_trusts_tagged_inputs(self, validate_calls):
        rng = np.random.default_rng(22)
        t_s, theta, m_b = random_qf(rng, 2), random_coupling(rng, 2, 1), random_covariance(rng, 1)
        validate_calls.clear()
        make_semigroup(t_s, theta, m_b)
        assert validate_calls == {}


class TestOneSchurForm:
    """Every answer about a spec reads one Schur form of its drift."""

    @pytest.fixture
    def decompositions(self, monkeypatch):
        calls = []
        for module in (np.linalg, scipy.linalg):
            for name in ("schur", "eigvals", "eig", "eigh", "svd"):
                if hasattr(module, name):

                    def counted(a, *args, _original=getattr(module, name), _name=name, **kwargs):
                        calls.append((_name, np.shape(a)))
                        return _original(a, *args, **kwargs)

                    monkeypatch.setattr(module, name, counted)
        return calls

    @staticmethod
    def _answer_everything(spec, m0):
        ergodicity(spec)
        try:
            stationary(spec)
        except NonUniqueStationary:
            pass
        list(propagate_series(spec, m0, 0.1, 3))

    @pytest.mark.parametrize("name", ["two-bath-chain", "thermalization", "xy"])
    def test_hurwitz_preset_makes_one_schur_form(self, decompositions, name):
        spec = cli.build_preset_spec(name, {})
        m0 = validate_covariance(0.5 * np.eye(2 * spec.mode_count), MAJ)
        decompositions.clear()
        self._answer_everything(spec, m0)
        assert decompositions == [("schur", spec.drift.shape)]

    def test_star_sorts_once_and_rotates_its_uncontrolled_block(self, decompositions):
        spec = cli.build_preset_spec("star", {})
        m0 = validate_covariance(0.5 * np.eye(2 * spec.mode_count), MAJ)
        decompositions.clear()
        self._answer_everything(spec, m0)
        k = 2 * spec.mode_count - ergodicity(spec).kalman_rank
        assert decompositions == [("schur", spec.drift.shape)] * 2 + [("eigh", (k, k))]

    def test_gauge_invariant_chain_reads_the_lifted_form(self, decompositions):
        # the solve and the flow of L x L data share the spec's one lift and its 2L x 2L form
        L = 5
        gi, _ = two_bath_chain(ChainParams(length=L, theta1=1.0, theta_l=1.0, n1=1.0, n_l=0.0))
        decompositions.clear()
        m0 = stationary_gauge_invariant(gi)
        propagate_gauge_invariant(gi, m0, np.zeros((L, L)), 0.5)
        assert decompositions == [("schur", (2 * L, 2 * L))]
        assert lift_gauge_invariant(gi) is lift_gauge_invariant(gi)
