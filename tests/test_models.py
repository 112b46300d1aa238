import numpy as np
import pytest

from fermicov import (
    BasisTag,
    StructureViolation,
    convert_basis,
    covariance_from_gibbs,
    ergodicity,
    ergodicity_gauge_invariant,
    lift_gauge_invariant,
    one_end_chain,
    real_case_kalman,
    simple_bath_model,
    small_from_full,
    star_model,
    stationary,
    stationary_gauge_invariant,
    thermalization_model,
    two_bath_chain,
    xy_chain,
)
from fermicov.models import ChainParams, ChainStationaryPrediction, XYParams, chain_hamiltonian

from conftest import random_qf

CA = BasisTag.CREATION_ANNIHILATION


class TestChainHamiltonian:
    def test_one_site_is_zero(self):
        assert np.array_equal(chain_hamiltonian(1), np.zeros((1, 1)))

    @pytest.mark.parametrize("length", [0, -1])
    def test_fewer_than_one_site_is_rejected(self, length):
        with pytest.raises(StructureViolation, match="at least one site"):
            chain_hamiltonian(length)


class TestThermalization:
    def test_infinite_temperature(self):
        rng = np.random.default_rng(0)
        spec = thermalization_model(random_qf(rng, 2), 0.0)
        m_inf = stationary(spec)
        assert np.abs(m_inf.entries - 0.5 * np.eye(4)).max() < 1e-11

    def test_chain_reaches_gibbs(self):
        t0 = chain_hamiltonian(4)
        z = np.zeros_like(t0)
        from fermicov import validate_qf

        t_s = validate_qf(np.block([[t0, z], [z, -t0]]), CA)
        spec = thermalization_model(t_s, 1.0)
        m_inf = convert_basis(stationary(spec), CA).entries
        expected = covariance_from_gibbs(t_s, 1.0).entries
        assert np.abs(m_inf - expected).max() < 1e-11

    def test_always_unique(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            spec = thermalization_model(random_qf(rng, int(rng.integers(1, 4))), 0.8)
            assert ergodicity(spec).unique_stationary


class TestSimpleBath:
    def test_one_end_chain_scalar_stationary(self):
        beta = 1.0
        theta0 = np.array([[1.0], [0.0], [0.0]])
        gi = simple_bath_model(chain_hamiltonian(3), theta0, beta)
        small = stationary_gauge_invariant(gi).entries
        scalar = 1.0 / (1.0 + np.exp(-beta))
        assert np.abs(small - scalar * np.eye(3)).max() < 1e-11

    def test_star_convergent_but_not_unique(self):
        beta = 0.7
        theta0 = np.zeros((3, 1))
        theta0[0, 0] = 1.0
        t0 = np.zeros((3, 3))
        t0[0, 1:] = 1.0
        t0[1:, 0] = 1.0
        gi = simple_bath_model(t0, theta0, beta)
        report = ergodicity_gauge_invariant(gi)
        assert not report.unique_stationary
        assert report.converges

    def test_zero_temperature_limit_empties_the_chain(self):
        gi = simple_bath_model(chain_hamiltonian(2), np.array([[1.0], [0.0]]), 40.0)
        assert np.abs(gi.m_b0.entries - np.eye(1)).max() < 1e-15


class TestTwoBathChain:
    def test_printed_case_unit_couplings(self):
        _, pred = two_bath_chain(ChainParams(5, 1.0, 1.0, 1.0, 0.0))
        assert pred.s == 10.0
        assert (pred.p1, pred.pm, pred.pL, pred.current) == (0.6, 0.5, 0.4, 0.2)

    def test_printed_case_asymmetric_couplings(self):
        _, pred = two_bath_chain(ChainParams(4, 2.0, 1.0, 1.0, 0.0))
        assert pred.s == 40.0
        assert abs(pred.p1 - 0.9) < 1e-15
        assert abs(pred.pm - 0.5) < 1e-15
        assert abs(pred.pL - 0.4) < 1e-15
        assert abs(pred.current - 0.2) < 1e-15

    def test_equilibrium_case(self):
        n = 0.37
        _, pred = two_bath_chain(ChainParams(6, 1.4, 0.6, n, n))
        assert abs(pred.p1 - n) < 1e-14
        assert abs(pred.pm - n) < 1e-14
        assert abs(pred.pL - n) < 1e-14
        assert pred.current == 0.0

    @pytest.mark.parametrize("theta1", [1e78, 1e100, 1e150])
    def test_prediction_stays_finite_at_huge_couplings(self, theta1):
        # theta^4 overflows from about 1.2e77, the model itself only from about 1.3e154
        for theta_l in (1.0, theta1):
            _, pred = two_bath_chain(ChainParams(5, theta1, theta_l, 1.0, 0.2))
            values = np.array([pred.p1, pred.pm, pred.pL, pred.current])
            assert np.all(np.isfinite(values)) and np.all((values >= 0) & (values <= 1))

    @pytest.mark.parametrize("length", range(3, 21))
    def test_prediction_matches_solver(self, length):
        rng = np.random.default_rng(length)
        params = ChainParams(
            length,
            float(rng.uniform(0.3, 2.5)),
            float(rng.uniform(0.3, 2.5)),
            float(rng.uniform(0, 1)),
            float(rng.uniform(0, 1)),
        )
        gi, pred = two_bath_chain(params)
        small = stationary_gauge_invariant(gi).entries
        assert np.abs(small - pred.matrix(length)).max() < 1e-10

    def test_prediction_matrix_shape(self):
        pred = ChainStationaryPrediction(p1=0.6, pm=0.5, pL=0.4, current=0.2, s=10.0)
        m = pred.matrix(4)
        assert m.shape == (4, 4)
        assert np.abs(np.diag(m).real - [0.6, 0.5, 0.5, 0.4]).max() == 0.0

    def test_rejects_bad_params(self):
        with pytest.raises(StructureViolation):
            ChainParams(2, 1.0, 1.0, 0.5, 0.5)
        with pytest.raises(StructureViolation):
            ChainParams(4, 0.0, 1.0, 0.5, 0.5)
        with pytest.raises(StructureViolation):
            ChainParams(4, 1.0, 1.0, 1.4, 0.5)


class TestXYChain:
    def test_isotropic_point_reproduces_chain(self):
        xy = xy_chain(XYParams(5, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0))
        gi, _ = two_bath_chain(ChainParams(5, 1.0, 1.0, 1.0, 0.0))
        lifted = lift_gauge_invariant(gi)
        rep_xy, rep_chain = ergodicity(xy), ergodicity(lifted)
        assert rep_xy.kalman_rank == rep_chain.kalman_rank
        assert rep_xy.unique_stationary == rep_chain.unique_stationary
        small_xy = small_from_full(stationary(xy)).entries
        small_chain = small_from_full(stationary(lifted)).entries
        assert np.abs(small_xy - small_chain).max() < 1e-10
        # isotropic drift is the chain drift slowed down fourfold
        assert abs(rep_xy.spectral_abscissa - rep_chain.spectral_abscissa / 4) < 1e-12

    def test_ising_point_not_unique(self):
        spec = xy_chain(XYParams(4, 1.0, 0.0, 1.0, 1.0, 0.9, 0.1))
        assert not ergodicity(spec).unique_stationary

    def test_anisotropic_with_field_unique(self):
        spec = xy_chain(XYParams(4, 0.5, 0.3, 1.0, 1.0, 0.9, 0.1))
        assert ergodicity(spec).unique_stationary

    def test_field_restores_uniqueness_at_ising_point(self):
        spec = xy_chain(XYParams(4, 1.0, 0.3, 1.0, 1.0, 0.9, 0.1))
        assert ergodicity(spec).unique_stationary

    def test_matches_real_case_criterion(self):
        for kappa in (0.0, 0.4, 1.0):
            for h in (0.0, 0.25):
                params = XYParams(4, kappa, h, 1.0, 1.0, 0.7, 0.3)
                spec = xy_chain(params)
                d = np.diag(np.ones(3), 1)
                c_t = h * np.eye(4) + 0.5 * (1 - kappa) * d + 0.5 * (1 + kappa) * d.T
                c_th = np.zeros((4, 2))
                c_th[0, 0] = -0.5 * (1 + kappa) * 1.0
                c_th[-1, 1] = -0.5 * (1 - kappa) * 1.0
                assert real_case_kalman(c_t, c_th) == ergodicity(spec).unique_stationary


class TestOneEndChain:
    def test_rank_three(self):
        assert ergodicity_gauge_invariant(one_end_chain(3, 1.0, 0.5)).kalman_rank == 3

    def test_single_site(self):
        report = ergodicity_gauge_invariant(one_end_chain(1, 1.0, 0.5))
        assert report.kalman_rank == 1
        assert report.unique_stationary

    def test_decoupled(self):
        report = ergodicity_gauge_invariant(one_end_chain(3, 0.0, 0.5))
        assert report.kalman_rank == 0
        assert not report.unique_stationary


class TestStar:
    def test_rank_two_at_three_sites(self):
        report = ergodicity_gauge_invariant(star_model(3, 1.0, 0.5))
        assert report.kalman_rank == 2
        assert not report.unique_stationary
        assert report.converges

    def test_two_sites_is_a_chain(self):
        report = ergodicity_gauge_invariant(star_model(2, 1.0, 0.5))
        assert report.kalman_rank == 2
        assert report.unique_stationary

    @pytest.mark.parametrize("length", [3, 4, 6])
    def test_spectral_structure(self, length):
        gi = star_model(length, 1.0, 0.5)
        eigs = np.sort(np.linalg.eigvalsh(gi.t_s0))
        root = np.sqrt(length - 1)
        assert abs(eigs[0] + root) < 1e-12
        assert abs(eigs[-1] - root) < 1e-12
        assert np.abs(eigs[1:-1]).max() < 1e-12
        # the +root eigenvector has a nonzero first entry, so it is seen by the bath
        vec = np.concatenate([[root], np.ones(length - 1)])
        assert np.abs(gi.t_s0 @ vec - root * vec).max() < 1e-12
        assert abs(gi.theta0.conj().T @ vec)[0] > 0.1

    @pytest.mark.parametrize("length", [3, 5])
    def test_uncontrollable_complement_is_annihilated(self, length):
        gi = star_model(length, 1.0, 0.5)
        ctrl = np.hstack(
            [np.linalg.matrix_power(gi.t_s0, k) @ gi.theta0 for k in range(length)]
        )
        u, s, _ = np.linalg.svd(ctrl)
        rank = int(np.sum(s > 1e-10))
        comp = u[:, rank:]
        assert np.abs(gi.t_s0 @ comp).max() < 1e-12
