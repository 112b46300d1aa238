import numpy as np
import pytest
import scipy.linalg

from fermicov import (
    BasisTag,
    DenseOperator,
    DenseState,
    IsomorphismTag,
    NotPSD,
    NumericalFailure,
    StructureViolation,
    TooLarge,
    build_lindbladian,
    convert_basis,
    covariance_of,
    evolve_dense,
    expm,
    field_operator,
    majorana_ops,
    make_semigroup,
    partial_trace_bath,
    propagate,
    quadratic_hamiltonian,
    quasifree_state,
    repeated_interaction_step,
    stationary,
    stationary_dense,
    validate_coupling,
    wick_moment,
    xy_chain,
)
from fermicov import fock, oracle
from fermicov.models import XYParams
from fermicov.oracle import apply_generator, generator_norm_bound, superoperator

from conftest import random_covariance, random_qf, random_semigroup, strongly_coupled_semigroup

MAJ = BasisTag.MAJORANA
BOTH_ISOS = [IsomorphismTag.E_SB, IsomorphismTag.E_BS]


def _maximally_mixed(modes):
    dim = 2**modes
    return DenseState(op=DenseOperator(entries=np.eye(dim, dtype=complex) / dim, mode_count=modes))


class TestBuildLindbladian:
    def test_zero_coupling_pure_commutator(self):
        rng = np.random.default_rng(0)
        spec = make_semigroup(
            random_qf(rng, 2),
            validate_coupling(np.zeros((4, 2)), MAJ),
            random_covariance(rng, 1),
        )
        lind = build_lindbladian(spec, IsomorphismTag.E_BS)
        assert lind.jump_ops == []
        rho = quasifree_state(random_covariance(rng, 2)).op.entries
        h = lind.hamiltonian.entries
        assert np.abs(apply_generator(lind, rho) + 1j * (h @ rho - rho @ h)).max() < 1e-12

    def test_thermal_single_mode_has_two_jumps(self):
        rng = np.random.default_rng(1)
        spec = random_semigroup(rng, 1, 1)
        lind = build_lindbladian(spec, IsomorphismTag.E_BS)
        assert len(lind.jump_ops) == 2

    def test_trace_preservation(self):
        rng = np.random.default_rng(2)
        spec = random_semigroup(rng, 3, 2)
        lind = build_lindbladian(spec, IsomorphismTag.E_SB)
        for _ in range(20):
            x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            rho = x @ x.conj().T
            rho /= np.trace(rho)
            assert abs(np.trace(apply_generator(lind, rho))) < 1e-12

    def test_too_large(self):
        rng = np.random.default_rng(3)
        spec = random_semigroup(rng, 7, 1)
        with pytest.raises(TooLarge):
            build_lindbladian(spec, IsomorphismTag.E_BS)

    def test_not_psd_rejected(self):
        rng = np.random.default_rng(4)
        spec = random_semigroup(rng, 1, 1)
        bad = make_semigroup(spec.t_s, spec.theta, spec.m_b)
        object.__setattr__(bad.m_b, "entries", 0.5 * np.eye(2) + 0.6 * np.array([[0, 1j], [-1j, 0]]))
        with pytest.raises(NotPSD):
            build_lindbladian(bad, IsomorphismTag.E_BS)

    @pytest.mark.parametrize("iso", BOTH_ISOS)
    def test_strong_coupling_rounding_is_not_psd(self, iso):
        # the check scales with the largest eigenvalue, like the structure checks in ``phase``
        spec = strongly_coupled_semigroup()
        c = oracle._jump_matrix(spec.theta.entries, spec.m_b.entries)
        lam = scipy.linalg.eigh((c + c.conj().T) / 2)[0]
        assert lam.min() < -oracle.PSD_CLAMP
        assert len(build_lindbladian(spec, iso).jump_ops) == 2  # rank of Theta

    def test_empty_bath_jumps_annihilate(self):
        # bath with absence 1 produces only particle-removing jump operators
        theta0 = np.array([[1.0], [0.0]])
        from fermicov import make_gauge_invariant, lift_gauge_invariant

        gi = make_gauge_invariant(np.zeros((2, 2)), theta0, np.array([[1.0]]))
        lind = build_lindbladian(lift_gauge_invariant(gi), IsomorphismTag.E_BS)
        vac = np.zeros((4, 4), dtype=complex)
        vac[0, 0] = 1.0
        for jump in lind.jump_ops:
            assert np.abs(jump.entries @ vac).max() < 1e-12


def _generator_case(case):
    rng = np.random.default_rng(18)
    if case == "xy E_B1SB2":
        spec = xy_chain(
            XYParams(length=3, kappa=0.7, h=0.1, theta1=1.0, theta2=0.9, bath1=0.8, bath2=0.2)
        )
        return build_lindbladian(spec, IsomorphismTag.E_B1SB2)
    if case == "no jumps":
        spec = make_semigroup(
            random_qf(rng, 2), validate_coupling(np.zeros((4, 2)), MAJ), random_covariance(rng, 1)
        )
        lind = build_lindbladian(spec, IsomorphismTag.E_BS)
        assert lind.jump_ops == []
        return lind
    return build_lindbladian(random_semigroup(rng, 3, 2), IsomorphismTag[case])


class TestSuperoperator:
    @pytest.mark.parametrize("case", ["E_SB", "E_BS", "xy E_B1SB2", "no jumps"])
    def test_matches_apply_generator(self, case):
        # the literal GKLS form is the reference for the vectorized generator
        lind = _generator_case(case)
        dim = 2**lind.mode_count
        rng = np.random.default_rng(19)
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        got = superoperator(lind) @ x.flatten("F")
        expected = apply_generator(lind, x).flatten("F")
        assert np.abs(got - expected).max() <= 1e-12 * max(1.0, np.abs(x).max())

    @pytest.mark.parametrize("case", ["E_SB", "E_BS", "xy E_B1SB2", "no jumps"])
    def test_norm_bound_covers_the_one_norm(self, case):
        lind = _generator_case(case)
        norm = np.linalg.norm(superoperator(lind), 1)
        assert norm <= generator_norm_bound(lind) * (1 + 1e-12)


class TestEvolveDense:
    @pytest.mark.parametrize("t", [0.5, 60.0])
    @pytest.mark.parametrize("case", ["E_SB", "E_BS", "xy E_B1SB2", "no jumps"])
    def test_matches_expm_of_superoperator(self, case, t):
        # t = 60 makes the norm bound large enough to take several Taylor steps
        lind = _generator_case(case)
        dim = 2**lind.mode_count
        rng = np.random.default_rng(20)
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho0 = x @ x.conj().T
        rho0 /= np.trace(rho0).real
        state = DenseState(op=DenseOperator(entries=rho0, mode_count=lind.mode_count))
        expected = (scipy.linalg.expm(t * superoperator(lind)) @ rho0.flatten("F")).reshape(
            (dim, dim), order="F"
        )
        got = evolve_dense(lind, state, t).op.entries
        assert np.abs(got - expected).max() <= 1e-11 * max(1.0, np.abs(expected).max())

    @pytest.mark.parametrize("t", [0.5, 60.0])
    def test_nearly_hermitian_start_evolves_as_its_hermitian_part(self, t):
        # the Taylor loop reads X K* as (K X)*, which holds for a Hermitian X
        lind = _generator_case("E_SB")
        n = lind.mode_count
        dim = 2**n
        rng = np.random.default_rng(22)
        x, y = rng.standard_normal((2, dim, dim)) + 1j * rng.standard_normal((2, dim, dim))
        herm = x @ x.conj().T
        herm /= np.trace(herm).real
        skew = y - y.conj().T
        rho0 = herm + 1e-12 * skew / np.abs(skew).max()
        got, part = (
            evolve_dense(lind, DenseState(op=DenseOperator(entries=r, mode_count=n)), t).op.entries
            for r in (rho0, herm)
        )
        assert np.abs(got - part).max() <= 1e-14
        expected = scipy.linalg.expm(t * superoperator(lind)) @ herm.flatten("F")
        expected = expected.reshape((dim, dim), order="F")
        assert np.abs(got - expected).max() <= 1e-11 * max(1.0, np.abs(expected).max())

    def test_never_builds_the_superoperator(self, monkeypatch):
        lind = _generator_case("E_SB")
        rho0 = _maximally_mixed(lind.mode_count)

        def refuse(_):
            raise AssertionError("evolve_dense built the 4^L x 4^L superoperator")

        monkeypatch.setattr(oracle, "superoperator", refuse)
        evolve_dense(lind, rho0, 1.0)

    def test_infinite_time_rejected(self):
        # a non-finite t is the caller's error, as in ``propagate``; a finite t
        # whose norm bound overflows is a numerical failure
        lind = _generator_case("E_SB")
        for t in (np.inf, np.nan):
            with pytest.raises(ValueError, match="nonnegative and finite"):
                evolve_dense(lind, _maximally_mixed(lind.mode_count), t)
        with pytest.raises(NumericalFailure, match="not finite"):
            evolve_dense(lind, _maximally_mixed(lind.mode_count), 1e308)

    def test_time_zero_is_identity(self):
        rng = np.random.default_rng(5)
        spec = random_semigroup(rng, 2, 1)
        lind = build_lindbladian(spec, IsomorphismTag.E_BS)
        rho0 = quasifree_state(random_covariance(rng, 2))
        out = evolve_dense(lind, rho0, 0.0)
        assert np.abs(out.op.entries - rho0.op.entries).max() < 1e-12

    def test_zero_coupling_covariance_conjugation(self):
        rng = np.random.default_rng(6)
        t = random_qf(rng, 2)
        spec = make_semigroup(
            t, validate_coupling(np.zeros((4, 2)), MAJ), random_covariance(rng, 1)
        )
        lind = build_lindbladian(spec, IsomorphismTag.E_BS)
        m0 = random_covariance(rng, 2, beta=0.7)
        rho_t = evolve_dense(lind, quasifree_state(m0), 1.1)
        got = convert_basis(covariance_of(rho_t), MAJ).entries
        u = expm(-1.1j * spec.t_s.entries)
        expected = u @ convert_basis(m0, MAJ).entries @ u.conj().T
        assert np.abs(got - expected).max() < 1e-9

    def test_long_time_reaches_stationary(self):
        rng = np.random.default_rng(7)
        spec = random_semigroup(rng, 2, 2)
        lind = build_lindbladian(spec, IsomorphismTag.E_SB)
        rho_t = evolve_dense(lind, _maximally_mixed(2), 60.0)
        got = convert_basis(covariance_of(rho_t), MAJ).entries
        expected = stationary(spec).entries
        assert np.abs(got - expected).max() < 1e-6

    @pytest.mark.parametrize("iso", BOTH_ISOS)
    def test_covariance_consistency(self, iso):
        rng = np.random.default_rng(8)
        for _ in range(3):
            L, K = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            spec = random_semigroup(rng, L, K)
            m0 = random_covariance(rng, L, beta=0.6)
            lind = build_lindbladian(spec, iso)
            for t in (0.3, 1.0, 3.0):
                got = convert_basis(covariance_of(evolve_dense(lind, quasifree_state(m0), t)), MAJ)
                expected = convert_basis(propagate(spec, m0, t), MAJ)
                assert np.abs(got.entries - expected.entries).max() < 1e-8

    def test_isos_agree_on_even_states(self):
        rng = np.random.default_rng(9)
        spec = random_semigroup(rng, 2, 1)
        rho0 = quasifree_state(random_covariance(rng, 2))  # Gibbs states are even
        outs = [
            evolve_dense(build_lindbladian(spec, iso), rho0, 0.9).op.entries
            for iso in BOTH_ISOS
        ]
        assert np.abs(outs[0] - outs[1]).max() < 1e-10

    def test_isos_differ_on_odd_operators(self):
        rng = np.random.default_rng(10)
        spec = random_semigroup(rng, 2, 1)
        gens = [superoperator(build_lindbladian(spec, iso)) for iso in BOTH_ISOS]
        odd = majorana_ops(2)[0].entries  # single field operator is odd
        vec = odd.flatten(order="F")
        assert np.abs(gens[0] @ vec - gens[1] @ vec).max() > 1e-6

    def test_stationary_dense_matches_lyapunov(self):
        rng = np.random.default_rng(11)
        spec = random_semigroup(rng, 2, 1)
        rho_inf = stationary_dense(build_lindbladian(spec, IsomorphismTag.E_BS))
        got = convert_basis(covariance_of(rho_inf), MAJ).entries
        assert np.abs(got - stationary(spec).entries).max() < 1e-9

    def test_quasifree_preservation(self):
        rng = np.random.default_rng(12)
        spec = random_semigroup(rng, 3, 1)
        lind = build_lindbladian(spec, IsomorphismTag.E_BS)
        rho0 = quasifree_state(random_covariance(rng, 3, beta=0.7))
        for t in (0.5, 2.0):
            rho_t = evolve_dense(lind, rho0, t)
            cov = covariance_of(rho_t)
            word = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(4)]
            dense_op = np.eye(8, dtype=complex)
            for x in word:
                dense_op = dense_op @ field_operator(x, 3).entries
            dense = np.trace(rho_t.op.entries @ dense_op)
            assert abs(wick_moment(cov, word) - dense) < 1e-8


class TestRepeatedInteraction:
    def test_zero_coupling_step_is_unitary(self):
        rng = np.random.default_rng(13)
        t = random_qf(rng, 2)
        spec = make_semigroup(
            t, validate_coupling(np.zeros((4, 2)), MAJ), random_covariance(rng, 1)
        )
        omega = quasifree_state(spec.m_b)
        tau = 0.2
        step = repeated_interaction_step(spec, omega, tau)
        rho0 = quasifree_state(random_covariance(rng, 2))
        h = quadratic_hamiltonian(t, 0.5).entries
        u = expm(-1j * tau * h)
        expected = u @ rho0.op.entries @ u.conj().T
        assert np.abs(step(rho0).op.entries - expected).max() < 1e-12

    def test_iteration_approaches_semigroup(self):
        rng = np.random.default_rng(14)
        spec = random_semigroup(rng, 2, 1)
        omega = quasifree_state(spec.m_b)
        rho0 = quasifree_state(random_covariance(rng, 2, beta=0.8))
        target = evolve_dense(build_lindbladian(spec, IsomorphismTag.E_SB), rho0, 1.0)
        errs = []
        for tau in (0.1, 0.05):
            rho = rho0
            step = repeated_interaction_step(spec, omega, tau)
            for _ in range(round(1.0 / tau)):
                rho = step(rho)
            errs.append(np.linalg.norm(rho.op.entries - target.op.entries))
        assert errs[1] < errs[0]

    def test_half_order_term_vanishes(self):
        # || step(rho) - rho - tau L(rho) || must shrink faster than sqrt(tau)
        rng = np.random.default_rng(15)
        spec = random_semigroup(rng, 2, 1)
        omega = quasifree_state(spec.m_b)
        rho0 = quasifree_state(random_covariance(rng, 2, beta=0.8))
        lind = build_lindbladian(spec, IsomorphismTag.E_SB)
        gen = apply_generator(lind, rho0.op.entries)

        def defect(tau):
            step = repeated_interaction_step(spec, omega, tau)
            return np.linalg.norm(step(rho0).op.entries - rho0.op.entries - tau * gen)

        tau = 0.04
        assert defect(tau / 4) / np.sqrt(tau / 4) < 0.5 * defect(tau) / np.sqrt(tau)

    def test_b1sb2_step_matches_generator(self):
        spec = xy_chain(
            XYParams(length=2, kappa=0.7, h=0.1, theta1=1.0, theta2=0.9, bath1=0.8, bath2=0.2)
        )
        omega = quasifree_state(spec.m_b)
        rho0 = quasifree_state(random_covariance(np.random.default_rng(16), 2, beta=0.9))
        target = evolve_dense(build_lindbladian(spec, IsomorphismTag.E_B1SB2), rho0, 1.0)
        errs = []
        for tau in (0.1, 0.05):
            rho = rho0
            step = repeated_interaction_step(spec, omega, tau, iso=IsomorphismTag.E_B1SB2)
            for _ in range(round(1.0 / tau)):
                rho = step(rho)
            errs.append(np.linalg.norm(rho.op.entries - target.op.entries))
        assert errs[1] < errs[0]
        assert errs[1] < 5e-2

    @pytest.mark.parametrize("tau", [0.0, -0.1, np.nan, np.inf])
    def test_rejects_step_length_not_positive_and_finite(self, tau):
        rng = np.random.default_rng(18)
        spec = random_semigroup(rng, 1, 1)
        omega = quasifree_state(spec.m_b)
        with pytest.raises(ValueError, match="positive and finite"):
            repeated_interaction_step(spec, omega, tau)

    def test_rejects_odd_bath_state(self):
        rng = np.random.default_rng(17)
        spec = random_semigroup(rng, 1, 1)
        odd = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)  # coherence between parities
        with pytest.raises(Exception):
            repeated_interaction_step(
                spec, DenseState(op=DenseOperator(entries=odd, mode_count=1)), 0.1
            )


class TestDenseStatesValidatedOnce:
    """A received DenseState is trusted; each computed one is certified once."""

    @pytest.fixture
    def validate_calls(self, monkeypatch):
        calls = []

        def counted(self, tol=1e-10, _original=fock.DenseState.validate):
            calls.append((self, self.op.mode_count, tol))
            return _original(self, tol)

        monkeypatch.setattr(fock.DenseState, "validate", counted)
        return calls

    @staticmethod
    def _xy():
        return xy_chain(XYParams(length=2, kappa=0.7, h=0.1, theta1=1.0, theta2=0.9, bath1=0.8, bath2=0.2))

    def test_covariance_and_partial_trace_trust_their_state(self, validate_calls):
        rho = quasifree_state(random_covariance(np.random.default_rng(41), 3))
        validate_calls.clear()
        covariance_of(rho)
        covariance_of(partial_trace_bath(rho, 2, 1))
        assert validate_calls == []

    def test_evolve_and_stationary_certify_their_result_once(self, validate_calls):
        rng = np.random.default_rng(42)
        lind = build_lindbladian(random_semigroup(rng, 2, 1), IsomorphismTag.E_SB)
        rho0 = quasifree_state(random_covariance(rng, 2))
        validate_calls.clear()
        out = evolve_dense(lind, rho0, 0.7)
        assert validate_calls == [(out, 2, 1e-8)]
        validate_calls.clear()
        out = stationary_dense(lind)
        assert validate_calls == [(out, 2, 1e-8)]

    @pytest.mark.parametrize("iso", list(IsomorphismTag))
    def test_each_step_certifies_its_system_state_once(self, validate_calls, iso):
        spec = self._xy()
        omega = quasifree_state(spec.m_b)
        rho = quasifree_state(random_covariance(np.random.default_rng(43), 2, beta=0.9))
        validate_calls.clear()
        step = repeated_interaction_step(spec, omega, 0.1, iso=iso)
        assert validate_calls == []
        for _ in range(3):
            rho = step(rho)
            assert validate_calls.pop() == (rho, 2, 1e-10)
            assert validate_calls == []  # in particular none on the 4-mode joint state

    def test_step_result_check_catches_a_non_unitary_step(self, monkeypatch):
        spec = self._xy()
        omega = quasifree_state(spec.m_b)
        monkeypatch.setattr(oracle, "expm", lambda a: 1.1 * np.eye(len(a)))
        step = repeated_interaction_step(spec, omega, 0.1)
        with pytest.raises(StructureViolation, match="state trace is not 1"):
            step(quasifree_state(random_covariance(np.random.default_rng(44), 2)))
