import numpy as np
import pytest

from fermicov import (
    BasisTag,
    StructureViolation,
    WordTooLong,
    convert_basis,
    covariance_from_gibbs,
    covariance_of,
    full_from_small,
    gibbs_state,
    majorana_ops,
    quadratic_hamiltonian,
    quasifree_state,
    small_covariance_from_gibbs,
    small_from_full,
    validate_covariance,
    validate_small_covariance,
    wick_moment,
)
from fermicov.models import chain_hamiltonian

from conftest import random_covariance, random_qf

CA = BasisTag.CREATION_ANNIHILATION
MAJ = BasisTag.MAJORANA


def annihilator_coords(i, modes):
    """Majorana coordinates of c_i."""
    x = np.zeros(2 * modes, dtype=complex)
    x[i] = 0.5
    x[i + modes] = 0.5j
    return x


def creator_coords(i, modes):
    x = np.zeros(2 * modes, dtype=complex)
    x[i] = 0.5
    x[i + modes] = -0.5j
    return x


class TestGibbsCovariance:
    def test_infinite_temperature(self):
        rng = np.random.default_rng(0)
        m = covariance_from_gibbs(random_qf(rng, 2), 0.0)
        assert np.abs(m.entries - 0.5 * np.eye(4)).max() < 1e-14

    def test_single_mode_value(self):
        # T0 = (1), beta = ln 2: absence probability  1 / (1 + 1/2) = 2/3
        small = small_covariance_from_gibbs(np.array([[1.0]]), np.log(2.0))
        assert abs(small.entries[0, 0] - 2.0 / 3.0) < 1e-14

    def test_single_mode_matches_dense_trace(self):
        # rho = e^{-beta c*c} / Z realized densely; F*TF needs the half-lift
        t0 = np.array([[1.0]])
        beta = np.log(2.0)
        rho = gibbs_state(quadratic_hamiltonian(_lift(t0), 0.5), beta)
        dense = covariance_of(rho).entries
        assert abs(dense[0, 0] - 2.0 / 3.0) < 1e-12

    def test_low_temperature_projector(self):
        # spectrum {+1, -1}: at beta = 50 the covariance is the +1 eigenprojector
        rng = np.random.default_rng(3)
        t = random_qf(rng, 1)
        from fermicov import validate_qf

        t = validate_qf(t.entries / np.abs(np.linalg.eigvalsh(t.entries)).max(), CA)
        w, v = np.linalg.eigh(t.entries)
        projector = (v * (w > 0)) @ v.conj().T
        m = covariance_from_gibbs(t, 50.0)
        assert np.abs(m.entries - projector).max() < 1e-10

    @pytest.mark.parametrize("beta", [0.2, 1.0, 4.0])
    def test_validates_and_stays_interior(self, beta):
        rng = np.random.default_rng(5)
        m = covariance_from_gibbs(random_qf(rng, 3), beta)
        m.validate()
        eigs = np.linalg.eigvalsh(m.entries)
        assert eigs.min() > 0.0 and eigs.max() < 1.0


@pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
def test_gibbs_covariances_reject_non_finite_beta(beta):
    rng = np.random.default_rng(6)
    with pytest.raises(StructureViolation, match="beta must be finite"):
        covariance_from_gibbs(random_qf(rng, 2), beta)
    with pytest.raises(StructureViolation, match="beta must be finite"):
        small_covariance_from_gibbs(np.diag([1.0, -0.5]), beta)


def _lift(t0):
    from fermicov import validate_qf

    z = np.zeros_like(t0)
    return validate_qf(np.block([[t0, z], [z, -t0.conj()]]), CA)


class TestWick:
    def test_odd_word_vanishes(self):
        rng = np.random.default_rng(1)
        m = random_covariance(rng, 2)
        word = [rng.standard_normal(4) + 1j * rng.standard_normal(4)]
        assert wick_moment(m, word) == 0

    def test_two_point_reproduces_entries(self):
        rng = np.random.default_rng(2)
        m = random_covariance(rng, 2)
        mc = convert_basis(m, CA).entries
        for i in range(2):
            for j in range(2):
                val = wick_moment(m, [annihilator_coords(i, 2), creator_coords(j, 2)])
                assert abs(val - mc[i, j]) < 1e-12

    def test_gauge_invariant_four_point(self):
        # occupations (0.3, 0.8): tr(rho c1 c1* c2 c2*) = 0.7 * 0.2
        m = full_from_small(validate_small_covariance(np.diag([0.7, 0.2])))
        word = [
            annihilator_coords(0, 2),
            creator_coords(0, 2),
            annihilator_coords(1, 2),
            creator_coords(1, 2),
        ]
        assert abs(wick_moment(m, word) - 0.14) < 1e-12

    def test_gauge_invariant_four_point_dense(self):
        m = full_from_small(validate_small_covariance(np.diag([0.7, 0.2])))
        rho = quasifree_state(m).op.entries
        cs = [np.kron(np.array([[0, 1], [0, 0]]), np.eye(2)).astype(complex)]
        cs.append(np.kron(np.diag([1.0, -1.0]), np.array([[0, 1], [0, 0]])).astype(complex))
        op = cs[0] @ cs[0].conj().T @ cs[1] @ cs[1].conj().T
        assert abs(np.trace(rho @ op) - 0.14) < 1e-9

    @pytest.mark.parametrize("length", [2, 4, 6])
    def test_matches_dense_traces(self, length):
        rng = np.random.default_rng(10 + length)
        modes = 3
        m = random_covariance(rng, modes, beta=0.8)
        rho = quasifree_state(m).op.entries
        gs = [g.entries for g in majorana_ops(modes)]
        word = [rng.standard_normal(2 * modes) + 1j * rng.standard_normal(2 * modes) for _ in range(length)]
        dense_op = np.eye(2**modes, dtype=complex)
        for x in word:
            phi = sum(xi * g for xi, g in zip(x, gs))
            dense_op = dense_op @ phi
        dense = np.trace(rho @ dense_op)
        assert abs(wick_moment(m, word) - dense) < 1e-8

    def test_word_too_long(self):
        rng = np.random.default_rng(4)
        m = random_covariance(rng, 1)
        with pytest.raises(WordTooLong):
            wick_moment(m, [np.zeros(2)] * 14)

    def test_longest_word_accepted(self):
        # 12 letters, 10395 pairings, checked against the dense trace
        rng = np.random.default_rng(15)
        m = random_covariance(rng, 1, beta=0.9)
        rho = quasifree_state(m).op.entries
        word = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(12)]
        dense_op = np.eye(2, dtype=complex)
        for x in word:
            g1 = np.array([[0, 1], [1, 0]], dtype=complex)
            g2 = np.array([[0, -1j], [1j, 0]])
            dense_op = dense_op @ (x[0] * g1 + x[1] * g2)
        dense = np.trace(rho @ dense_op)
        assert abs(wick_moment(m, word) - dense) < 1e-8

    def test_empty_word_is_one(self):
        rng = np.random.default_rng(16)
        assert wick_moment(random_covariance(rng, 1), []) == 1.0

    def test_wrong_vector_size(self):
        rng = np.random.default_rng(4)
        m = random_covariance(rng, 2)
        with pytest.raises(StructureViolation):
            wick_moment(m, [np.zeros(3), np.zeros(3)])

    @pytest.mark.parametrize("length", [1, 3])
    def test_wrong_vector_size_in_odd_word(self, length):
        # odd words vanish, but only after their vectors pass the shape check
        rng = np.random.default_rng(4)
        m = random_covariance(rng, 2)
        with pytest.raises(StructureViolation):
            wick_moment(m, [np.zeros(7)] * length)
        assert wick_moment(m, [np.zeros(4)] * length) == 0.0


class TestSmallCovariance:
    def test_half_identity(self):
        m = validate_covariance(0.5 * np.eye(6), MAJ)
        assert np.abs(small_from_full(m).entries - 0.5 * np.eye(3)).max() < 1e-12

    def test_block_extraction(self):
        m0 = np.diag([0.9, 0.4, 0.1])
        full = full_from_small(validate_small_covariance(m0))
        assert np.abs(small_from_full(full).entries - m0).max() == 0.0

    def test_gibbs_closed_forms_agree(self):
        # the half-lift of T0 makes the full closed form reduce to the small one
        t0 = chain_hamiltonian(3)
        from fermicov import validate_qf

        z = np.zeros_like(t0)
        half_lift = validate_qf(0.5 * np.block([[t0, z], [z, -t0]]), CA)
        full = covariance_from_gibbs(half_lift, 1.0)
        small = small_from_full(full)
        direct = small_covariance_from_gibbs(t0, 1.0)
        assert np.abs(small.entries - direct.entries).max() < 1e-12


class TestValidation:
    def test_rejects_eigenvalues_outside_range(self):
        with pytest.raises(StructureViolation):
            validate_covariance(1.2 * np.eye(4), MAJ)

    def test_rejects_wrong_majorana_real_part(self):
        bad = 0.4 * np.eye(4)
        with pytest.raises(StructureViolation):
            validate_covariance(bad, MAJ)

    def test_accepts_degenerate_vacuum(self):
        vac = np.block(
            [[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), np.zeros((2, 2))]]
        )
        validate_covariance(vac, CA)

    def test_rejects_broken_ca_blocks(self):
        rng = np.random.default_rng(6)
        m = convert_basis(random_covariance(rng, 2), CA).entries.copy()
        m[0, 2] += 0.05  # pairing block must stay antisymmetric
        with pytest.raises(StructureViolation):
            validate_covariance(m, CA)

    # Hermitian matrices with spectrum in [0, 1] that differ from a valid twin
    # only in particle-hole structure: each must fail on that check alone.

    def test_ca_lower_right_block_must_be_i_minus_conj_m0(self):
        m0 = small_covariance_from_gibbs(np.array([[0.7, 0.2j], [-0.2j, -0.4]]), 1.0).entries
        z = np.zeros((2, 2))
        validate_covariance(np.block([[m0, z], [z, np.eye(2) - m0.conj()]]), CA)
        with pytest.raises(StructureViolation, match="I/2 \\+ i R") as info:
            validate_covariance(np.block([[m0, z], [z, m0]]), CA)
        assert info.value.residual > 0.1

    def test_ca_pairing_block_must_be_antisymmetric(self):
        a = 0.2 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        valid = np.block([[0.5 * np.eye(2), a], [a.conj().T, 0.5 * np.eye(2)]])
        validate_covariance(valid, CA)
        sym = 0.2 * np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(StructureViolation, match="I/2 \\+ i R"):
            validate_covariance(np.block([[0.5 * np.eye(2), sym], [sym, 0.5 * np.eye(2)]]), CA)
