import gc
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from fermicov import (
    BasisTag,
    DenseOperator,
    DenseState,
    IsomorphismTag,
    StructureViolation,
    TooLarge,
    UnsupportedIso,
    annihilation_ops,
    block_reduce,
    convert_basis,
    covariance_from_gibbs,
    covariance_of,
    embed,
    field_operator,
    full_from_small,
    gibbs_state,
    majorana_ops,
    parity_op,
    partial_trace_bath,
    quadratic_hamiltonian,
    quasifree_state,
    validate_qf,
    validate_small_covariance,
    wick_moment,
)
from fermicov import fock

from conftest import random_covariance, random_qf

CA = BasisTag.CREATION_ANNIHILATION


def _reference_annihilators(n):
    """Jordan-Wigner annihilators as Kronecker products, shape (n, 2^n, 2^n)."""
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    z = np.diag([1.0, -1.0])
    return np.array([reduce(np.kron, [z] * i + [a] + [np.eye(2)] * (n - 1 - i)) for i in range(n)])


def _reference_majoranas(n):
    cs = _reference_annihilators(n)
    cds = cs.transpose(0, 2, 1)
    return np.concatenate([cs + cds, -1j * (cs - cds)])


def _state(arr):
    n = int(np.log2(arr.shape[0]))
    return DenseState(op=DenseOperator(entries=np.asarray(arr, dtype=complex), mode_count=n))


class TestMajoranaOps:
    def test_single_mode_pauli_pair(self):
        g1, g2 = (op.entries for op in majorana_ops(1))
        assert np.array_equal(g1, np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.array_equal(g2, np.array([[0, -1j], [1j, 0]]))

    def test_exact_car_two_modes(self):
        gs = [op.entries for op in majorana_ops(2)]
        for i, a in enumerate(gs):
            for j, b in enumerate(gs):
                acomm = a @ b + b @ a
                expected = 2.0 * (i == j) * np.eye(4)
                assert np.array_equal(acomm, expected)

    def test_involutions_three_modes(self):
        for op in majorana_ops(3):
            assert np.array_equal(op.entries @ op.entries, np.eye(8, dtype=complex))

    def test_all_hermitian(self):
        for op in majorana_ops(3):
            assert np.array_equal(op.entries, op.entries.conj().T)

    def test_odd_operators_traceless(self):
        for op in majorana_ops(3):
            assert np.trace(op.entries) == 0

    def test_too_large(self):
        with pytest.raises(TooLarge):
            majorana_ops(13)

    def test_annihilators_match_string_formula(self):
        cs = [op.entries for op in annihilation_ops(2)]
        # c_2 |11> = -|10>: occupied site 1 contributes the sign
        idx_11, idx_10 = 0b11, 0b10
        assert cs[1][idx_10, idx_11] == -1.0


@pytest.mark.parametrize("n", range(1, 8))
class TestKroneckerReference:
    def test_majoranas(self, n):
        assert np.array_equal([g.entries for g in majorana_ops(n)], _reference_majoranas(n))

    def test_annihilators(self, n):
        assert np.array_equal([c.entries for c in annihilation_ops(n)], _reference_annihilators(n))

    def test_parity(self, n):
        z = np.diag([1.0, -1.0])
        assert np.array_equal(parity_op(n).entries, reduce(np.kron, [z] * n))

    def test_field_operator(self, n):
        rng = np.random.default_rng(70 + n)
        x = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        reference = np.tensordot(x, _reference_majoranas(n), axes=1)
        assert np.array_equal(field_operator(x, n).entries, reference)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_field_operator_rejects_non_finite_coordinates(bad):
    x = np.zeros(4, dtype=complex)
    x[2] = bad
    with pytest.raises(StructureViolation, match="coordinates have non-finite entries"):
        field_operator(x, 2)


class TestMemory:
    @staticmethod
    def _cold_peak(t):
        """Traced peak of ``quadratic_hamiltonian(t, 0.5)`` with its row cache cleared."""
        quadratic_hamiltonian(random_qf(np.random.default_rng(81), 2), 0.5)
        fock._majorana_rows.cache_clear()
        tracemalloc.start()
        try:
            quadratic_hamiltonian(t, 0.5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_cold_quadratic_hamiltonian_peak(self):
        # building the dense (2n, 2^n, 2^n) Majorana stack peaked at 144 MiB at n = 9
        assert self._cold_peak(random_qf(np.random.default_rng(80), 9)) < 32 * 2**20

    def test_cold_quadratic_hamiltonian_peak_at_ten_modes(self):
        # the row gather held three 1024 x 1024 matrices (48 MiB); the result is 16 MiB
        assert self._cold_peak(random_qf(np.random.default_rng(83), 10)) < 32 * 2**20

    def test_caches_hold_no_dense_matrices(self):
        # what is still allocated once the results are dropped is what the caches hold
        def build():
            rng = np.random.default_rng(82)
            majorana_ops(8), annihilation_ops(8), parity_op(8)
            rho = quasifree_state(random_covariance(rng, 8))
            covariance_of(rho)
            embed(parity_op(4), parity_op(4), IsomorphismTag.E_SB)

        build()
        caches = [f for f in vars(fock).values() if hasattr(f, "cache_clear")]
        assert fock._majorana_rows in caches
        for f in caches:
            f.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            build()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2**20


class TestQuadraticHamiltonian:
    def test_zero(self):
        t = validate_qf(np.zeros((4, 4)), CA)
        assert np.abs(quadratic_hamiltonian(t, 1.0).entries).max() == 0.0

    def test_single_mode_number_operator(self):
        eps = 0.7
        t = validate_qf(np.diag([eps, -eps]).astype(complex), CA)
        h = quadratic_hamiltonian(t, 1.0).entries
        c = annihilation_ops(1)[0].entries
        direct = eps * (c.conj().T @ c - c @ c.conj().T)
        assert np.abs(h - direct).max() < 1e-14
        assert np.abs(np.sort(np.linalg.eigvalsh(h)) - [-eps, eps]).max() < 1e-14

    @pytest.mark.parametrize("seed", range(3))
    def test_spectrum_from_block_reduction(self, seed):
        rng = np.random.default_rng(seed)
        t = random_qf(rng, 2)
        _, lam = block_reduce(t)
        h = quadratic_hamiltonian(t, 1.0).entries
        combos = sorted(
            s1 * lam[0] + s2 * lam[1] for s1 in (-1, 1) for s2 in (-1, 1)
        )
        assert np.abs(np.sort(np.linalg.eigvalsh(h)) - combos).max() < 1e-10

    def test_parity_commutes(self):
        rng = np.random.default_rng(5)
        h = quadratic_hamiltonian(random_qf(rng, 3), 0.5).entries
        par = parity_op(3).entries
        assert np.abs(h @ par - par @ h).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_row_gather_equals_dense_products(self, n):
        # the dense form sum_i g_i phi(h_i), with each g_i multiplied in as a matrix;
        # each entry sums at most 8n terms of size <= max|dense| in another order
        t = random_qf(np.random.default_rng(40 + n), n)
        h = 0.5 * 0.5 * convert_basis(t, BasisTag.MAJORANA).entries
        gs = [g.entries for g in majorana_ops(n)]
        dense = sum(g @ field_operator(row, n).entries for g, row in zip(gs, h))
        dense = (dense + dense.conj().T) / 2
        got = quadratic_hamiltonian(t, 0.5).entries
        assert np.abs(got - dense).max() <= 4 * n * np.finfo(float).eps * np.abs(dense).max()


def test_nan_diagonal_is_not_a_state():
    # a NaN residual fails the Hermiticity check instead of slipping past "res > tol"
    with pytest.raises(StructureViolation, match="state is not Hermitian"):
        _state(np.diag([np.nan, 1.0])).validate()


class TestGibbsState:
    def test_rejects_nan_hamiltonian(self):
        h = DenseOperator(entries=np.diag([np.nan, 0.0]).astype(complex), mode_count=1)
        with pytest.raises(StructureViolation, match="Gibbs Hamiltonian is not Hermitian"):
            gibbs_state(h, 1.0)

    @pytest.mark.parametrize("beta", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_beta(self, beta):
        t = validate_qf(np.diag([1.0, -1.0]).astype(complex), CA)
        with pytest.raises(StructureViolation, match="beta must be finite"):
            gibbs_state(quadratic_hamiltonian(t, 1.0), beta)

    def test_negative_beta(self):
        # the default one-end-chain H spreads 2.83: e^(300 * 2.83) overflows unless
        # the exponent is shifted by the top of the spectrum
        from fermicov.cli import build_preset_spec

        h = quadratic_hamiltonian(build_preset_spec("one-end-chain", {}).t_s, 0.5)
        rho = gibbs_state(h, -300.0)
        rho.validate()
        minus_h = DenseOperator(entries=-h.entries, mode_count=h.mode_count)
        assert np.abs(rho.op.entries - gibbs_state(minus_h, 300.0).op.entries).max() < 1e-12

    def test_infinite_temperature(self):
        t = validate_qf(np.diag([1.0, -1.0]).astype(complex), CA)
        rho = gibbs_state(quadratic_hamiltonian(t, 1.0), 0.0)
        assert np.abs(rho.op.entries - np.eye(2) / 2).max() < 1e-14

    def test_single_mode_occupation(self):
        # rho = e^{-beta c*c}/Z at beta = ln 2: occupation 1/3
        t = validate_qf(0.5 * np.diag([1.0, -1.0]).astype(complex), CA)
        rho = gibbs_state(quadratic_hamiltonian(t, 1.0), np.log(2.0))
        c = annihilation_ops(1)[0].entries
        occ = np.trace(rho.op.entries @ c.conj().T @ c).real
        assert abs(occ - 1.0 / 3.0) < 1e-12

    def test_cross_module_covariance_identity(self):
        rng = np.random.default_rng(8)
        t = random_qf(rng, 2)
        for beta in (0.4, 1.0, 2.5):
            rho = gibbs_state(quadratic_hamiltonian(t, 1.0), beta)
            dense = covariance_of(rho).entries
            closed = covariance_from_gibbs(t, beta).entries
            assert np.abs(dense - closed).max() < 1e-9

    def test_wick_four_point_identity(self):
        rng = np.random.default_rng(9)
        t = random_qf(rng, 2)
        rho = gibbs_state(quadratic_hamiltonian(t, 1.0), 0.8)
        cov = covariance_of(rho)
        word = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(4)]
        dense_op = np.eye(4, dtype=complex)
        for x in word:
            dense_op = dense_op @ field_operator(x, 2).entries
        dense = np.trace(rho.op.entries @ dense_op)
        assert abs(wick_moment(cov, word) - dense) < 1e-9


class TestEmbed:
    def test_identity_times_identity(self):
        ident = DenseOperator(entries=np.eye(2, dtype=complex), mode_count=1)
        for iso in (IsomorphismTag.E_SB, IsomorphismTag.E_BS):
            out = embed(ident, ident, iso)
            assert np.array_equal(out.entries, np.eye(4, dtype=complex))

    @pytest.mark.parametrize("iso", [IsomorphismTag.E_SB, IsomorphismTag.E_BS])
    def test_images_anticommute(self, iso):
        c = annihilation_ops(1)[0]
        ident = DenseOperator(entries=np.eye(2, dtype=complex), mode_count=1)
        cs = embed(c, ident, iso).entries
        cb = embed(ident, c, iso).entries
        assert np.abs(cs @ cb + cb @ cs).max() < 1e-14
        assert np.abs(cs @ cb.conj().T + cb.conj().T @ cs).max() < 1e-14

    def test_even_operators_agree_between_isos(self):
        rng = np.random.default_rng(3)
        par = parity_op(1).entries

        def random_even():
            x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            return DenseOperator(entries=(x + par @ x @ par) / 2, mode_count=1)

        for _ in range(5):
            a, b = random_even(), random_even()
            sb = embed(a, b, IsomorphismTag.E_SB).entries
            bs = embed(a, b, IsomorphismTag.E_BS).entries
            assert np.abs(sb - bs).max() < 1e-12

    def test_unsupported_iso(self):
        ident = DenseOperator(entries=np.eye(2, dtype=complex), mode_count=1)
        with pytest.raises(UnsupportedIso):
            embed(ident, ident, IsomorphismTag.E_B1SB2)

    def test_joint_car_across_subsystems(self):
        # joint images of system and bath modes satisfy the full CAR
        c_s = annihilation_ops(2)
        c_b = annihilation_ops(1)
        eye_s = DenseOperator(entries=np.eye(4, dtype=complex), mode_count=2)
        eye_b = DenseOperator(entries=np.eye(2, dtype=complex), mode_count=1)
        for iso in (IsomorphismTag.E_SB, IsomorphismTag.E_BS):
            ops = [embed(c, eye_b, iso).entries for c in c_s]
            ops += [embed(eye_s, c, iso).entries for c in c_b]
            for i, a in enumerate(ops):
                for j, b in enumerate(ops):
                    assert np.abs(a @ b + b @ a).max() < 1e-13
                    acomm = a @ b.conj().T + b.conj().T @ a
                    assert np.abs(acomm - (i == j) * np.eye(8)).max() < 1e-13


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(4)
        rho_s = quasifree_state(random_covariance(rng, 2)).op.entries
        rho_b = quasifree_state(random_covariance(rng, 1)).op.entries
        joint = _state(np.kron(rho_s, rho_b))
        out = partial_trace_bath(joint, 2, 1)
        assert np.abs(out.op.entries - rho_s).max() < 1e-12

    def test_maximally_mixed(self):
        joint = _state(np.eye(8) / 8)
        out = partial_trace_bath(joint, 2, 1)
        assert np.abs(out.op.entries - np.eye(4) / 4).max() < 1e-14

    def test_reduction_restricts_covariance(self):
        rng = np.random.default_rng(6)
        joint_cov = random_covariance(rng, 3, beta=0.7)
        joint = quasifree_state(joint_cov)
        reduced = partial_trace_bath(joint, 2, 1)
        sub = covariance_of(reduced).entries
        full = convert_basis(joint_cov, CA).entries
        keep = [0, 1, 3, 4]  # system rows of the 3-mode phase space
        assert np.abs(sub - full[np.ix_(keep, keep)]).max() < 1e-9

    def test_reduced_state_stays_quasifree(self):
        rng = np.random.default_rng(7)
        joint = quasifree_state(random_covariance(rng, 3, beta=0.7))
        reduced = partial_trace_bath(joint, 2, 1)
        cov = covariance_of(reduced)
        word = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(4)]
        dense_op = np.eye(4, dtype=complex)
        for x in word:
            dense_op = dense_op @ field_operator(x, 2).entries
        dense = np.trace(reduced.op.entries @ dense_op)
        assert abs(wick_moment(cov, word) - dense) < 1e-8


class TestCovarianceOf:
    def test_maximally_mixed(self):
        out = covariance_of(_state(np.eye(8) / 8))
        assert np.abs(out.entries - 0.5 * np.eye(6)).max() < 1e-14

    def test_vacuum(self):
        vac = np.zeros((8, 8), dtype=complex)
        vac[0, 0] = 1.0
        out = covariance_of(_state(vac)).entries
        expected = np.block(
            [[np.eye(3), np.zeros((3, 3))], [np.zeros((3, 3)), np.zeros((3, 3))]]
        )
        assert np.abs(out - expected).max() < 1e-14

    def test_quasifree_state_round_trip(self):
        rng = np.random.default_rng(11)
        m = random_covariance(rng, 3, beta=1.2)
        rho = quasifree_state(m)
        back = covariance_of(rho).entries
        assert np.abs(back - convert_basis(m, CA).entries).max() < 1e-9

    def test_pinned_covariance_round_trip(self):
        m = full_from_small(validate_small_covariance(np.diag([1.0, 0.3])))
        rho = quasifree_state(m)
        back = covariance_of(rho).entries
        assert np.abs(back - m.entries).max() < 1e-9
