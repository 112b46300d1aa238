import numpy as np
import pytest

from fermicov import (
    BasisTag,
    BogoliubovTransform,
    NumericalFailure,
    StructureViolation,
    block_reduce,
    convert_basis,
    covariance_of,
    expm,
    quasifree_state,
    validate_coupling,
    validate_covariance,
    validate_qf,
)
from fermicov.phase import CouplingMatrix, _check_hermitian, _convert_entries

from conftest import random_coupling, random_qf

CA = BasisTag.CREATION_ANNIHILATION
MAJ = BasisTag.MAJORANA


class TestConvertBasis:
    def test_identity_fixed(self):
        u = BogoliubovTransform(entries=np.eye(4, dtype=complex), basis=CA)
        assert np.allclose(convert_basis(u, MAJ).entries, np.eye(4))
        u = BogoliubovTransform(entries=np.eye(4, dtype=complex), basis=MAJ)
        assert np.allclose(convert_basis(u, CA).entries, np.eye(4))

    def test_single_mode_gauge_invariant_covariance(self):
        # diag(1-n, n) -> 1/2 I + i R with R12 = (1 - 2n)/2
        n = 0.3
        maj = _convert_entries(np.diag([1 - n, n]).astype(complex), CA, MAJ)
        r12 = (1 - 2 * n) / 2
        expected = np.array([[0.5, 1j * r12], [-1j * r12, 0.5]])
        assert np.abs(maj - expected).max() < 1e-14

    def test_single_mode_covariance_matches_dense_trace(self):
        # independent check of the same entries via 1/2 tr(rho g_i g_j)
        n = 0.3
        rho = np.diag([1 - n, n]).astype(complex)
        c = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        g1, g2 = c + c.conj().T, -1j * (c - c.conj().T)
        dense = 0.5 * np.array(
            [[np.trace(rho @ a @ b) for b in (g1, g2)] for a in (g1, g2)]
        )
        maj = _convert_entries(np.diag([1 - n, n]).astype(complex), CA, MAJ)
        assert np.abs(dense - maj).max() < 1e-14

    def test_pairing_block_conversion(self):
        b = np.array([[0.0, 0.5], [-0.5, 0.0]])
        z = np.zeros((2, 2))
        t = validate_qf(np.block([[z, b], [-b.conj(), z]]), CA)
        maj = convert_basis(t, MAJ).entries
        # direct 4x4 sandwich as the independent route
        eye = np.eye(2)
        s = 0.5 * np.block([[eye, eye], [-1j * eye, 1j * eye]])
        s_inv = np.block([[eye, 1j * eye], [eye, -1j * eye]])
        assert np.abs(maj - s @ t.entries @ s_inv).max() < 1e-14
        assert np.abs(maj.real).max() < 1e-14
        assert np.abs(maj.imag + maj.imag.T).max() < 1e-14

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_and_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        t = random_qf(rng, 3)
        back = convert_basis(convert_basis(t, MAJ), CA)
        assert np.abs(back.entries - t.entries).max() < 1e-12
        maj = convert_basis(t, MAJ)
        spec_ca = np.sort(np.linalg.eigvalsh(t.entries))
        spec_maj = np.sort(np.linalg.eigvalsh(maj.entries))
        assert np.abs(spec_ca - spec_maj).max() < 1e-10

    def test_coupling_round_trip(self):
        rng = np.random.default_rng(1)
        th = random_coupling(rng, 3, 2)
        back = convert_basis(convert_basis(th, CA), MAJ)
        assert np.abs(back.entries - th.entries).max() < 1e-12


class TestValidateQf:
    def test_accepts_majorana_form(self):
        r = np.array([[0.0, 1.5], [-1.5, 0.0]])
        t = validate_qf(1j * r, MAJ)
        assert t.mode_count == 1

    def test_rejects_real_symmetric(self):
        with pytest.raises(StructureViolation):
            validate_qf(np.array([[1.0, 2.0], [2.0, 3.0]]), MAJ)

    def test_accepts_random_ca_blocks(self):
        rng = np.random.default_rng(7)
        t = random_qf(rng, 3)
        assert validate_qf(t.entries, CA).mode_count == 3

    def test_rejects_odd_dimension(self):
        with pytest.raises(StructureViolation):
            validate_qf(np.zeros((3, 3)), MAJ)

    def test_rejects_broken_block_form(self):
        rng = np.random.default_rng(8)
        t = random_qf(rng, 2).entries.copy()
        t[0, 1] += 0.5  # breaks Hermitian A against the mirrored block
        with pytest.raises(StructureViolation):
            validate_qf(t, CA)

    # Hermitian matrices that differ from a valid twin only in particle-hole
    # structure: each must fail on that check alone.

    @staticmethod
    def _ca_blocks(b):
        a = np.array([[0.4, 0.3 - 0.2j], [0.3 + 0.2j, -0.7]])
        return np.block([[a, b], [b.conj().T, -a.conj()]])

    def test_ca_pairing_block_must_be_antisymmetric(self):
        b = np.array([[0.0, 0.6 + 0.1j], [-0.6 - 0.1j, 0.0]])
        assert validate_qf(self._ca_blocks(b), CA).mode_count == 2
        sym = np.array([[0.2, 0.6 + 0.1j], [0.6 + 0.1j, -0.3j]])
        with pytest.raises(StructureViolation, match="i\\*R") as info:
            validate_qf(self._ca_blocks(sym), CA)
        assert info.value.residual > 0.1


class TestValidateCoupling:
    def test_ca_lower_blocks_must_mirror_upper(self):
        th0 = np.array([[0.8 + 0.1j], [0.0], [0.3j]])
        z = np.zeros((3, 1))
        assert validate_coupling(np.block([[th0, z], [z, -th0.conj()]]), CA).bath_modes == 1
        with pytest.raises(StructureViolation, match="i\\*W"):
            validate_coupling(np.block([[th0, z], [z, th0]]), CA)

    def test_majorana_coupling_must_be_imaginary(self):
        w = np.array([[0.5, -1.0], [0.0, 2.0]])
        validate_coupling(1j * w, MAJ)
        with pytest.raises(StructureViolation, match="i\\*W"):
            validate_coupling(1j * w + 0.01, MAJ)


class TestBogoliubovValidate:
    """Unitary matrices that differ from a valid twin only in particle-hole structure."""

    @staticmethod
    def _validate(entries, basis):
        BogoliubovTransform(entries=np.asarray(entries, dtype=complex), basis=basis).validate()

    def test_ca_transform_needs_conjugate_lower_blocks(self):
        phases = np.exp(1j * np.array([0.3, -1.1]))
        self._validate(np.diag(np.concatenate([phases, phases.conj()])), CA)
        with pytest.raises(StructureViolation, match="not real"):
            # unitary, but the lower-right block is g, not conj(g)
            self._validate(np.diag(np.concatenate([phases, phases])), CA)

    def test_ca_transform_mixing_pairs(self):
        c, s = np.cos(0.4), np.sin(0.4)
        g, m = c * np.eye(2), 1j * s * np.array([[0.0, 1.0], [-1.0, 0.0]])
        u = np.block([[g, m], [m.conj(), g.conj()]])
        self._validate(u, CA)
        with pytest.raises(StructureViolation, match="not real"):
            # still unitary, but the phase on one column breaks the mirrored form
            self._validate(u @ np.diag(np.exp(1j * np.array([0.5, 0.0, 0.0, 0.0]))), CA)

    def test_majorana_transform_must_be_real(self):
        c, s = np.cos(0.7), np.sin(0.7)
        rot = np.array([[c, -s, 0, 0], [s, c, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        self._validate(rot, MAJ)
        with pytest.raises(StructureViolation, match="not real"):
            self._validate(np.exp(0.2j) * rot, MAJ)

    def test_non_unitary_rejected_first(self):
        with pytest.raises(StructureViolation, match="unitary"):
            self._validate(2 * np.eye(2), MAJ)


def test_nan_residual_is_rejected():
    # an overflowed product, such as the pump of a coupling near 1e200, is NaN
    pump = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(StructureViolation, match="not Hermitian"):
        _check_hermitian(pump, "pump matrix", 1e-9)
    nan = np.array([[np.nan, 0.0]] * 2)
    with pytest.raises(StructureViolation, match="i\\*W"):
        CouplingMatrix(entries=nan, basis=MAJ, system_modes=1, bath_modes=1).validate()


def test_same_basis_conversion_is_the_array_itself():
    m = np.eye(4, dtype=complex)
    assert _convert_entries(m, MAJ, MAJ) is m


class TestBlockReduce:
    def test_zero_matrix(self):
        t = validate_qf(np.zeros((6, 6)), CA)
        u, lam = block_reduce(t)
        assert np.abs(u.entries - np.eye(6)).max() < 1e-12
        assert np.abs(lam).max() == 0.0

    @pytest.mark.parametrize("a", [0.7, -0.7])
    def test_already_reduced_single_mode(self, a):
        t = validate_qf(np.diag([a, -a]).astype(complex), CA)
        u, lam = block_reduce(t)
        assert np.abs(lam - [abs(a)]).max() < 1e-14
        red = u.entries.conj().T @ t.entries @ u.entries
        assert np.abs(red - np.diag([abs(a), -abs(a)])).max() < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_random_reduction(self, seed):
        rng = np.random.default_rng(seed)
        t = random_qf(rng, 3)
        u, lam = block_reduce(t)
        u.validate()
        red = u.entries.conj().T @ t.entries @ u.entries
        target = np.diag(np.concatenate([lam, -lam]))
        assert np.abs(red - target).max() < 1e-10
        # +-lam equals the Hermitian spectrum
        spec = np.sort(np.linalg.eigvalsh(t.entries))
        assert np.abs(spec - np.sort(np.concatenate([lam, -lam]))).max() < 1e-10
        assert np.all(np.diff(lam) <= 1e-12)

    def test_degenerate_spectrum(self):
        # two modes with identical +-1 eigenvalue pairs
        t = validate_qf(np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex), CA)
        u, lam = block_reduce(t)
        assert np.abs(lam - [1.0, 1.0]).max() < 1e-12
        red = u.entries.conj().T @ t.entries @ u.entries
        assert np.abs(red - np.diag([1, 1, -1, -1.0])).max() < 1e-10

    def test_kernel_mixed_with_pairs(self):
        t = validate_qf(np.diag([2.0, 0.0, -2.0, 0.0]).astype(complex), CA)
        u, lam = block_reduce(t)
        assert np.abs(lam - [2.0, 0.0]).max() < 1e-12
        u.validate()

    @pytest.mark.parametrize("L, kernel", [(L, k) for L in range(1, 9) for k in (0, 2, 4) if k <= 2 * L])
    def test_random_rank_deficient_reduction(self, L, kernel):
        rng = np.random.default_rng(10 * L + kernel)
        # A = Q D Q^T: L - kernel/2 random modes and a kernel of the given dimension
        d = np.zeros((2 * L, 2 * L))
        for j in range(L - kernel // 2):
            d[2 * j, 2 * j + 1] = rng.uniform(0.1, 1.0)
        q = np.linalg.qr(rng.standard_normal((2 * L, 2 * L)))[0]
        a = q @ (d - d.T) @ q.T
        t = validate_qf(1j * (a - a.T) / 2, MAJ)
        u, lam = block_reduce(t)
        tc = convert_basis(t, CA).entries
        assert np.abs(u.entries.conj().T @ tc @ u.entries - np.diag(np.r_[lam, -lam])).max() < 1e-12
        assert np.all(np.diff(lam) <= 0) and lam.min() >= 0
        expected = np.sort(d[d > 0])[::-1]
        assert np.abs(lam - np.r_[expected, np.zeros(kernel // 2)]).max() < 1e-12
        # as M - I/2 of a covariance, the reduction builds the dense quasi-free state
        m = validate_covariance(0.5 * np.eye(2 * L) + 0.4j * (a - a.T) / 2, MAJ)
        back = convert_basis(covariance_of(quasifree_state(m)), MAJ).entries
        assert np.abs(back - m.entries).max() < 1e-10


class TestExpm:
    def test_zero(self):
        assert np.abs(expm(np.zeros((3, 3))) - np.eye(3)).max() == 0.0

    def test_diagonal(self):
        out = expm(np.diag([np.log(2.0), 0.0]))
        assert np.abs(out - np.diag([2.0, 1.0])).max() < 1e-14

    def test_rotation(self):
        theta = 0.37
        out = expm(np.array([[0.0, theta], [-theta, 0.0]]))
        expected = np.array(
            [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
        )
        assert np.abs(out - expected).max() < 1e-14

    def test_skew_hermitian_gives_unitary(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        sk = a - a.conj().T
        u = expm(sk)
        assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-10

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflow_raises(self):
        with pytest.raises(NumericalFailure):
            expm(np.diag([1e6, 0.0]) * 1e3)


def test_bogoliubov_composition_stays_real():
    rng = np.random.default_rng(9)
    reals = []
    for _ in range(2):
        t = random_qf(rng, 2)
        maj = convert_basis(t, MAJ).entries
        reals.append(expm(2j * maj))  # real orthogonal: exp of 2i(iR) = exp(-2R)
    prod = reals[0] @ reals[1]
    u = BogoliubovTransform(entries=prod, basis=MAJ)
    u.validate()
    assert np.abs(prod.imag).max() < 1e-12
