import numpy as np
import pytest

from fermicov import (
    BasisTag,
    CovarianceMatrix,
    FermicovError,
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
from fermicov.phase import TAU_STRUCT, _tol
from fermicov.quasifree import _check_unit_spectrum

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

    @pytest.mark.parametrize("beta", [1e7, 1e16])
    @pytest.mark.parametrize("length", [3, 5])
    def test_zero_mode_at_large_beta(self, length, beta):
        # an odd hopping chain has a zero mode: its particle and hole stay at 1/2
        m = covariance_from_gibbs(_lift(chain_hamiltonian(length)), beta)
        m.validate()
        eigs = np.linalg.eigvalsh(m.entries)
        assert np.sort(np.abs(eigs - 0.5))[:2] == pytest.approx([0.0, 0.0], abs=1e-12)
        assert np.sort(np.abs(eigs - 0.5))[2:] == pytest.approx(0.5, abs=1e-12)


    @pytest.mark.parametrize("beta", [1e300, -1e300])
    @pytest.mark.parametrize("length", [1, 3, 5, 7])
    def test_extreme_beta_saturates_without_warnings(self, length, beta):
        # warnings are errors here; the full covariance keeps its exact zero mode at 1/2
        m = covariance_from_gibbs(_lift(chain_hamiltonian(length)), beta)
        gaps = np.sort(np.abs(np.linalg.eigvalsh(m.entries) - 0.5))
        assert gaps[:2] == pytest.approx([0.0, 0.0], abs=1e-12)
        assert gaps[2:] == pytest.approx(0.5, abs=1e-12)
        # eigh puts the small chain's zero mode at rounding level, not at 0, except at length 1
        eigs = np.linalg.eigvalsh(small_covariance_from_gibbs(chain_hamiltonian(length), beta).entries)
        assert np.abs(eigs - np.round(2 * eigs) / 2).max() < 1e-12
        assert length > 1 or eigs[0] == 0.5


    @pytest.mark.parametrize("beta", [1e300, -1e300])
    def test_beta_times_mode_past_the_float_range_saturates(self, beta):
        t0 = np.diag([1e10, -1e10])
        occupied = np.diag([1.0, 0.0] if beta > 0 else [0.0, 1.0])
        assert np.abs(small_covariance_from_gibbs(t0, beta).entries - occupied).max() == 0.0
        assert np.abs(covariance_from_gibbs(_lift(t0), beta).entries[:2, :2] - occupied).max() < 1e-15


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
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_coordinates(self, bad):
        m = random_covariance(np.random.default_rng(1), 2)
        x = annihilator_coords(0, 2)
        x[1] = bad
        with pytest.raises(StructureViolation, match="word vector has non-finite entries"):
            wick_moment(m, [annihilator_coords(1, 2), x])

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

    def test_rejects_empty_small_covariance(self):
        with pytest.raises(StructureViolation, match="nonempty square matrix"):
            validate_small_covariance(np.zeros((0, 0)))

    def test_gibbs_rejects_non_square_t0(self):
        with pytest.raises(StructureViolation, match="nonempty square matrix"):
            small_covariance_from_gibbs(np.zeros((2, 3)), 1.0)

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


def _certificate(r):
    """The spectrum certificate of computed states I/2 + iR, given R or a
    stack of R, at the constant tol that ``lindblad`` certifies them at."""
    _check_unit_spectrum(r, "covariance", TAU_STRUCT)


def _verdict(check):
    """The message ``check()`` raises, or None when it passes."""
    try:
        check()
    except FermicovError as exc:
        return str(exc)
    return None


def _reference(m, what="covariance"):
    """The spectrum check's verdict on a covariance M (or a stack), read off
    ``eigvalsh`` state by state: the first failing state's message, or None."""
    for m_j in m.reshape(-1, *m.shape[-2:]):
        if not np.isfinite(m_j).all():
            return str(StructureViolation(f"{what} has non-finite entries", float("inf")))
        eigs = np.linalg.eigvalsh((m_j + m_j.conj().T) / 2)
        res = max(float(-eigs.min()), float(eigs.max() - 1.0))
        if res > _tol(m):
            return str(StructureViolation(f"{what} eigenvalues leave [0, 1]", res))
    return None


def _antisymmetric(rng, n, norm, pure=False):
    """Exactly antisymmetric R = O J O^T with |R|_2 = norm (up to rounding),
    J block diagonal; all of J's blocks have the norm when ``pure``."""
    o, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.full(n // 2, norm) if pure else norm * rng.uniform(0.0, 1.0, n // 2)
    s[0] = norm
    j = np.zeros((n, n))
    j[np.arange(0, n, 2), np.arange(1, n, 2)] = s
    r = o @ (j - j.T) @ o.T
    return (r - r.T) / 2


@pytest.fixture
def margins(monkeypatch):
    """Counts the calls of ``np.linalg.norm``, through which the spectrum
    check computes its margins once its certificate has failed.  Arm it only
    after the test data is built."""
    calls = []

    def counted(*args, _original=np.linalg.norm, **kwargs):
        calls.append(1)
        return _original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    return calls


class TestCovarianceFromR:
    """The Cholesky certificate of a state I/2 + iR, given R, or of a stack of
    them, as ``lindblad`` applies it to computed states, agrees with the ``eigvalsh``
    reference and with ``validate``, and decides every valid state without
    computing a margin."""

    @staticmethod
    def _agrees(r):
        """The certificate's verdict, after asserting that the ``eigvalsh``
        reference, and ``validate`` on a finite R, give the same one."""
        L = r.shape[-1] // 2
        with np.errstate(invalid="ignore"):  # 1j * inf
            m = 0.5 * np.eye(2 * L) + 1j * r
        verdict = _verdict(lambda: _certificate(r))
        assert verdict == _reference(m)
        if r.ndim == 2 and np.isfinite(r).all():
            bare = CovarianceMatrix(entries=m, basis=MAJ, mode_count=L)
            assert verdict == _verdict(bare.validate)
        return verdict

    @pytest.mark.parametrize("n", [2, 4, 8, 40, 200])
    def test_pure_states_pass_on_the_certificate(self, n, request):
        rng = np.random.default_rng(n)
        exact = np.zeros((n, n))
        exact[np.arange(n // 2), np.arange(n // 2) + n // 2] = rng.choice([-0.5, 0.5], n // 2)
        exact = exact - exact.T  # |R|_2 = 1/2 exactly: a pure Gaussian state
        states = (exact, _antisymmetric(rng, n, 0.5, pure=True))
        calls = request.getfixturevalue("margins")
        for r in states:
            assert self._agrees(r) is None
        assert calls == []  # certified, by the certificate and by ``validate``, without a margin

    @pytest.mark.parametrize("n", [2, 6, 40, 200])
    @pytest.mark.parametrize("offset", [-1e-12, 1e-12])
    def test_verdict_at_the_tolerance(self, n, offset):
        rng = np.random.default_rng(30 + n)
        r0 = _antisymmetric(rng, n, 0.5)
        r = (0.5 + TAU_STRUCT + offset) / np.linalg.norm(r0, 2) * r0
        r = (r - r.T) / 2
        assert _tol(r) == TAU_STRUCT
        verdict = self._agrees(r)
        if offset < 0:
            assert verdict is None
        else:
            assert verdict.startswith("covariance eigenvalues leave [0, 1]")

    @pytest.mark.parametrize("n", [2, 4, 10, 30, 80, 200])
    def test_random_states(self, n, request):
        rng = np.random.default_rng(40 + n)
        states = []
        for _ in range(12):
            x = rng.standard_normal((n, n))
            r = (x - x.T) / 2
            r *= rng.uniform(0.3, 0.7) / np.linalg.norm(r, 2)
            states.append((r - r.T) / 2)
        calls = request.getfixturevalue("margins")
        rejected = sum(self._agrees(r) is not None for r in states)
        assert 0 < rejected < 12
        # margins only for a rejected state: once by the certificate, once by ``validate``
        assert len(calls) == 2 * rejected

    @staticmethod
    def _stack(rng, n, count):
        """``count`` exactly antisymmetric states with |R|_2 = 1/2 + tol - 1e-12."""
        states = [_antisymmetric(rng, n, 0.5) for _ in range(count)]
        states = [(0.5 + TAU_STRUCT - 1e-12) / np.linalg.norm(r, 2) * r for r in states]
        return np.stack([(r - r.T) / 2 for r in states])

    def test_valid_stack_is_certified_at_once(self, request):
        stack = self._stack(np.random.default_rng(60), 6, 7)
        calls = request.getfixturevalue("margins")
        _certificate(stack)
        assert calls == []
        assert self._agrees(stack) is None
        assert all(self._agrees(r) is None for r in stack)

    @pytest.mark.parametrize("position", [0, 3, 6])
    @pytest.mark.parametrize("bad", ["over", "nan", "inf"])
    def test_stack_verdict_is_its_failing_states(self, position, bad):
        # the failing state sits first, in the middle or last of a block of 7
        rng = np.random.default_rng(61 + position)
        stack = self._stack(rng, 6, 7)
        if bad == "over":
            r = _antisymmetric(rng, 6, 0.5)
            r = (0.5 + TAU_STRUCT + 1e-12) / np.linalg.norm(r, 2) * r
            stack[position] = (r - r.T) / 2
        else:
            value = {"nan": np.nan, "inf": np.inf}[bad]
            stack[position, 0, 1], stack[position, 1, 0] = value, -value
        verdicts = [self._agrees(r) for r in stack]
        verdict = self._agrees(stack)
        assert [v is None for v in verdicts] == [j != position for j in range(7)]
        assert verdict == verdicts[position]
        with pytest.raises(StructureViolation) as raised:
            _certificate(stack)
        assert raised.value.index == position
        start = "covariance eigenvalues leave [0, 1]" if bad == "over" else "covariance has non-finite entries"
        assert verdict.startswith(start)

    @pytest.mark.parametrize("first", ["over", "nan"])
    def test_first_failing_state_decides(self, first):
        # one state over the edge and one NaN state in a block of 7: the
        # earlier one names the verdict, with its own message and its index
        rng = np.random.default_rng(62)
        stack = self._stack(rng, 6, 7)
        r = _antisymmetric(rng, 6, 0.5)
        over = (0.5 + 2e-9) / np.linalg.norm(r, 2) * r
        positions = {"over": (2, 5), "nan": (5, 2)}[first]
        stack[positions[0]] = (over - over.T) / 2
        stack[positions[1], 0, 1], stack[positions[1], 1, 0] = np.nan, np.nan
        with pytest.raises(StructureViolation) as raised:
            _certificate(stack)
        assert raised.value.index == 2
        assert str(raised.value) == _reference(0.5 * np.eye(6) + 1j * stack)
        start = "covariance eigenvalues leave [0, 1]" if first == "over" else "covariance has non-finite entries"
        assert str(raised.value).startswith(start)

    def test_nan_margin_is_a_failure(self, monkeypatch):
        # a margin that comes out NaN must not pass a state that failed its certificate
        r = _antisymmetric(np.random.default_rng(51), 4, 0.7)
        monkeypatch.setattr(np.linalg, "norm", lambda x, *args, **kwargs: np.full(x.shape[:-2], np.nan))
        assert _verdict(lambda: _certificate(r)) == "covariance eigenvalues leave [0, 1] (residual nan)"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_r_is_rejected_as_validate_rejects_it(self, bad):
        # LAPACK factors a NaN matrix without complaint: finiteness is checked
        # first; ``validate`` meets the NaN residual of its Hermiticity check first
        r = _antisymmetric(np.random.default_rng(50), 4, 0.25)
        r[0, 1], r[1, 0] = bad, -bad
        assert self._agrees(r) == "covariance has non-finite entries (residual inf)"
        with np.errstate(invalid="ignore"):
            bare = CovarianceMatrix(entries=0.5 * np.eye(4) + 1j * r, basis=MAJ, mode_count=2)
            assert _verdict(bare.validate) == "covariance is not Hermitian (residual nan)"


class TestValidateSpectrum:
    """``validate`` of a full and of a small covariance decides the spectrum
    as the ``eigvalsh`` reference does, with the same message."""

    @staticmethod
    def _hermitian(rng, n, lo, hi):
        """A random complex Hermitian matrix with spectrum spread over [lo, hi]."""
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        eigs = np.r_[lo, hi, rng.uniform(lo, hi, n)][:n]
        m = (q * eigs) @ q.conj().T
        return (m + m.conj().T) / 2

    @pytest.mark.parametrize("n", [1, 2, 5, 24])
    def test_small_covariance_matches_the_reference(self, n):
        rng = np.random.default_rng(70 + n)
        verdicts = []
        for lo, hi in [(0.0, 1.0), (-0.2, 0.9), (0.1, 1.3), (0.3, 0.7)] * 3:
            m = self._hermitian(rng, n, lo, hi)
            verdict = _verdict(lambda: validate_small_covariance(m))
            assert verdict == _reference(m, "small covariance")
            verdicts.append(verdict is None)
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("n", [1, 3, 20])
    @pytest.mark.parametrize("offset", [-1e-12, 1e-12])
    @pytest.mark.parametrize("edge", [0.0, 1.0])
    def test_small_covariance_at_the_tolerance(self, n, offset, edge):
        # one eigenvalue tol + offset beyond an edge of [0, 1], the others inside
        rng = np.random.default_rng(80 + n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        eigs = rng.uniform(0.1, 0.9, n)
        eigs[0] = edge + (2 * edge - 1) * (TAU_STRUCT + offset)
        m = (q * eigs) @ q.conj().T
        m = (m + m.conj().T) / 2
        verdict = _verdict(lambda: validate_small_covariance(m))
        assert verdict == _reference(m, "small covariance")
        assert (verdict is None) == (offset < 0)

    @pytest.mark.parametrize("big", [1e155, 1e200, 1e300])
    def test_huge_finite_entries_fail_without_overflow(self, big):
        # x x* overflows from entries of about 1e154, and (1/2 + tol) ** 2 of a
        # Python float raises OverflowError from about 1e163 on
        m = np.array([[big]])
        verdict = _verdict(lambda: validate_small_covariance(m))
        assert verdict == _reference(m, "small covariance")
        assert verdict.startswith("small covariance eigenvalues leave [0, 1]")
        r = np.zeros((4, 4))
        r[0, 1], r[1, 0] = big, -big  # I/2 + iR is Hermitian with the Majorana form
        m = 0.5 * np.eye(4) + 1j * r
        verdict = _verdict(lambda: validate_covariance(m, MAJ))
        assert verdict == _reference(m)
        assert verdict.startswith("covariance eigenvalues leave [0, 1]")
        assert _verdict(lambda: _certificate(r)) == verdict
        stack = np.zeros((3, 4, 4))
        stack[1] = r
        assert _verdict(lambda: _certificate(stack)) == verdict

    @pytest.mark.parametrize("L", [1, 3, 12])
    def test_full_covariance_matches_the_reference(self, L):
        # creation/annihilation-basis covariances of Gibbs states of random
        # Hamiltonians, scaled about I/2 to |M - I/2|_2 = scale / 2
        rng = np.random.default_rng(90 + L)
        verdicts = []
        for scale in (0.5, 1.0, 1.5, 3.0):
            x0 = random_covariance(rng, L).entries - 0.5 * np.eye(2 * L)
            m = 0.5 * np.eye(2 * L) + scale / (2 * np.linalg.norm(x0, 2)) * x0
            verdict = _verdict(lambda: validate_covariance(m, CA))
            assert verdict == _reference(m)
            verdicts.append(verdict is None)
        assert verdicts[:2] == [True, True] and not all(verdicts)
