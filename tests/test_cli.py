import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import fermicov.cli as cli
import fermicov.errors as errors
from fermicov import BasisTag, convert_basis
from fermicov.cli import (
    L_MODEL_MAX,
    build_preset_spec,
    load_model,
    main,
    matrix_from_json,
    matrix_to_json,
)

from conftest import random_semigroup, strongly_coupled_semigroup

CA = BasisTag.CREATION_ANNIHILATION


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def write_model(tmp_path, doc, name="model.json"):
    """Write ``doc`` as JSON; a str is written as the file's text."""
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def explicit_doc(spec):
    return {
        "schema_version": 1,
        "explicit": {
            "mode_count": spec.mode_count,
            "bath_modes": spec.bath_modes,
            "basis": "majorana",
            "t_s": matrix_to_json(spec.t_s.entries),
            "theta": matrix_to_json(spec.theta.entries),
            "m_b": matrix_to_json(spec.m_b.entries),
        },
    }


class TestSerialization:
    def test_matrix_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m *= np.exp(rng.uniform(-30, 30, size=(4, 4)))
        back = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))), "m")
        assert np.array_equal(back, m)

    def test_model_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        spec = random_semigroup(rng, 2, 1)
        path = write_model(tmp_path, explicit_doc(spec))
        loaded, _ = load_model(path)
        assert np.array_equal(loaded.t_s.entries, spec.t_s.entries)
        assert np.array_equal(loaded.theta.entries, spec.theta.entries)
        assert np.array_equal(loaded.m_b.entries, spec.m_b.entries)


class TestSpecHash:
    def test_same_spec_built_twice_hashes_the_same(self):
        a = build_preset_spec("xy", {"length": 5})
        b = build_preset_spec("xy", {"length": 5})
        assert a is not b
        assert cli.spec_hash(a) == cli.spec_hash(b)

    def test_one_ulp_changes_the_hash(self, tmp_path):
        spec = random_semigroup(np.random.default_rng(3), 2, 1)
        doc = explicit_doc(spec)
        real, imag = doc["explicit"]["theta"][1][1]
        doc["explicit"]["theta"][1][1] = [real, float(np.nextafter(imag, np.inf))]
        moved, _ = load_model(write_model(tmp_path, doc))
        assert np.count_nonzero(moved.theta.entries != spec.theta.entries) == 1
        assert cli.spec_hash(moved) != cli.spec_hash(spec)

    def test_shape_enters_the_hash(self):
        a = build_preset_spec("star", {"length": 2})
        b = build_preset_spec("star", {"length": 3})
        assert cli.spec_hash(a) != cli.spec_hash(b)


class TestCheck:
    def test_chain_preset_unique(self, tmp_path):
        code, out, _ = run_cli("model", "build", "two-bath-chain", "--set", "length=5")
        assert code == 0
        path = write_model(tmp_path, json.loads(out))
        code, out, _ = run_cli("check", path)
        assert code == 0
        report = json.loads(out)
        assert report["ergodicity"]["unique_stationary"] is True
        assert report["ergodicity"]["kalman_rank"] == 10

    def test_chain_preset_builds_at_huge_end_coupling(self, tmp_path):
        # the closed form stays finite as long as the model does (theta^2 below ~1.8e308)
        code, out, err = run_cli("model", "build", "two-bath-chain", "--set", "theta1=1e100")
        assert (code, err) == (0, "")
        code, out, err = run_cli("check", write_model(tmp_path, json.loads(out)))
        assert (code, err) == (0, "")
        code, out, err = run_cli("model", "build", "two-bath-chain", "--set", "theta1=1e160")
        assert code == 1 and "drift or pump has non-finite entries" in err

    def test_star_preset_convergent_not_unique(self, tmp_path):
        code, out, _ = run_cli("model", "build", "star", "--set", "length=3")
        path = write_model(tmp_path, json.loads(out))
        code, out, _ = run_cli("check", path)
        assert code == 0
        report = json.loads(out)
        assert report["ergodicity"]["unique_stationary"] is False
        assert report["ergodicity"]["converges"] is True

    def test_xy_ising_point_not_unique(self, tmp_path):
        code, out, _ = run_cli(
            "model", "build", "xy", "--set", "kappa=1", "--set", "h=0", "--set", "length=4"
        )
        path = write_model(tmp_path, json.loads(out))
        code, out, _ = run_cli("check", path)
        assert code == 0
        assert json.loads(out)["ergodicity"]["unique_stationary"] is False


class TestStationary:
    def test_chain_occupations_and_current(self, tmp_path):
        code, out, _ = run_cli("model", "build", "two-bath-chain")
        path = write_model(tmp_path, json.loads(out))
        code, out, _ = run_cli("stationary", path)
        assert code == 0
        report = json.loads(out)
        section = report["stationary"]
        assert np.abs(np.array(section["occupations"]) - [0.6, 0.5, 0.5, 0.5, 0.4]).max() < 1e-10
        assert np.abs(np.array(section["currents"]) - 0.2).max() < 1e-10
        tolerances = report["metadata"]["tolerances"]
        assert set(tolerances) == {"tau_struct", "tau_num", "residual_tol", "pin_tol"}
        assert tolerances["residual_tol"] == 1e-10

    def test_thermalization_matches_gibbs_occupations(self, tmp_path):
        code, out, _ = run_cli("model", "build", "thermalization", "--set", "length=3", "--set", "beta=1")
        path = write_model(tmp_path, json.loads(out))
        code, out, _ = run_cli("stationary", path)
        assert code == 0
        got = np.array(json.loads(out)["stationary"]["occupations"])
        from fermicov import small_covariance_from_gibbs
        from fermicov.models import chain_hamiltonian

        expected = small_covariance_from_gibbs(chain_hamiltonian(3), 1.0).entries.diagonal().real
        assert np.abs(got - expected).max() < 1e-10

    @pytest.mark.parametrize("theta", ["1e3", "1e4", "1e5"])
    def test_stiff_one_end_chain_matches_its_bath(self, theta, tmp_path):
        code, out, _ = run_cli("model", "build", "one-end-chain", "--set", f"theta={theta}", "--set", "m_b0=0.3")
        path = write_model(tmp_path, json.loads(out))
        code, out, err = run_cli("stationary", path)
        assert (code, err) == (0, "")
        section = json.loads(out)["stationary"]
        assert np.abs(np.array(section["occupations"]) - 0.3).max() < 1e-10
        assert np.abs(np.array(section["currents"])).max() < 1e-10

    @pytest.fixture
    def schur_forms(self, monkeypatch):
        import fermicov.lindblad

        calls = []

        def counted(g, _original=fermicov.lindblad._near_axis):
            calls.append(g.shape)
            return _original(g)

        monkeypatch.setattr(fermicov.lindblad, "_near_axis", counted)
        return calls

    def test_one_ergodicity_report_per_run(self, tmp_path, schur_forms):
        code, out, _ = run_cli("model", "build", "two-bath-chain")
        path = write_model(tmp_path, json.loads(out))
        code, _, _ = run_cli("stationary", path)
        assert code == 0
        assert len(schur_forms) == 1

    def test_star_exits_two(self, tmp_path):
        code, out, _ = run_cli("model", "build", "star")
        path = write_model(tmp_path, json.loads(out))
        code, _, err = run_cli("stationary", path)
        assert code == 2
        assert "NonUniqueStationary" in err

    def test_star_stationary_start_checks_ergodicity_once(self, tmp_path, schur_forms):
        code, out, _ = run_cli("model", "build", "star")
        path = write_model(tmp_path, json.loads(out))
        code, out, err = run_cli("evolve", path, "--m0", "stationary", "--t-final", "1", "--samples", "2")
        assert (code, out) == (2, "")
        assert err == (
            "error: NonUniqueStationary: drift spectral abscissa 0.000e+00 >= min(HURWITZ_TOL = -1e-12,"
            " -rounding): controllability rank 4 < 6\n"
        )
        assert len(schur_forms) == 1

    def test_full_matrix_flag(self, tmp_path):
        code, out, _ = run_cli("model", "build", "one-end-chain")
        path = write_model(tmp_path, json.loads(out))
        code, out, _ = run_cli("stationary", path, "--full-matrix")
        assert code == 0
        section = json.loads(out)["stationary"]
        assert len(section["matrix"]) == 3


class TestEvolve:
    def test_stationary_start_gives_constant_rows(self, tmp_path):
        code, out, _ = run_cli("model", "build", "two-bath-chain")
        path = write_model(tmp_path, json.loads(out))
        code, out, _ = run_cli("evolve", path, "--m0", "stationary", "--t-final", "2", "--samples", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("t,occ_1")
        rows = [line.split(",")[1:] for line in lines[1:]]
        first = np.array(rows[0], dtype=float)
        for row in rows[1:]:
            assert np.abs(np.array(row, dtype=float) - first).max() < 1e-9

    def test_thermalization_distance_decays(self, tmp_path):
        code, out, _ = run_cli("model", "build", "thermalization", "--set", "length=2")
        path = write_model(tmp_path, json.loads(out))
        code, out, _ = run_cli("evolve", path, "--m0", "vacuum", "--t-final", "6", "--samples", "6")
        assert code == 0
        lines = out.strip().splitlines()
        distances = [float(line.split(",")[-1]) for line in lines[1:]]
        assert all(a > b for a, b in zip(distances, distances[1:]))

    def test_initial_covariance_from_file(self, tmp_path):
        code, out, _ = run_cli("model", "build", "one-end-chain")
        path = write_model(tmp_path, json.loads(out))
        m0_doc = {"basis": "majorana", "m0": matrix_to_json(0.5 * np.eye(6))}
        m0_path = write_model(tmp_path, m0_doc, name="m0.json")
        code, out, _ = run_cli("evolve", path, "--m0", m0_path, "--t-final", "1", "--samples", "2")
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    @pytest.mark.parametrize("basis", ["majorana", "creation-annihilation"])
    def test_m0_file_rows_are_read_off_r(self, basis, tmp_path):
        # an m0 file whose Majorana real part is 1e-11 off I/2, within tolerance:
        # row 0 prints the I/2 + iR(0) that the flow steps, not the file's own
        # small block; every later row is the small block of the stepped state
        from fermicov import propagate_series, small_from_full, stationary, validate_covariance

        spec = build_preset_spec("two-bath-chain", {})
        L, n = spec.mode_count, 2 * spec.mode_count
        x, y = np.random.default_rng(61).standard_normal((2, n, n))
        r = (y - y.T) * 0.4 / np.linalg.norm(y - y.T, 2)
        m = 0.5 * np.eye(n) + 1e-11 * (x + x.T) + 1j * r
        m = convert_basis(validate_covariance(m, BasisTag.MAJORANA), BasisTag(basis)).entries
        m0_path = write_model(tmp_path, {"basis": basis, "m0": matrix_to_json(m)}, name="m0.json")
        path = write_model(tmp_path, {"schema_version": 1, "preset": {"name": "two-bath-chain"}})
        rows = _evolve_rows(path, m0_path, "3", 6)
        m0 = cli._initial_covariance(spec, m0_path)
        m_inf = stationary(spec).entries
        r0 = convert_basis(m0, BasisTag.MAJORANA).entries.imag
        i, k = np.arange(L), np.arange(L - 1)
        first = [0.0, *(0.5 + r0[i, L + i]), *(0.5 * (r0[k, k + 1] + r0[L + k, L + k + 1]))]
        assert rows[0].tolist() == [*first, np.abs(r0 - m_inf.imag).max()]
        assert np.abs(rows[0, 1 : L + 1] - small_from_full(m0).entries.diagonal().real).max() > 1e-12
        for row, m_t in zip(rows[1:], list(propagate_series(spec, m0, 0.5, 6))[1:], strict=True):
            small = small_from_full(m_t).entries
            expected = [*small.diagonal().real, *np.diag(small, 1).imag, np.abs(m_t.entries - m_inf).max()]
            assert row[1:].tolist() == expected

    def test_decoupled_model_conserves_total_occupation(self, tmp_path):
        # gauge-invariant Hamiltonian with zero coupling: sum of occupations fixed
        from fermicov import make_semigroup, validate_coupling, validate_covariance, validate_qf
        from fermicov.models import chain_hamiltonian

        t0 = chain_hamiltonian(2)
        z = np.zeros_like(t0)
        spec = make_semigroup(
            validate_qf(np.block([[t0, z], [z, -t0]]), CA),
            validate_coupling(np.zeros((4, 2)), BasisTag.MAJORANA),
            validate_covariance(0.5 * np.eye(2), BasisTag.MAJORANA),
        )
        path = write_model(tmp_path, explicit_doc(spec))
        code, out, _ = run_cli("evolve", path, "--m0", "vacuum", "--t-final", "3", "--samples", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert "distance" not in lines[0]
        sums = [sum(float(x) for x in line.split(",")[1:3]) for line in lines[1:]]
        assert np.abs(np.array(sums) - sums[0]).max() < 1e-10

        # a model with no unique stationary state prints no distance column either
        code, out, _ = run_cli("model", "build", "star")
        path = write_model(tmp_path, json.loads(out), name="star.json")
        code, out, _ = run_cli("evolve", path, "--m0", "vacuum", "--t-final", "3", "--samples", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("t,occ_1") and "distance" not in lines[0]
        assert len(lines) == 7


class TestTopOfTheFloatRange:
    @pytest.mark.parametrize("name", ["two-bath-chain", "star"])
    @pytest.mark.parametrize("t_final", ["1e308", repr(sys.float_info.max)])
    def test_evolve_exits_zero(self, name, t_final, tmp_path):
        path = write_model(tmp_path, {"schema_version": 1, "preset": {"name": name}})
        code, out, err = run_cli("evolve", path, "--t-final", t_final, "--samples", "1")
        assert (code, err) == (0, "")
        assert np.isfinite(np.array(out.strip().splitlines()[-1].split(","), dtype=float)).all()

    def test_time_column_stays_finite(self, tmp_path):
        # 1e308 * 2 overflows; the column is t_final * j / samples wherever that is finite
        path = write_model(tmp_path, {"schema_version": 1, "preset": {"name": "two-bath-chain"}})
        times = _evolve_rows(path, "mixed", "1e308", 3)[:, 0]
        assert times.tolist() == [0.0, 1e308 * 1 / 3, 1e308 * (2 / 3), 1e308]


def _evolve_rows(path, m0, t_final, samples):
    code, out, _ = run_cli("evolve", path, "--m0", m0, "--t-final", t_final, "--samples", str(samples))
    assert code == 0
    return np.array([[float(x) for x in line.split(",")] for line in out.strip().splitlines()[1:]])


class TestSteppedSeries:
    """evolve steps one affine flow; each row must equal a fresh propagate to its time."""

    @pytest.mark.parametrize("start", ["mixed", "vacuum"])
    @pytest.mark.parametrize("name,t_final", [("two-bath-chain", "7"), ("xy", "9"), ("star", "40")])
    def test_rows_match_propagate(self, name, t_final, start, tmp_path):
        from fermicov import (
            NonUniqueStationary,
            propagate,
            small_from_full,
            stationary,
            validate_covariance,
        )

        code, out, _ = run_cli("model", "build", name)
        path = write_model(tmp_path, json.loads(out))
        rows = _evolve_rows(path, start, t_final, 25)
        assert len(rows) == 26
        spec, _ = load_model(path)
        L = spec.mode_count
        if start == "mixed":
            m0 = validate_covariance(0.5 * np.eye(2 * L), BasisTag.MAJORANA)
        else:
            m0 = validate_covariance(np.diag(np.r_[np.ones(L), np.zeros(L)]), CA)
        try:
            m_inf = stationary(spec)
        except NonUniqueStationary:
            m_inf = None
        assert (m_inf is None) == (name == "star")
        for row in rows:
            m_t = propagate(spec, m0, row[0])
            small = small_from_full(m_t).entries
            expected = [row[0], *small.diagonal().real, *np.diag(small, 1).imag]
            if m_inf is not None:
                maj_t = convert_basis(m_t, BasisTag.MAJORANA).entries
                expected.append(np.abs(maj_t - m_inf.entries).max())
            assert np.abs(row - expected).max() < 1e-10

    @pytest.mark.parametrize("name,model_checks", [("two-bath-chain", 2), ("star", 1)])
    def test_one_exponential_and_one_check_per_computed_row(self, name, model_checks, tmp_path, monkeypatch):
        import fermicov.lindblad
        from fermicov import CovarianceMatrix, expm

        code, out, _ = run_cli("model", "build", name)
        path = write_model(tmp_path, json.loads(out))
        n = 2 * load_model(path)[0].mode_count
        calls = Counter()
        monkeypatch.setattr(fermicov.lindblad, "expm", lambda a: calls.update(["expm"]) or expm(a))

        def counted(self, *args, _original=CovarianceMatrix.validate, **kwargs):
            calls["validate"] += 1
            return _original(self, *args, **kwargs)

        def certified(r, *args, _original=fermicov.lindblad._check_unit_spectrum):
            calls[r.shape] += 1
            return _original(r, *args)

        monkeypatch.setattr(CovarianceMatrix, "validate", counted)
        monkeypatch.setattr(fermicov.lindblad, "_check_unit_spectrum", certified)
        samples = 30
        _evolve_rows(path, "mixed", "5", samples)
        # the mixed start and, for a unique model, the stationary state (for the
        # distance column, one single-state certificate) are checked once each;
        # then one batched certificate covers the block of all 30 stepped rows.
        # Only the mixed start, caller data, goes through ``validate``: every
        # computed state is certified without falling back to it.
        expected = Counter({"expm": 1, "validate": 1, (samples, n, n): 1})
        expected[(n, n)] = model_checks - 1
        assert calls == +expected

    def test_long_time_star_rows_stay_put(self, tmp_path):
        # the star's uncontrolled modes rotate exactly, so a late row equals a settled one
        code, out, _ = run_cli("model", "build", "star")
        path = write_model(tmp_path, json.loads(out))
        settled = _evolve_rows(path, "vacuum", "1e4", 1)[1, 1:]
        late = _evolve_rows(path, "vacuum", "1e10", 1)[1, 1:]
        assert np.abs(late - settled).max() < 1e-12


class TestBlocks:
    """evolve reads its rows a block of stepped states at a time."""

    @pytest.mark.parametrize("name,start", [("two-bath-chain", "vacuum"), ("star", "mixed"), ("xy", "stationary")])
    def test_csv_does_not_depend_on_the_block_size(self, name, start, tmp_path, monkeypatch):
        import fermicov.lindblad

        path = write_model(tmp_path, json.loads(run_cli("model", "build", name, "--set", "length=4")[1]))
        outputs = []
        for states in (1, 7, None):  # None: the whole series in one block
            if states is not None:
                monkeypatch.setattr(fermicov.lindblad, "_BLOCK_ENTRIES", states * 8 * 8)
            code, out, err = run_cli("evolve", path, "--m0", start, "--t-final", "6", "--samples", "40")
            assert (code, err) == (0, "")
            outputs.append(out)
        assert len(outputs[0].splitlines()) == 42
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("states", [2, 7, None])
    def test_failure_mid_series_prints_the_rows_before_it(self, states, tmp_path, monkeypatch):
        # R_k = 0.15 k J: rows 0-3 have |R|_2 <= 0.45, the state at t = 4 has 0.6
        import fermicov.lindblad
        from fermicov import CovarianceMatrix

        path = write_model(tmp_path, json.loads(run_cli("model", "build", "two-bath-chain")[1]))
        n = 10
        j = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(5))  # antisymmetric, unit norm
        monkeypatch.setattr(fermicov.lindblad, "_majorana_flow", lambda spec, t: (np.eye(n), 0.15 * j))
        if states is not None:
            monkeypatch.setattr(fermicov.lindblad, "_BLOCK_ENTRIES", states * n * n)
        code, out, err = run_cli("evolve", path, "--m0", "mixed", "--t-final", "40", "--samples", "40")
        r = np.zeros((n, n))
        for _ in range(4):
            r = r + 0.15 * j
            r = (r - r.T) / 2
        with pytest.raises(errors.StructureViolation) as expected:
            CovarianceMatrix(entries=0.5 * np.eye(n) + 1j * r, basis=BasisTag.MAJORANA, mode_count=5).validate()
        assert code == 2
        assert err == f"error: NumericalFailure: {expected.value}\n"
        lines = out.splitlines()
        assert lines[0].startswith("t,occ_1,")
        assert [float(line.split(",")[0]) for line in lines[1:]] == [0.0, 1.0, 2.0, 3.0]

    def test_memory_does_not_grow_with_the_sample_count(self, tmp_path):
        import tracemalloc

        path = write_model(tmp_path, json.loads(run_cli("model", "build", "two-bath-chain", "--set", "length=32")[1]))
        peaks = []
        for samples in (20, 2000):
            with open(os.devnull, "w") as sink:
                tracemalloc.start()
                try:
                    argv = ["evolve", path, "--m0", "mixed", "--t-final", "10", "--samples", str(samples)]
                    assert main(argv, out=sink, err=sink) == 0
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        # one block alive at a time: the traced peaks read 3.74 and 3.83 MiB,
        # against 4.49 MiB for 2000 samples when the previous block was kept
        # while the next one was built
        assert peaks[1] <= 1.1 * peaks[0]


class TestCliDigest:
    def test_cli_output_is_pinned(self, capsys, monkeypatch):
        """``tools/cli_digest.py`` over its 241 CLI cases.  The digest is
        re-recorded, with a CHANGES.md line, only when CLI output changes on
        purpose.  It is tied to the environment it was recorded in (numpy
        2.4.6, scipy 1.17.1, OpenBLAS 0.3.31 on an x86-64 Xeon; the same at 1,
        2 and 4 BLAS threads): other library builds or CPU kernels can change
        the last printed digit of correct output."""
        import importlib.util

        # the tool sets BLAS thread variables and prepends src/ to sys.path on import
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, os.environ.get(var, "1"))
        monkeypatch.setattr(sys, "path", list(sys.path))
        path = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"
        spec = importlib.util.spec_from_file_location("cli_digest", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        digest = module.main_digest(False)
        advice = (
            "CLI output changed: diff the per-case hashes of `python tools/cli_digest.py -v` against"
            " the last commit that passed, and re-record the digest only if the change is intended"
            " or the numpy, scipy or BLAS build differs from the one named in this test's docstring"
        )
        assert capsys.readouterr().out == "241 cases, exit codes {0: 212, 1: 8, 2: 21}\n", advice
        assert digest == "86a7f0bd9f91191948b92cb58ebe5cfd6d73a1fd6eaeb843d0f4b3bcafe872d7", advice


class TestObservables:
    """The ``stationary`` and ``evolve`` rows read R of M = I/2 + iR, and
    equal the entries of the small block that ``--full-matrix`` prints bit for
    bit, signed zeros included.  ``small_from_full`` is the dense basis
    conversion's top-left block, in either basis."""

    @staticmethod
    def _assert_same_bits(got, expected):
        assert np.array_equal(got, expected)
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(got)), np.signbit(part(expected)))

    @classmethod
    def _assert_reads_small_block(cls, m):
        from fermicov import small_from_full
        from fermicov.phase import _convert_entries

        L = m.mode_count
        cls._assert_same_bits(small_from_full(m).entries, _convert_entries(m.entries, m.basis, CA)[:L, :L])

    @pytest.mark.parametrize("name", sorted(cli.PRESETS))
    @pytest.mark.parametrize("length", [None, 7])
    def test_stepped_and_stationary_states(self, name, length):
        from fermicov import NonUniqueStationary, propagate_series, stationary

        spec = build_preset_spec(name, {} if length is None else {"length": length})
        states = [cli._initial_covariance(spec, "vacuum"), cli._initial_covariance(spec, "mixed")]
        with contextlib.suppress(NonUniqueStationary):
            states.append(stationary(spec))
        for m0 in states:
            for m in propagate_series(spec, m0, 0.7, 6):
                self._assert_reads_small_block(m)

    def test_vacuum_from_the_creation_annihilation_basis(self):
        spec = build_preset_spec("xy", {})
        m0 = cli._initial_covariance(spec, "vacuum")
        assert m0.basis is CA
        self._assert_reads_small_block(m0)
        self._assert_reads_small_block(convert_basis(m0, BasisTag.MAJORANA))

    @pytest.mark.parametrize("basis", ["majorana", "creation-annihilation"])
    def test_m0_file_off_half_identity(self, basis, tmp_path):
        # a real part off I/2 within tolerance, which the stepped states never have
        from fermicov import validate_covariance

        rng = np.random.default_rng(60)
        spec = build_preset_spec("two-bath-chain", {})
        n = 2 * spec.mode_count
        x, y = rng.standard_normal((2, n, n))
        r = (y - y.T) * 0.4 / np.linalg.norm(y - y.T, 2)
        m = 0.5 * np.eye(n) + 1e-11 * (x + x.T) + 1j * r
        m = convert_basis(validate_covariance(m, BasisTag.MAJORANA), BasisTag(basis)).entries
        path = tmp_path / "m0.json"
        path.write_text(json.dumps({"basis": basis, "m0": matrix_to_json(m)}))
        m0 = cli._initial_covariance(spec, str(path))
        assert 0 < np.abs(convert_basis(m0, BasisTag.MAJORANA).entries.real - 0.5 * np.eye(n)).max() < 1e-9
        self._assert_reads_small_block(m0)
        self._assert_reads_small_block(convert_basis(m0, BasisTag.MAJORANA))

    @pytest.mark.parametrize("name", sorted(cli.PRESETS))
    @pytest.mark.parametrize("length", [None, 7])
    def test_stationary_rows_are_the_full_matrix_entries(self, name, length, tmp_path):
        parameters = {} if length is None else {"length": length}
        path = write_model(tmp_path, {"schema_version": 1, "preset": {"name": name, "parameters": parameters}})
        code, out, err = run_cli("stationary", path, "--full-matrix")
        if code == 2:  # the star has no unique stationary state
            assert err.startswith("error: NonUniqueStationary: ")
            return
        assert code == 0
        section = json.loads(out)["stationary"]
        small = np.array(section["matrix"], dtype=float).view(complex)[..., 0]
        self._assert_same_bits(np.array(section["occupations"]), small.diagonal().real)
        self._assert_same_bits(np.array(section["currents"]), small.diagonal(1).imag)
        del section["matrix"]
        assert json.loads(run_cli("stationary", path)[1])["stationary"] == section

    @pytest.mark.parametrize("n", [2, 4, 6, 10, 16, 24, 32, 48])
    def test_real_flow_matrices(self, n, monkeypatch):
        # the lifted gauge-invariant flow reads its E0 off the real flow matrix E, and at t = 0
        # E0 = I carries a nonzero pairing block through unchanged
        from fermicov import lift_gauge_invariant, propagate_gauge_invariant, validate_small_covariance

        lifted = []
        monkeypatch.setattr(cli, "lift_gauge_invariant", lambda gi: lifted.append(gi) or lift_gauge_invariant(gi))
        for name in sorted(cli.PRESETS):
            with contextlib.suppress(errors.StructureViolation):  # below the preset's smallest length
                build_preset_spec(name, {"length": n // 2})
        assert len(lifted) >= 2
        rng = np.random.default_rng(n)
        for gi in lifted:
            L = gi.mode_count
            a0 = rng.uniform(0.5, 1.0, (L, L)) + 1j * rng.uniform(0.5, 1.0, (L, L))
            m0 = validate_small_covariance(np.diag(np.linspace(0.1, 0.9, L)))
            small, a = propagate_gauge_invariant(gi, m0, a0, 0.0)
            assert np.array_equal(a, a0)
            np.testing.assert_allclose(small.entries, m0.entries, rtol=0, atol=1e-15)


class TestChainAtLength80:
    """The two-bath chain at L = 80 (n = 160), past the size where stacked
    Kalman powers lost rank."""

    PARAMS = {"length": 80, "theta1": 1.3, "theta_l": 0.7, "n1": 0.9, "n_l": 0.2}

    @pytest.fixture
    def path(self, tmp_path):
        settings = [f"--set={key}={value}" for key, value in self.PARAMS.items()]
        code, out, _ = run_cli("model", "build", "two-bath-chain", *settings)
        assert code == 0
        return write_model(tmp_path, json.loads(out))

    def test_stationary_matches_closed_form(self, path):
        from fermicov.models import ChainParams, two_bath_chain

        code, out, _ = run_cli("stationary", path)
        assert code == 0
        report = json.loads(out)
        assert report["ergodicity"]["kalman_rank"] == 160
        expected = two_bath_chain(ChainParams(**self.PARAMS))[1].matrix(80)
        section = report["stationary"]
        assert np.abs(np.array(section["occupations"]) - expected.diagonal().real).max() < 1e-10
        assert np.abs(np.array(section["currents"]) - np.diag(expected, 1).imag).max() < 1e-10

    def test_check_and_evolve_exit_zero(self, path):
        code, out, _ = run_cli("check", path)
        assert code == 0
        assert json.loads(out)["ergodicity"]["unique_stationary"]
        code, out, _ = run_cli("evolve", path, "--samples", "200", "--t-final", "10")
        assert code == 0
        rows = out.splitlines()
        assert len(rows) == 202 and rows[0].endswith(",distance")


class TestModelCap:
    """Oversized declarations are refused before any matrix is built; no
    oversized model is ever run."""

    @pytest.fixture(autouse=True)
    def no_builds(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a matrix was built for an oversized model")

        for name, (defaults, _) in list(cli.PRESETS.items()):
            monkeypatch.setitem(cli.PRESETS, name, (defaults, refuse))
        for name in ("matrix_from_json", "validate_qf", "validate_coupling", "validate_covariance", "make_semigroup"):
            monkeypatch.setattr(cli, name, refuse)

    @staticmethod
    def _explicit(**declared):
        section = {"mode_count": 1, "bath_modes": 1, "basis": "majorana", "t_s": [], "theta": [], "m_b": []}
        return {"schema_version": 1, "explicit": {**section, **declared}}

    @pytest.mark.parametrize(
        "doc, args",
        [
            (None, ["model", "build", "two-bath-chain", f"--set=length={L_MODEL_MAX + 1}"]),
            (None, ["model", "build", "thermalization", "--set=length=1e9"]),
            ({"schema_version": 1, "preset": {"name": "xy", "parameters": {"length": L_MODEL_MAX + 1}}}, ["stationary"]),
            ("mode_count", ["check"]),
            ("bath_modes", ["evolve", "--t-final", "1", "--samples", "2"]),
        ],
    )
    def test_declared_size_above_cap_exits_one(self, doc, args, tmp_path):
        if isinstance(doc, str):
            doc = self._explicit(**{doc: L_MODEL_MAX + 1})
        argv = list(args) if doc is None else [args[0], write_model(tmp_path, doc), *args[1:]]
        code, out, err = run_cli(*argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: TooLarge: ") and err.count("\n") == 1
        assert str(L_MODEL_MAX) in err

    def test_matrices_larger_than_declared_are_refused_before_validation(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "matrix_from_json", matrix_from_json)
        doc = explicit_doc(random_semigroup(np.random.default_rng(8), 3, 1))
        doc["explicit"]["mode_count"] = 1
        code, out, err = run_cli("check", write_model(tmp_path, doc))
        assert code == 1
        assert out == ""
        assert err == "error: declared mode counts do not match the matrices\n"

    def test_cap_itself_is_accepted(self):
        assert cli._preset_parameters("two-bath-chain", {"length": L_MODEL_MAX})["length"] == L_MODEL_MAX


class TestOracleCap:
    """A dense evolution whose priced work exceeds the cap is refused before
    any exponential is taken."""

    @pytest.fixture(autouse=True)
    def no_evolution(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an over-cap dense evolution was started")

        monkeypatch.setattr(cli, "evolve_dense", refuse)
        monkeypatch.setattr(cli, "propagate", refuse)

    @pytest.mark.parametrize(
        "parameters, args",
        [({}, ["--t", "1e300"]), ({"theta": 1e6}, []), ({"theta": 300.0}, [])],
        ids=["t 1e300", "theta 1e6", "theta 300"],
    )
    def test_exits_one_before_evolving(self, parameters, args, tmp_path):
        doc = {"schema_version": 1, "preset": {"name": "one-end-chain", "parameters": parameters}}
        code, out, err = run_cli("oracle-compare", write_model(tmp_path, doc), *args)
        assert code == 1
        assert out == ""
        assert err.startswith("error: TooLarge: ") and err.count("\n") == 1
        assert "ORACLE_WORK_MAX" in err

    def test_work_is_priced_from_the_bound(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "generator_norm_bound", lambda lind: cli.ORACLE_WORK_MAX)
        code, _, err = run_cli("oracle-compare", write_model(tmp_path, _preset()), "--t", "1.5")
        assert code == 1 and "TooLarge" in err


class TestOracleCompare:
    def test_small_explicit_model(self, tmp_path):
        rng = np.random.default_rng(2)
        spec = random_semigroup(rng, 2, 1)
        path = write_model(tmp_path, explicit_doc(spec))
        for iso in ("E_SB", "E_BS"):
            code, out, _ = run_cli("oracle-compare", path, "--t", "1.0", "--iso", iso)
            assert code == 0
            assert json.loads(out)["oracle"]["max_deviation"] <= 1e-8

    def test_decoupled_model(self, tmp_path):
        from fermicov import make_semigroup, validate_coupling, validate_covariance

        rng = np.random.default_rng(3)
        from conftest import random_covariance, random_qf

        spec = make_semigroup(
            random_qf(rng, 2),
            validate_coupling(np.zeros((4, 2)), BasisTag.MAJORANA),
            random_covariance(rng, 1),
        )
        path = write_model(tmp_path, explicit_doc(spec))
        code, out, _ = run_cli("oracle-compare", path, "--t", "0.7")
        assert code == 0
        assert json.loads(out)["oracle"]["max_deviation"] <= 1e-10

    def test_strongly_coupled_model(self, tmp_path):
        # a zero eigenvalue of its jump matrix rounds to -3.9e-8, far inside its 1e10 scale
        path = write_model(tmp_path, explicit_doc(strongly_coupled_semigroup()))
        code, out, err = run_cli("oracle-compare", path, "--t", "1e-12")
        assert code == 0, err
        assert json.loads(out)["oracle"]["max_deviation"] <= 1e-8

    def test_too_large_exits_one(self, tmp_path):
        code, out, _ = run_cli("model", "build", "two-bath-chain", "--set", "length=5")
        path = write_model(tmp_path, json.loads(out))
        code, _, err = run_cli("oracle-compare", path)
        assert code == 1
        assert "TooLarge" in err


class TestExitCodes:
    @pytest.mark.parametrize(
        "error, code",
        [
            (errors.StructureViolation, 1),
            (errors.TooLarge, 1),
            (errors.UnsupportedIso, 1),
            (errors.NumericalFailure, 2),
            (errors.NonUniqueStationary, 2),
            (errors.WordTooLong, 2),
            (errors.NotPSD, 2),
            (errors.FermicovError, 2),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
    )
    def test_error_class_sets_exit_code(self, error, code, monkeypatch):
        exc = error("boom")

        def fail(args, out, err):
            raise exc

        monkeypatch.setattr(cli, "cmd_check", fail)
        got, out, err = run_cli("check", "model.json")
        assert (got, out) == (code, "")
        assert err == f"error: {error.__name__}: {exc}\n"

    def test_structure_violation_without_a_residual(self):
        code, out, err = run_cli("model", "build", "xy", "--set", "length=1")
        assert (code, out) == (1, "")
        assert err == "error: StructureViolation: spin chain needs at least 2 sites\n"

    def test_structure_violation_message(self):
        assert str(errors.StructureViolation("bad shape")) == "bad shape"
        assert errors.StructureViolation("bad shape").residual is None
        exc = errors.StructureViolation("not Hermitian", 2.5e-3)
        assert str(exc) == "not Hermitian (residual 2.500e-03)"
        assert exc.residual == 2.5e-3

    def test_missing_file(self):
        code, _, err = run_cli("check", "/nonexistent/model.json")
        assert code == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli("check", str(path))
        assert code == 1

    def test_model_file_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"schema_version": 1, "preset": {"name": "caf\xe9"}}'.encode("latin-1"))
        code, out, err = run_cli("check", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: model file is not valid JSON: ") and err.count("\n") == 1

    def test_wrong_schema_version(self, tmp_path):
        path = write_model(tmp_path, {"schema_version": 99, "preset": {"name": "star"}})
        code, _, err = run_cli("check", path)
        assert code == 1

    def test_both_sections_rejected(self, tmp_path):
        rng = np.random.default_rng(4)
        doc = explicit_doc(random_semigroup(rng, 1, 1))
        doc["preset"] = {"name": "star"}
        code, _, err = run_cli("check", write_model(tmp_path, doc))
        assert code == 1

    def test_unknown_preset_parameter(self):
        with pytest.raises(Exception):
            build_preset_spec("star", {"bogus": 1.0})

    def test_bad_cli_flag(self):
        code, _, err = run_cli("evolve")
        assert code == 1

    def test_unknown_basis(self, tmp_path):
        rng = np.random.default_rng(5)
        doc = explicit_doc(random_semigroup(rng, 1, 1))
        doc["explicit"]["basis"] = "spherical"
        code, _, err = run_cli("check", write_model(tmp_path, doc))
        assert code == 1


def _explicit_with(field, entries):
    doc = explicit_doc(random_semigroup(np.random.default_rng(7), 1, 1))
    doc["explicit"][field] = entries
    return doc


def _explicit_entry(field, entry):
    doc = explicit_doc(random_semigroup(np.random.default_rng(7), 1, 1))
    doc["explicit"][field][0][0] = entry
    return doc


def _preset(name="one-end-chain", **section):
    return {"schema_version": 1, "preset": {"name": name, **section}}


_CHAIN = _preset()
_M0_EIGENVALUE_1_2 = 0.5 * np.eye(6, dtype=complex)
_M0_EIGENVALUE_1_2[0, 3], _M0_EIGENVALUE_1_2[3, 0] = 0.7j, -0.7j
_M0_HUGE_R = 0.5 * np.eye(6, dtype=complex)
_M0_HUGE_R[0, 3], _M0_HUGE_R[3, 0] = 1e200j, -1e200j
_M0_STRING_ENTRY = matrix_to_json(0.5 * np.eye(6))
_M0_STRING_ENTRY[0][1] = "00"
_DEEP = "[" * 100000 + "]" * 100000

BAD_INPUTS = {
    # model data that fail their structural checks
    "t_s not Hermitian": (_explicit_with("t_s", matrix_to_json([[0, 1j], [0, 0]])), None, ["check"]),
    "m_b eigenvalue 1.5": (_explicit_with("m_b", matrix_to_json([[0.5, 1j], [-1j, 0.5]])), None, ["check"]),
    "m_b entry 1e200": (_explicit_with("m_b", matrix_to_json([[0.5, 1e200j], [-1e200j, 0.5]])), None, ["check"]),
    "m0 eigenvalue 1.2": (
        _CHAIN,
        {"basis": "majorana", "m0": matrix_to_json(_M0_EIGENVALUE_1_2)},
        ["evolve", "--t-final", "1", "--samples", "2"],
    ),
    "m0 entry 1e200": (
        _CHAIN,
        {"basis": "majorana", "m0": matrix_to_json(_M0_HUGE_R)},
        ["evolve", "--t-final", "1", "--samples", "2"],
    ),
    # malformed files
    "mode_count not a number": (_explicit_with("mode_count", "two"), None, ["check"]),
    "length not a number": (_preset(parameters={"length": "x"}), None, ["check"]),
    "length infinite": (_preset(parameters={"length": float("inf")}), None, ["check"]),
    "parameters not an object": (_preset(parameters=[1, 2]), None, ["check"]),
    "unknown preset": ({"schema_version": 1, "preset": {"name": "chain"}}, None, ["check"]),
    "m0 file not an object": (_CHAIN, [1, 2], ["evolve", "--t-final", "1", "--samples", "2"]),
    # matrix entries that are not [re, im] pairs of numbers
    "string entry": (_explicit_entry("t_s", "00"), None, ["check"]),
    "three-element entry": (_explicit_entry("t_s", [0, 0, 99]), None, ["check"]),
    "boolean entry": (_explicit_entry("t_s", [False, False]), None, ["check"]),
    "m0 string entry": (
        _CHAIN,
        {"basis": "majorana", "m0": _M0_STRING_ENTRY},
        ["evolve", "--t-final", "1", "--samples", "2"],
    ),
    # bad times
    "negative oracle time": (_CHAIN, None, ["oracle-compare", "--t=-1"]),
    "nan oracle time": (_CHAIN, None, ["oracle-compare", "--t", "nan"]),
    "nan final time": (_CHAIN, None, ["evolve", "--t-final", "nan", "--samples", "2"]),
    "infinite final time": (_CHAIN, None, ["evolve", "--t-final", "inf", "--samples", "2"]),
    # bad thresholds and preset parameters
    "nan max deviation": (_CHAIN, None, ["oracle-compare", "--max-deviation", "nan"]),
    "negative max deviation": (_CHAIN, None, ["oracle-compare", "--max-deviation=-1"]),
    "model build length nan": (None, None, ["model", "build", "star", "--set", "length=nan"]),
    "model build length infinite": (None, None, ["model", "build", "star", "--set", "length=inf"]),
    # counts that are not exact integers
    "model build length 5.7": (None, None, ["model", "build", "two-bath-chain", "--set", "length=5.7"]),
    "length 2.9": (_preset(parameters={"length": 2.9}), None, ["check"]),
    "length true": (_preset(parameters={"length": True}), None, ["check"]),
    "mode_count 1.5": (_explicit_with("mode_count", 1.5), None, ["check"]),
    "mode_count true": (_explicit_with("mode_count", True), None, ["check"]),
    "mode_count string": (_explicit_with("mode_count", "1"), None, ["check"]),
    "bath_modes 1.5": (_explicit_with("bath_modes", 1.5), None, ["check"]),
    # preset parameters that are not an int or a float
    "theta string": (_preset(parameters={"theta": "1"}), None, ["check"]),
    "theta true": (_preset(parameters={"theta": True}), None, ["check"]),
    "star m_b0 string": (_preset(name="star", parameters={"m_b0": "0.5"}), None, ["check"]),
    "star theta null": (_preset(name="star", parameters={"theta": None}), None, ["check"]),
    "xy kappa true": (_preset(name="xy", parameters={"kappa": True}), None, ["check"]),
    "two-bath-chain n1 true": (_preset(name="two-bath-chain", parameters={"n1": True}), None, ["check"]),
    "thermalization beta true": (_preset(name="thermalization", parameters={"beta": True}), None, ["check"]),
    # nesting deeper than the JSON decoder's recursion limit
    "model file nested too deeply": (_DEEP, None, ["check"]),
    "m0 file nested too deeply": (_CHAIN, _DEEP, ["evolve", "--t-final", "1", "--samples", "2"]),
}


class TestBadInputs:
    @staticmethod
    def _run(case, tmp_path):
        doc, m0_doc, args = BAD_INPUTS[case]
        argv = list(args) if doc is None else [args[0], write_model(tmp_path, doc), *args[1:]]
        if m0_doc is not None:
            argv += ["--m0", write_model(tmp_path, m0_doc, name="m0.json")]
        return run_cli(*argv)

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_exits_one_with_an_error_line(self, case, tmp_path):
        code, out, err = self._run(case, tmp_path)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "case",
        ["theta string", "theta true", "star m_b0 string", "star theta null", "xy kappa true",
         "two-bath-chain n1 true", "thermalization beta true"],
    )
    def test_preset_parameter_of_another_type_is_named(self, case, tmp_path):
        (key,) = BAD_INPUTS[case][0]["preset"]["parameters"]
        err = self._run(case, tmp_path)[2]
        assert err.startswith(f"error: malformed model file: parameter {key!r} must be a number, got ")

    @pytest.mark.parametrize("target", ["missing-dir/x.json", ""], ids=["missing directory", "directory"])
    def test_model_build_to_an_unwritable_path(self, target, tmp_path):
        code, out, err = run_cli("model", "build", "star", "-o", str(tmp_path / target))
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot write model file: ") and err.count("\n") == 1

    @pytest.mark.parametrize("case", ["m_b entry 1e200", "m0 entry 1e200"])
    def test_huge_entry_fails_the_spectrum_check(self, case, tmp_path):
        """A Majorana covariance I/2 + iR with R[0, 1] = 1e200 passes the
        Hermiticity and particle-hole checks; its spectrum check rejects it
        without overflowing."""
        code, out, err = self._run(case, tmp_path)
        assert (code, out) == (1, "")
        assert err == "error: StructureViolation: covariance eigenvalues leave [0, 1] (residual 1.000e+200)\n"


class TestComputedResultFailures:
    """A computed result that fails its check exits 2 and names the number that
    failed it; exit 1 is kept for malformed input."""

    def test_stiff_stationary_exits_two(self, tmp_path):
        # at theta = 1e7 the one-end chain's slowest decay rate is below |HURWITZ_TOL|, so the
        # drift is not Hurwitz and the model counts as not unique: the refusal names the abscissa
        code, out, _ = run_cli("model", "build", "one-end-chain", "--set", "theta=1e7", "--set", "m_b0=0.3")
        path = write_model(tmp_path, json.loads(out))
        code, _, err = run_cli("stationary", path)
        assert code == 2
        assert err.startswith("error: NonUniqueStationary: ") and err.count("\n") == 1
        assert "spectral abscissa" in err and "HURWITZ_TOL" in err

    def test_overflowing_input_gives_one_error_line(self):
        code, out, err = run_cli("model", "build", "one-end-chain", "--set", "theta=1e200")
        assert (code, out) == (1, "")
        assert err.startswith("error: StructureViolation: ") and err.count("\n") == 1


class TestCounts:
    def test_integral_float_counts_are_accepted(self, tmp_path):
        doc = explicit_doc(random_semigroup(np.random.default_rng(7), 1, 1))
        code, out, _ = run_cli("check", write_model(tmp_path, doc))
        doc["explicit"]["mode_count"] = 1.0
        doc["explicit"]["bath_modes"] = 1.0
        assert run_cli("check", write_model(tmp_path, doc, name="float.json")) == (code, out, "")
        assert code == 0

    def test_model_build_writes_an_integer_length(self):
        code, out, _ = run_cli("model", "build", "two-bath-chain", "--set", "length=5.0")
        assert code == 0
        assert json.loads(out)["preset"]["parameters"]["length"] == 5
        assert '"length": 5,' in out

    @pytest.mark.parametrize("name", ["thermalization", "simple-bath"])
    @pytest.mark.parametrize("length", [0, -1])
    def test_lengths_below_one_exit_one(self, name, length, tmp_path):
        code, out, err = run_cli("model", "build", name, "--set", f"length={length}")
        assert (code, out) == (1, "")
        assert err == f"error: malformed preset parameters: length must be at least 1, got {length}\n"
        doc = {"schema_version": 1, "preset": {"name": name, "parameters": {"length": length}}}
        code, out, err = run_cli("check", write_model(tmp_path, doc))
        assert (code, out) == (1, "")
        assert err == f"error: malformed model file: length must be at least 1, got {length}\n"


class TestPresets:
    @pytest.mark.parametrize(
        "name", ["two-bath-chain", "thermalization", "simple-bath", "one-end-chain", "star", "xy"]
    )
    def test_every_preset_builds_and_checks(self, name, tmp_path):
        code, out, _ = run_cli("model", "build", name)
        assert code == 0
        path = write_model(tmp_path, json.loads(out))
        code, out, _ = run_cli("check", path)
        assert code == 0
        json.loads(out)

    @pytest.mark.parametrize("length", ["3", "5"])
    def test_thermalization_with_a_zero_mode_at_large_beta(self, length, tmp_path):
        # an odd chain has a zero mode, whose bath occupation stays at 1/2
        code, out, err = run_cli("model", "build", "thermalization", "--set", f"length={length}", "--set", "beta=1e7")
        assert (code, err) == (0, "")
        code, out, err = run_cli("stationary", write_model(tmp_path, json.loads(out)))
        assert (code, err) == (0, "")
        assert min(abs(x - 0.5) for x in json.loads(out)["stationary"]["occupations"]) < 1e-12

    def test_ca_basis_explicit_file(self, tmp_path):
        rng = np.random.default_rng(6)
        spec = random_semigroup(rng, 2, 1)
        doc = {
            "schema_version": 1,
            "explicit": {
                "mode_count": 2,
                "bath_modes": 1,
                "basis": "creation-annihilation",
                "t_s": matrix_to_json(convert_basis(spec.t_s, CA).entries),
                "theta": matrix_to_json(convert_basis(spec.theta, CA).entries),
                "m_b": matrix_to_json(convert_basis(spec.m_b, CA).entries),
            },
        }
        path = write_model(tmp_path, doc)
        loaded, _ = load_model(path)
        assert np.abs(loaded.t_s.entries - spec.t_s.entries).max() < 1e-12


class TestParser:
    """``main`` builds its parser once per process, and no call leaks into the next."""

    def test_calls_build_no_parser(self, tmp_path, monkeypatch):
        path = write_model(tmp_path, _CHAIN)
        run_cli("check", path)  # the parser exists from here on, whether built at import or on first use
        built = []
        init = cli._Parser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        for argv in (["check", path], ["stationary", path, "--full-matrix"], ["evolve", path], ["model", "build", "xy"]):
            run_cli(*argv)
        assert built == []

    @pytest.mark.parametrize(
        "bad, good",
        [
            (["stationary", "{model}", "--full-matrix", "--bogus"], ["stationary", "{model}"]),
            (["model", "build", "star", "--set", "length=4", "--set", "bogus"], ["model", "build", "star"]),
        ],
        ids=["stationary", "model build"],
    )
    def test_usage_error_then_a_run_matching_a_fresh_process(self, bad, good, tmp_path):
        path = write_model(tmp_path, _CHAIN)
        bad, good = ([arg.format(model=path) for arg in argv] for argv in (bad, good))
        code, out, err = run_cli(*bad)
        assert (code, out) == (1, "") and err.startswith("error: ")
        code, out, err = run_cli(*good)
        assert (code, err) == (0, "")
        src = str(Path(cli.__file__).resolve().parents[1])
        fresh = subprocess.run(
            [sys.executable, "-m", "fermicov.cli", *good],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert (fresh.returncode, fresh.stderr) == (0, b"")
        assert out.encode() == fresh.stdout


class TestCollectorPause:
    """``load_model`` pauses the cyclic garbage collector while it parses, and
    frees the file's nested lists before the collector resumes."""

    CASES = {
        "valid": _CHAIN,
        "missing file": None,
        "invalid JSON": "{not json",
        "string entry": _explicit_entry("t_s", "00"),
        "deep nesting": _DEEP,
    }

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_prior_state_is_restored(self, case, enabled, tmp_path):
        doc = self.CASES[case]
        path = str(tmp_path / "missing.json") if doc is None else write_model(tmp_path, doc)
        (gc.enable if enabled else gc.disable)()
        try:
            with contextlib.nullcontext() if case == "valid" else pytest.raises(cli.UsageError):
                load_model(path)
            restored = gc.isenabled()
        finally:
            gc.enable()
        assert restored is enabled

    def test_loads_promote_nothing_to_the_oldest_generation(self, tmp_path, monkeypatch):
        path = write_model(tmp_path, explicit_doc(random_semigroup(np.random.default_rng(9), 24, 2)))
        sizes = []

        def sampled(data, what):
            sizes.append(len(gc.get_objects(generation=2)))  # every list of the file is alive here
            return matrix_from_json(data, what)

        monkeypatch.setattr(cli, "matrix_from_json", sampled)
        threshold = gc.get_threshold()
        gc.collect()
        before = len(gc.get_objects(generation=2))
        gc.set_threshold(10, 1, 1)  # young collections every few allocations
        try:
            documents = [load_model(path)[1] for _ in range(20)]
            sizes.append(len(gc.get_objects(generation=2)))
        finally:
            gc.set_threshold(*threshold)
        assert len(documents) == 20 and len(sizes) == 61
        assert max(sizes) - before < 100
