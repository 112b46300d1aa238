"""Command-line front end: model files in, reports and time series out.

Model files and reports are JSON: nested key-value objects whose matrices are
row-major nested arrays with every complex number a two-element [re, im]
array.  Reports print floats in Python's shortest round-tripping form, the
``evolve`` CSV with ``%.17g`` (17 digits: round-tripping, not shortest), so
write-then-read reproduces every value bit-exactly.  ``evolve`` writes its
rows a block of stepped states at a time, in memory independent of
``--samples``.  Exit codes: 0 success, 1 malformed or oversized input, 2
numerical or ergodicity failure.

``main`` may be called repeatedly in one process: it builds its parser once,
and pauses the garbage collector (process-wide) only while parsing a model file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import sys

import numpy as np

from . import models
from .errors import FermicovError, StructureViolation, TooLarge, UnsupportedIso
from .fock import DenseOperator, DenseState, IsomorphismTag, covariance_of
from .lindblad import (
    PIN_TOL,
    RESIDUAL_TOL,
    ErgodicityReport,
    SemigroupSpec,
    _series_blocks,
    ergodicity,
    lift_gauge_invariant,
    make_semigroup,
    propagate,
    stationary,
)
from .oracle import build_lindbladian, evolve_dense, generator_norm_bound
from .phase import TAU_NUM, TAU_STRUCT, BasisTag, convert_basis, validate_coupling, validate_qf
from .quasifree import CovarianceMatrix, small_from_full, validate_covariance

SCHEMA_VERSION = 1
#: Largest system or bath mode count a model file may declare, checked before
#: any matrix is built.  At the cap, ``stationary`` on the two-bath chain solves
#: a 1024 x 1024 Lyapunov equation.
L_MODEL_MAX = 512
#: Largest t * ``generator_norm_bound`` an ``oracle-compare`` run may evolve.
#: At L = 3 one unit costs about 2.5e-5 s of CPU on one thread: ``--t 1e4`` on
#: the default ``one-end-chain``, 5e4 units, took 1.1-1.4 s on a loaded shared
#: Xeon VM, so an accepted run takes a second or two.  On 8 x 8 matrices numpy's
#: per-call overhead outweighs the flops the matrix-free Taylor action saves: the
#: 64 x 64 superoperator it replaced took 0.38 s for the same run on a machine
#: where a Taylor loop taking 1.5-1.6 times as long as this one took 0.73-0.77 s.
ORACLE_WORK_MAX = 5e4

_INPUT_ERRORS = (StructureViolation, TooLarge, UnsupportedIso)
#: What building a spec from malformed file or --set values raises.
_MALFORMED_ERRORS = (TypeError, ValueError, OverflowError)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector (process-wide), then restore its prior
    state.  A parsed model file is thousands of short-lived lists, which young
    collections would promote until a full collection of the heap runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# JSON (de)serialization of matrices: row-major, complex as [re, im]


def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def matrix_from_json(data, what: str) -> np.ndarray:
    try:
        # exact types: np.array would read "12" or true (a bool is an int) as a number
        if {type(x) for row in data for z in row for x in z} - {int, float}:
            raise TypeError("an entry holds something other than two numbers")
        pairs = np.array(data, dtype=float)
    except _MALFORMED_ERRORS as exc:
        raise UsageError(f"{what}: expected a nested array of [re, im] pairs ({exc})")
    if pairs.ndim != 3 or pairs.shape[2] != 2:
        raise UsageError(f"{what}: expected a matrix of [re, im] pairs")
    return pairs.view(complex)[..., 0]


# ---------------------------------------------------------------------------
# presets


def _lifted_chain(parameters) -> SemigroupSpec:
    spec, _ = models.two_bath_chain(models.ChainParams(**parameters))
    return lift_gauge_invariant(spec)


def _thermalization(parameters) -> SemigroupSpec:
    length = parameters["length"]
    beta = parameters["beta"]
    t0 = models.chain_hamiltonian(length)
    z = np.zeros_like(t0)
    t_s = validate_qf(np.block([[t0, z], [z, -t0]]), BasisTag.CREATION_ANNIHILATION)
    return models.thermalization_model(t_s, beta)


def _simple_bath(parameters) -> SemigroupSpec:
    length, theta, beta = parameters["length"], parameters["theta"], parameters["beta"]
    theta0 = np.zeros((length, 1))
    theta0[0, 0] = theta
    gi = models.simple_bath_model(models.chain_hamiltonian(length), theta0, beta)
    return lift_gauge_invariant(gi)


def _one_end(parameters) -> SemigroupSpec:
    return lift_gauge_invariant(models.one_end_chain(**parameters))


def _star(parameters) -> SemigroupSpec:
    return lift_gauge_invariant(models.star_model(**parameters))


def _xy(parameters) -> SemigroupSpec:
    return models.xy_chain(models.XYParams(**parameters))


PRESETS = {
    "two-bath-chain": (
        {"length": 5, "theta1": 1.0, "theta_l": 1.0, "n1": 1.0, "n_l": 0.0},
        _lifted_chain,
    ),
    "thermalization": ({"length": 4, "beta": 1.0}, _thermalization),
    "simple-bath": ({"length": 3, "theta": 1.0, "beta": 1.0}, _simple_bath),
    "one-end-chain": ({"length": 3, "theta": 1.0, "m_b0": 0.5}, _one_end),
    "star": ({"length": 3, "theta": 1.0, "m_b0": 0.5}, _star),
    "xy": (
        {"length": 4, "kappa": 0.5, "h": 0.0, "theta1": 1.0, "theta2": 1.0, "bath1": 1.0, "bath2": 0.0},
        _xy,
    ),
}


def _preset_parameters(name: str, parameters: dict) -> dict:
    """The preset's defaults overridden by ``parameters``, with an exact integer
    length.  Raises ValueError naming a key whose value is not an int or a float."""
    if name not in PRESETS:
        raise UsageError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    defaults, _ = PRESETS[name]
    unknown = set(parameters) - set(defaults)
    if unknown:
        raise UsageError(f"preset {name!r} does not accept parameters {sorted(unknown)}")
    for key, value in parameters.items():
        if type(value) not in (int, float):
            raise ValueError(f"parameter {key!r} must be a number, got {value!r}")
    merged = {**defaults, **parameters}
    if "length" in merged:
        merged["length"] = _mode_count("length", merged["length"])
    return merged


def _mode_count(what: str, value) -> int:
    """``value`` as an exact integer count of at least 1: an int that is not a
    bool, or an integral float.  Raises ValueError otherwise, TooLarge above the cap."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{what} must be at least 1, got {value}")
    if value > L_MODEL_MAX:
        raise TooLarge(f"{what} {value} exceeds the model cap L_MODEL_MAX = {L_MODEL_MAX}")
    return value


def build_preset_spec(name: str, parameters: dict) -> SemigroupSpec:
    merged = _preset_parameters(name, parameters)
    return PRESETS[name][1](merged)


# ---------------------------------------------------------------------------
# model files


@_collector_paused()
def load_model(path: str) -> tuple[SemigroupSpec, dict]:
    """The validated spec of a model file, and its document with an explicit
    section's matrices decoded to complex arrays.  Runs with the collector
    paused, and frees the matrices' nested lists before it resumes."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read model file: {exc}")
    except (ValueError, RecursionError) as exc:  # also a file not in UTF-8, or nested too deeply
        raise UsageError(f"model file is not valid JSON: {exc}")
    if not isinstance(data, dict) or data.get("schema_version") != SCHEMA_VERSION:
        raise UsageError(f"model file must declare schema_version = {SCHEMA_VERSION}")
    has_preset, has_explicit = "preset" in data, "explicit" in data
    if has_preset == has_explicit:
        raise UsageError("model file must contain exactly one of 'preset' or 'explicit'")
    try:
        if has_preset:
            preset = data["preset"]
            if not isinstance(preset, dict) or "name" not in preset:
                raise UsageError("preset section needs a 'name'")
            spec = build_preset_spec(preset["name"], dict(preset.get("parameters", {})))
        else:
            spec = _spec_from_explicit(data["explicit"])
    except _MALFORMED_ERRORS as exc:
        raise UsageError(f"malformed model file: {exc}")
    return spec, data


def _spec_from_explicit(section) -> SemigroupSpec:
    if not isinstance(section, dict):
        raise UsageError("explicit section must be an object")
    required = {"mode_count", "bath_modes", "basis", "t_s", "theta", "m_b"}
    missing = required - set(section)
    if missing:
        raise UsageError(f"explicit section is missing {sorted(missing)}")
    try:
        basis = BasisTag(section["basis"])
    except ValueError:
        raise UsageError(f"unknown basis tag {section['basis']!r}")
    L = _mode_count("mode_count", section["mode_count"])
    K = _mode_count("bath_modes", section["bath_modes"])
    for key in ("t_s", "theta", "m_b"):
        section[key] = matrix_from_json(section[key], key)  # frees the nested lists
    t_s, theta, m_b = section["t_s"], section["theta"], section["m_b"]
    if t_s.shape != (2 * L, 2 * L) or theta.shape != (2 * L, 2 * K) or m_b.shape != (2 * K, 2 * K):
        raise UsageError("declared mode counts do not match the matrices")
    return make_semigroup(
        validate_qf(t_s, basis), validate_coupling(theta, basis), validate_covariance(m_b, basis)
    )


def spec_hash(spec: SemigroupSpec) -> str:
    """SHA-256 prefix of the shapes and little-endian complex128 bytes of T_S, Theta and M_B."""
    digest = hashlib.sha256()
    for m in (spec.t_s.entries, spec.theta.entries, spec.m_b.entries):
        digest.update(np.asarray(m.shape, dtype="<i8").tobytes())
        digest.update(np.ascontiguousarray(m, dtype="<c16").tobytes())
    return digest.hexdigest()[:16]


def _metadata(spec: SemigroupSpec) -> dict:
    return {
        "spec_hash": spec_hash(spec),
        "mode_count": spec.mode_count,
        "bath_modes": spec.bath_modes,
        "tolerances": {
            "tau_struct": TAU_STRUCT,
            "tau_num": TAU_NUM,
            "residual_tol": RESIDUAL_TOL,
            "pin_tol": PIN_TOL,
        },
    }


def _ergodicity_section(report: ErgodicityReport) -> dict:
    off = report.offending_eigenvalue
    return {
        "kalman_rank": report.kalman_rank,
        "kalman_full": report.kalman_full,
        "unique_stationary": report.unique_stationary,
        "converges": report.converges,
        "spectral_abscissa": report.spectral_abscissa,
        "offending_eigenvalue": None if off is None else [off.real, off.imag],
    }


def _rows(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Occupations 1/2 + R[i, L+i] and currents (R[i, i+1] + R[L+i, L+i+1]) / 2
    of one Majorana R, M = I/2 + iR, or of each R in a stack."""
    L = r.shape[-1] // 2
    above = r.diagonal(1, -2, -1)  # R[i, i+1]
    return 0.5 + r.diagonal(L, -2, -1), 0.5 * (above[..., : L - 1] + above[..., L:])


def _emit(report: dict, stream) -> None:
    json.dump(report, stream, indent=2)
    stream.write("\n")


# ---------------------------------------------------------------------------
# commands


def cmd_check(args, out, err) -> int:
    spec = load_model(args.model)[0]
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "check",
        "metadata": _metadata(spec),
        "ergodicity": _ergodicity_section(ergodicity(spec)),
    }
    _emit(report, out)
    return 0


def cmd_stationary(args, out, err) -> int:
    spec = load_model(args.model)[0]
    report = ergodicity(spec)
    m_inf = stationary(spec)
    occupations, currents = _rows(m_inf.entries.imag)
    section = {"occupations": occupations.tolist(), "currents": currents.tolist()}
    if args.full_matrix:
        section["matrix"] = matrix_to_json(small_from_full(m_inf).entries)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "stationary",
        "metadata": _metadata(spec),
        "ergodicity": _ergodicity_section(report),
        "stationary": section,
    }
    _emit(payload, out)
    return 0


def _initial_covariance(spec: SemigroupSpec, choice: str) -> CovarianceMatrix:
    L = spec.mode_count
    if choice == "mixed":
        return validate_covariance(0.5 * np.eye(2 * L), BasisTag.MAJORANA)
    if choice == "vacuum":
        zero = np.zeros((L, L))
        return validate_covariance(
            np.block([[np.eye(L), zero], [zero, zero]]), BasisTag.CREATION_ANNIHILATION
        )
    try:
        with open(choice, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        basis = BasisTag(data["basis"])
        return validate_covariance(matrix_from_json(data["m0"], "m0"), basis)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise UsageError(f"--m0 must be stationary|mixed|vacuum or a covariance file: {exc}")


def cmd_evolve(args, out, err) -> int:
    if not (np.isfinite(args.t_final) and args.t_final > 0):
        raise UsageError("--t-final must be finite and positive")
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    spec = load_model(args.model)[0]
    unique = ergodicity(spec).unique_stationary
    # a stationary start on a model that is not unique raises NonUniqueStationary here
    m_inf = stationary(spec) if unique or args.m0 == "stationary" else None
    m0 = m_inf if args.m0 == "stationary" else _initial_covariance(spec, args.m0)
    L = spec.mode_count

    header = ["t", *(f"occ_{i + 1}" for i in range(L)), *(f"current_{i + 1}" for i in range(L - 1))]
    if m_inf is not None:
        header.append("distance")
    out.write(",".join(header) + "\n")
    row = ",".join(["%.17g"] * len(header)) + "\n"
    j = 0
    for block in _series_blocks(spec, m0, args.t_final / args.samples, args.samples):
        js = np.arange(j, j + len(block))
        j += len(block)
        t = args.t_final * js / args.samples
        columns = [np.where(np.isfinite(t), t, args.t_final * (js / args.samples)), *_rows(block)]
        if m_inf is not None:
            columns.append(np.abs(block - m_inf.entries.imag).max(axis=(1, 2)))
        out.write("".join(row % tuple(values) for values in np.column_stack(columns).tolist()))
        del block, columns  # before the next block is built
    return 0


def cmd_oracle_compare(args, out, err) -> int:
    if not (np.isfinite(args.t) and args.t >= 0):
        raise UsageError("--t must be finite and nonnegative")
    if not (np.isfinite(args.max_deviation) and args.max_deviation >= 0):
        raise UsageError("--max-deviation must be finite and nonnegative")
    spec = load_model(args.model)[0]
    L, K = spec.mode_count, spec.bath_modes
    if L > 3 or K > 2:
        raise TooLarge(f"oracle comparison is limited to L <= 3, K <= 2 (got L={L}, K={K})")
    iso = IsomorphismTag[args.iso]
    lind = build_lindbladian(spec, iso)
    work = args.t * generator_norm_bound(lind)
    if not work <= ORACLE_WORK_MAX:
        raise TooLarge(f"oracle work t * |L|_1 = {work:.3e} exceeds ORACLE_WORK_MAX = {ORACLE_WORK_MAX:g}")
    dim = 2**L
    rho0 = DenseState(op=DenseOperator(entries=np.eye(dim, dtype=complex) / dim, mode_count=L))
    m0 = validate_covariance(0.5 * np.eye(2 * L), BasisTag.MAJORANA)

    rho_t = evolve_dense(lind, rho0, args.t)
    dense_cov = convert_basis(covariance_of(rho_t), BasisTag.MAJORANA)
    fast_cov = propagate(spec, m0, args.t)
    deviation = float(np.abs(dense_cov.entries - fast_cov.entries).max())
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "oracle-compare",
        "metadata": _metadata(spec),
        "oracle": {
            "t": args.t,
            "iso": iso.value,
            "max_deviation": deviation,
            "threshold": args.max_deviation,
        },
    }
    _emit(report, out)
    return 0 if deviation <= args.max_deviation else 2


def cmd_model_build(args, out, err) -> int:
    parameters = {}
    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        try:
            parameters[key] = float(value)
        except ValueError:
            raise UsageError(f"parameter {key!r} has non-numeric value {value!r}")
    try:
        merged = _preset_parameters(args.preset, parameters)
        PRESETS[args.preset][1](merged)  # validate now
    except _MALFORMED_ERRORS as exc:
        raise UsageError(f"malformed preset parameters: {exc}")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "preset": {"name": args.preset, "parameters": merged},
    }
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                _emit(doc, fh)
        except OSError as exc:
            raise UsageError(f"cannot write model file: {exc}")
    else:
        _emit(doc, out)
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="fermicov", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="ergodicity report for a model file")
    p.add_argument("model")
    p.set_defaults(func="cmd_check")

    p = sub.add_parser("stationary", help="stationary occupations and currents")
    p.add_argument("model")
    p.add_argument("--full-matrix", action="store_true")
    p.set_defaults(func="cmd_stationary")

    p = sub.add_parser("evolve", help="time series of the covariance flow")
    p.add_argument("model")
    p.add_argument("--m0", default="mixed", help="stationary|mixed|vacuum or a covariance file")
    p.add_argument("--t-final", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.set_defaults(func="cmd_evolve")

    p = sub.add_parser("oracle-compare", help="dense-oracle regression check")
    p.add_argument("model")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--iso", choices=[tag.name for tag in IsomorphismTag], default="E_BS")
    p.add_argument("--max-deviation", type=float, default=1e-7)
    p.set_defaults(func="cmd_oracle_compare")

    p = sub.add_parser("model", help="model-file utilities")
    msub = p.add_subparsers(dest="model_command", required=True)
    b = msub.add_parser("build", help="write a preset model file")
    b.add_argument("preset", choices=sorted(PRESETS))
    b.add_argument("--set", action="append", metavar="KEY=VALUE")
    b.add_argument("--output", "-o")
    b.set_defaults(func="cmd_model_build")

    return parser


_PARSER = _build_parser()  # commands are looked up by name when ``main`` runs


def main(argv=None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        args = _PARSER.parse_args(argv)
        # overflow reaches stderr as one error line: the finite and NaN checks reject it
        with np.errstate(all="ignore"):
            return globals()[args.func](args, out, err)
    except UsageError as exc:
        err.write(f"error: {exc}\n")
        return 1
    except _INPUT_ERRORS as exc:
        err.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    except FermicovError as exc:
        err.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
