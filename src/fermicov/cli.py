"""Command-line front end: model files in, reports and time series out.

Model files and reports are JSON: nested key-value objects whose matrices are
row-major nested arrays with every complex number a two-element [re, im]
array.  Floats are emitted in Python's shortest round-tripping decimal form
(at most 17 significant digits), so write-then-read reproduces every value
bit-exactly.  Exit codes: 0 success, 1 malformed or oversized input,
2 numerical or ergodicity failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import models
from .errors import (
    FermicovError,
    NonUniqueStationary,
    NotPSD,
    NumericalFailure,
    StructureViolation,
    TooLarge,
    UnsupportedIso,
    WordTooLong,
)
from .fock import DenseOperator, DenseState, IsomorphismTag, covariance_of
from .lindblad import (
    PIN_TOL,
    RESIDUAL_TOL,
    ErgodicityReport,
    SemigroupSpec,
    _stationary_given,
    ergodicity,
    lift_gauge_invariant,
    make_semigroup,
    propagate,
    propagate_series,
    stationary,
)
from .oracle import build_lindbladian, evolve_dense
from .phase import TAU_NUM, TAU_STRUCT, BasisTag, convert_basis, validate_coupling, validate_qf
from .quasifree import CovarianceMatrix, small_from_full, validate_covariance

SCHEMA_VERSION = 1

_INPUT_ERRORS = (StructureViolation, TooLarge, UnsupportedIso)
_NUMERIC_ERRORS = (NumericalFailure, NonUniqueStationary, WordTooLong, NotPSD)
#: What building a spec from malformed file or --set values raises.
_MALFORMED_ERRORS = (TypeError, ValueError, OverflowError)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# JSON (de)serialization of matrices: row-major, complex as [re, im]


def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def matrix_from_json(data, what: str) -> np.ndarray:
    try:
        rows = []
        for row in data:
            rows.append([complex(float(z[0]), float(z[1])) for z in row])
        out = np.array(rows, dtype=complex)
    except (TypeError, ValueError, IndexError) as exc:
        raise UsageError(f"{what}: expected a nested array of [re, im] pairs ({exc})")
    if out.ndim != 2:
        raise UsageError(f"{what}: expected a matrix")
    return out


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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
    """The preset's defaults overridden by ``parameters``, with an integer length."""
    if name not in PRESETS:
        raise UsageError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    defaults, _ = PRESETS[name]
    unknown = set(parameters) - set(defaults)
    if unknown:
        raise UsageError(f"preset {name!r} does not accept parameters {sorted(unknown)}")
    merged = {**defaults, **parameters}
    if "length" in merged:
        merged["length"] = int(merged["length"])
    return merged


def build_preset_spec(name: str, parameters: dict) -> SemigroupSpec:
    merged = _preset_parameters(name, parameters)
    return PRESETS[name][1](merged)


# ---------------------------------------------------------------------------
# model files


def load_model(path: str) -> tuple[SemigroupSpec, dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read model file: {exc}")
    except json.JSONDecodeError as exc:
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
    L, K = int(section["mode_count"]), int(section["bath_modes"])
    t_s = validate_qf(matrix_from_json(section["t_s"], "t_s"), basis)
    theta = validate_coupling(matrix_from_json(section["theta"], "theta"), basis)
    m_b = validate_covariance(matrix_from_json(section["m_b"], "m_b"), basis)
    if t_s.mode_count != L or theta.bath_modes != K:
        raise UsageError("declared mode counts do not match the matrices")
    return make_semigroup(t_s, theta, m_b)


def spec_hash(spec: SemigroupSpec) -> str:
    payload = json.dumps(
        {
            "t_s": matrix_to_json(spec.t_s.entries),
            "theta": matrix_to_json(spec.theta.entries),
            "m_b": matrix_to_json(spec.m_b.entries),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


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


def _stationary_section(m_inf: CovarianceMatrix, include_matrix: bool) -> dict:
    small = small_from_full(m_inf).entries
    section = {
        "occupations": [float(x) for x in small.diagonal().real],
        "currents": [float(x) for x in np.diag(small, 1).imag],
    }
    if include_matrix:
        section["matrix"] = matrix_to_json(small)
    return section


def _emit(report: dict, stream) -> None:
    json.dump(report, stream, indent=2)
    stream.write("\n")


# ---------------------------------------------------------------------------
# commands


def cmd_check(args, out, err) -> int:
    spec, _ = load_model(args.model)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "check",
        "metadata": _metadata(spec),
        "ergodicity": _ergodicity_section(ergodicity(spec)),
    }
    _emit(report, out)
    return 0


def cmd_stationary(args, out, err) -> int:
    spec, _ = load_model(args.model)
    report = ergodicity(spec)
    m_inf = _stationary_given(spec, report)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "stationary",
        "metadata": _metadata(spec),
        "ergodicity": _ergodicity_section(report),
        "stationary": _stationary_section(m_inf, args.full_matrix),
    }
    _emit(payload, out)
    return 0


def _initial_covariance(spec: SemigroupSpec, choice: str) -> CovarianceMatrix:
    L = spec.mode_count
    if choice == "stationary":
        return stationary(spec)
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
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"--m0 must be stationary|mixed|vacuum or a covariance file: {exc}")


def cmd_evolve(args, out, err) -> int:
    if not (np.isfinite(args.t_final) and args.t_final > 0):
        raise UsageError("--t-final must be finite and positive")
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    spec, _ = load_model(args.model)
    try:
        m_inf = stationary(spec)
    except NonUniqueStationary:
        m_inf = None
    m0 = m_inf if args.m0 == "stationary" and m_inf is not None else _initial_covariance(spec, args.m0)
    L = spec.mode_count

    header = ["t"]
    header += [f"occ_{i + 1}" for i in range(L)]
    header += [f"current_{i + 1}" for i in range(L - 1)]
    if m_inf is not None:
        header.append("distance")
    out.write(",".join(header) + "\n")
    series = propagate_series(spec, m0, args.t_final / args.samples, args.samples)
    for j, m_t in enumerate(series):
        small = small_from_full(m_t).entries
        row = [_fmt(args.t_final * j / args.samples)]
        row += [_fmt(x) for x in small.diagonal().real]
        row += [_fmt(x) for x in np.diag(small, 1).imag]
        if m_inf is not None:
            row.append(_fmt(np.abs(m_t.entries - m_inf.entries).max()))
        out.write(",".join(row) + "\n")
    return 0


def cmd_oracle_compare(args, out, err) -> int:
    if not (np.isfinite(args.t) and args.t >= 0):
        raise UsageError("--t must be finite and nonnegative")
    if not (np.isfinite(args.max_deviation) and args.max_deviation >= 0):
        raise UsageError("--max-deviation must be finite and nonnegative")
    spec, _ = load_model(args.model)
    L, K = spec.mode_count, spec.bath_modes
    if L > 3 or K > 2:
        raise TooLarge(f"oracle comparison is limited to L <= 3, K <= 2 (got L={L}, K={K})")
    iso = IsomorphismTag[args.iso]
    lind = build_lindbladian(spec, iso)
    dim = 2**L
    rho0 = DenseState(op=DenseOperator(entries=np.eye(dim, dtype=complex) / dim, mode_count=L))
    m0 = validate_covariance(0.5 * np.eye(2 * L), BasisTag.MAJORANA)

    rho_t = evolve_dense(lind, rho0, args.t)
    dense_cov = convert_basis(covariance_of(rho_t), BasisTag.MAJORANA)
    fast_cov = convert_basis(propagate(spec, m0, args.t), BasisTag.MAJORANA)
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
        with open(args.output, "w", encoding="utf-8") as fh:
            _emit(doc, fh)
    else:
        _emit(doc, out)
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="fermicov", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="ergodicity report for a model file")
    p.add_argument("model")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("stationary", help="stationary occupations and currents")
    p.add_argument("model")
    p.add_argument("--full-matrix", action="store_true")
    p.set_defaults(func=cmd_stationary)

    p = sub.add_parser("evolve", help="time series of the covariance flow")
    p.add_argument("model")
    p.add_argument("--m0", default="mixed", help="stationary|mixed|vacuum or a covariance file")
    p.add_argument("--t-final", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("oracle-compare", help="dense-oracle regression check")
    p.add_argument("model")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--iso", choices=[tag.name for tag in IsomorphismTag], default="E_BS")
    p.add_argument("--max-deviation", type=float, default=1e-7)
    p.set_defaults(func=cmd_oracle_compare)

    p = sub.add_parser("model", help="model-file utilities")
    msub = p.add_subparsers(dest="model_command", required=True)
    b = msub.add_parser("build", help="write a preset model file")
    b.add_argument("preset", choices=sorted(PRESETS))
    b.add_argument("--set", action="append", metavar="KEY=VALUE")
    b.add_argument("--output", "-o")
    b.set_defaults(func=cmd_model_build)

    return parser


def main(argv=None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args, out, err)
    except UsageError as exc:
        err.write(f"error: {exc}\n")
        return 1
    except _INPUT_ERRORS as exc:
        err.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    except _NUMERIC_ERRORS as exc:
        err.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2
    except FermicovError as exc:
        err.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
