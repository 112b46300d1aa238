"""The three benchmark workloads: seed-generated models, op rounds, references, checks.

A workload is a fixed list of op templates (command, model family, L, K, variant).
One round runs every template once in a seed-shuffled order, so each run has
the same op mix; the seed draws the model parameters, the order within each
round and the per-op options (initial state, sample, isomorphism).

References are computed outside the timed region with independent solvers
(closed forms, ``scipy.linalg.eigh``, ``solve_continuous_lyapunov``,
``solve_ivp``) and every op's output is checked against them.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from fermicov import cli, fock, lindblad, oracle, phase, quasifree
from fermicov.models import ChainParams, two_bath_chain

SAMPLES = 40
ORACLE_T = 1.0
#: Absolute tolerance of each reference check.
TOL = {
    "two-bath-chain": 1e-10,  # closed form, as in the acceptance suite
    "thermalization": 1e-9,  # Gibbs covariance, as in the acceptance suite
    "lyapunov": 1e-9,  # xy and explicit models against Bartels-Stewart
    "evolve": 1e-9,  # CSV rows against solve_ivp
    "oracle": 1e-8,  # dense-oracle deviation, as in the acceptance suite
}
#: Size of the perturbation that --corrupt-reference adds to one reference value.
CORRUPTION = 1e-6

# Op templates: (command, family, L, K, variant).  K matters for explicit models only.
WORKLOADS = {
    "stationary-ladder": [
        ("stationary", "two-bath-chain", 8, 0, 0),
        ("stationary", "xy", 8, 0, 0),
        ("stationary", "thermalization", 8, 0, 0),
        ("stationary", "explicit", 8, 1, 0),
        ("stationary", "two-bath-chain", 16, 0, 0),
        ("stationary", "xy", 16, 0, 0),
        ("stationary", "thermalization", 16, 0, 0),
        ("stationary", "explicit", 16, 1, 0),
        ("stationary", "two-bath-chain", 24, 0, 0),
        ("stationary", "xy", 24, 0, 0),
        ("stationary", "explicit", 24, 2, 0),
        ("stationary", "explicit", 24, 2, 1),
        ("check", "two-bath-chain", 24, 0, 0),
        ("check", "xy", 8, 0, 0),
        ("check", "explicit", 16, 1, 0),
        ("check", "thermalization", 16, 0, 0),
    ],
    "evolve-series": [
        ("evolve", "two-bath-chain", 4, 0, 0),
        ("evolve", "xy", 4, 0, 0),
        ("evolve", "two-bath-chain", 6, 0, 0),
        ("evolve", "two-bath-chain", 6, 0, 0),
        ("evolve", "two-bath-chain", 6, 0, 0),
        ("evolve", "xy", 6, 0, 0),
        ("evolve", "xy", 6, 0, 0),
        ("evolve", "xy", 6, 0, 0),
        ("evolve", "star", 4, 0, 0),
        ("evolve", "two-bath-chain", 8, 0, 0),
        ("evolve", "xy", 8, 0, 0),
        ("evolve", "star", 6, 0, 0),
        ("evolve", "star", 6, 0, 0),
    ],
    # Many cheap L=4 ops put the median among them.  Five L=5 ops make a round
    # of 9-13 s, so a 27 s run holds three whole rounds over that range of
    # machine speeds, and the tail (10 ops beyond it) stays among the L=5 ops.
    "oracle-verify": (
        [("oracle-compare", "explicit", 3, k, v) for k in (1, 2) for v in range(2)]
        + [("oracle", "explicit", 4, k, v) for k in (1, 2) for v in range(6)]
        + [("oracle", "explicit", 5, k, v) for k, v in ((1, 0), (1, 1), (2, 0), (2, 1), (2, 2))]
    ),
}


@dataclass
class Model:
    family: str
    length: int
    bath_modes: int
    path: str
    params: dict  # preset parameters; explicit models keep their Majorana arrays
    t_final: float = 0.0  # evolve horizon drawn for this model


@dataclass
class Op:
    command: str
    model: Model
    group: str  # label of the per-layer table block
    argv: list = field(default_factory=list)
    m0: str = ""
    sample: int = 0
    iso: str = ""
    m0_entries: np.ndarray | None = None  # random initial covariance of direct oracle ops


@dataclass
class Outcome:
    rc: int
    stdout: str = ""
    stderr: str = ""
    value: object = None


# ---------------------------------------------------------------------------
# model generation


def _uniform(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _preset_params(rng, family: str, length: int) -> dict:
    if family == "two-bath-chain":
        return {"length": length, "theta1": _uniform(rng, 0.5, 1.5), "theta_l": _uniform(rng, 0.5, 1.5),
                "n1": _uniform(rng, 0.0, 1.0), "n_l": _uniform(rng, 0.0, 1.0)}
    if family == "xy":
        return {"length": length, "kappa": _uniform(rng, 0.2, 0.8), "h": _uniform(rng, 0.2, 1.0),
                "theta1": _uniform(rng, 0.5, 1.5), "theta2": _uniform(rng, 0.5, 1.5),
                "bath1": _uniform(rng, 0.0, 1.0), "bath2": _uniform(rng, 0.0, 1.0)}
    if family == "thermalization":
        return {"length": length, "beta": _uniform(rng, 0.2, 2.0)}
    if family == "star":
        return {"length": length, "theta": _uniform(rng, 0.5, 1.5), "m_b0": _uniform(rng, 0.1, 0.9)}
    raise ValueError(family)


def _explicit_arrays(rng, length: int, bath_modes: int) -> dict:
    """Random Majorana-basis data: T_S = iA, Theta = iW with unit spectral norms,
    and a bath covariance I/2 + iR that factorizes over the bath modes."""
    x = rng.normal(size=(2 * length, 2 * length))
    a = x - x.T
    w = rng.normal(size=(2 * length, 2 * bath_modes))
    r = np.zeros((2 * bath_modes, 2 * bath_modes))
    for j in range(bath_modes):
        r[j, j + bath_modes] = rng.uniform(-0.45, 0.45)
    return {
        "t_s": 1j * a / np.linalg.norm(a, 2),
        "theta": 1j * w / np.linalg.norm(w, 2),
        "m_b": 0.5 * np.eye(2 * bath_modes) + 1j * (r - r.T),
    }


def _write_model(model: Model) -> None:
    if model.family == "explicit":
        section = {"mode_count": model.length, "bath_modes": model.bath_modes, "basis": "majorana"}
        section.update({k: cli.matrix_to_json(v) for k, v in model.params.items()})
        doc = {"schema_version": cli.SCHEMA_VERSION, "explicit": section}
    else:
        doc = {"schema_version": cli.SCHEMA_VERSION, "preset": {"name": model.family, "parameters": model.params}}
    with open(model.path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def make_models(workload: str, seed: int, workdir: str) -> dict:
    """Draw and write one model file per (family, L, K, variant) of the workload."""
    rng = np.random.default_rng([seed, 0])
    models = {}
    for _, family, length, k, variant in WORKLOADS[workload]:
        key = (family, length, k, variant)
        if key in models:
            continue
        if family == "explicit":
            params, bath_modes = _explicit_arrays(rng, length, k), k
        else:
            params = _preset_params(rng, family, length)
            bath_modes = {"two-bath-chain": 2, "xy": 2, "thermalization": length, "star": 1}[family]
        model = Model(family, length, bath_modes, f"{workdir}/{family}-L{length}-K{k}-{variant}.json", params,
                      t_final=_uniform(rng, 4.0, 12.0))
        _write_model(model)
        models[key] = model
    return models


# ---------------------------------------------------------------------------
# op rounds


def _valid_isos(model: Model) -> list[str]:
    return ["E_SB", "E_BS", "E_B1SB2"] if model.bath_modes >= 2 else ["E_SB", "E_BS"]


def _random_covariance(rng, length: int) -> np.ndarray:
    """Majorana covariance I/2 + i O R O^T with |r_k| < 1/2: a valid mixed Gaussian state."""
    q, _ = np.linalg.qr(rng.normal(size=(2 * length, 2 * length)))
    r = np.zeros((2 * length, 2 * length))
    for j in range(length):
        r[2 * j, 2 * j + 1] = rng.uniform(-0.45, 0.45)
    return 0.5 * np.eye(2 * length) + 1j * (q @ (r - r.T) @ q.T)


def make_op(rng, template, models: dict) -> Op:
    command, family, length, k, variant = template
    model = models[(family, length, k, variant)]
    if command in ("stationary", "check"):
        return Op(command, model, f"{command} L={length}", [command, model.path])
    if command == "evolve":
        m0 = ("mixed", "vacuum")[rng.integers(2)]
        group = f"evolve star L={length}" if family == "star" else f"evolve L={length}"
        argv = ["evolve", model.path, "--m0", m0, "--t-final", repr(model.t_final), "--samples", str(SAMPLES)]
        return Op(command, model, group, argv, m0=m0, sample=int(rng.integers(1, SAMPLES + 1)))
    iso = _valid_isos(model)[rng.integers(len(_valid_isos(model)))]
    if command == "oracle-compare":
        argv = ["oracle-compare", model.path, "--t", repr(ORACLE_T), "--iso", iso,
                "--max-deviation", repr(TOL["oracle"])]
        return Op(command, model, f"oracle-compare L={length}", argv, iso=iso)
    m0 = ("mixed", "random")[rng.integers(2)]
    entries = 0.5 * np.eye(2 * length) if m0 == "mixed" else _random_covariance(rng, length)
    return Op(command, model, f"oracle L={length}", m0=m0, iso=iso, m0_entries=entries)


def make_round(workload: str, seed: int, index: int, models: dict) -> list[Op]:
    """Round ``index`` of the run: every template once, in a seed-shuffled order."""
    rng = np.random.default_rng([seed, 1, index])
    templates = WORKLOADS[workload]
    return [make_op(rng, templates[i], models) for i in rng.permutation(len(templates))]


def warmup_ops(workload: str, models: dict) -> list[Op]:
    """One op per (command, family) on its smallest model."""
    rng = np.random.default_rng(0)
    smallest = {}
    for template in WORKLOADS[workload]:
        key = template[:2]
        if key not in smallest or template[2] < smallest[key][2]:
            smallest[key] = template
    return [make_op(rng, t, models) for t in smallest.values()]


# ---------------------------------------------------------------------------
# executing an op: the only code inside the timed region


def execute(op: Op) -> Outcome:
    if op.command != "oracle":
        out, err = io.StringIO(), io.StringIO()
        rc = cli.main(op.argv, out, err)
        return Outcome(rc, out.getvalue(), err.getvalue())
    # the public calls that ``fermicov oracle-compare`` makes, past its L <= 3 cap
    spec, _ = cli.load_model(op.model.path)
    m0 = quasifree.validate_covariance(op.m0_entries, phase.BasisTag.MAJORANA)
    lind = oracle.build_lindbladian(spec, fock.IsomorphismTag[op.iso])
    rho_t = oracle.evolve_dense(lind, fock.quasifree_state(m0), ORACLE_T)
    dense = phase.convert_basis(fock.covariance_of(rho_t), phase.BasisTag.MAJORANA).entries
    fast = phase.convert_basis(lindblad.propagate(spec, m0, ORACLE_T), phase.BasisTag.MAJORANA).entries
    return Outcome(0, value=(dense, fast))


# ---------------------------------------------------------------------------
# references (untimed)


def _basis_pair(length: int):
    eye = np.eye(length)
    s = 0.5 * np.block([[eye, eye], [-1j * eye, 1j * eye]])
    s_inv = np.block([[eye, 1j * eye], [eye, -1j * eye]])
    return s, s_inv


def _small_block(m_maj: np.ndarray, length: int) -> np.ndarray:
    """Upper-left block of a Majorana covariance in the creation/annihilation basis."""
    s, s_inv = _basis_pair(length)
    return (s_inv @ m_maj @ s)[:length, :length]


def _drift_pump(model: Model) -> tuple[np.ndarray, np.ndarray]:
    if model.family == "explicit":
        t, th, mb = model.params["t_s"], model.params["theta"], model.params["m_b"]
        return -1j * t - 0.5 * th @ th.conj().T, th @ mb @ th.conj().T
    spec, _ = cli.load_model(model.path)
    return spec.drift, spec.pump


def _lyapunov(drift: np.ndarray, pump: np.ndarray) -> np.ndarray:
    m = scipy.linalg.solve_continuous_lyapunov(drift, -pump)
    return (m + m.conj().T) / 2


def _observables(small: np.ndarray) -> np.ndarray:
    return np.concatenate([small.diagonal().real, np.diag(small, 1).imag])


def stationary_reference(model: Model) -> dict:
    """Occupations followed by currents of the stationary state, from an independent solver."""
    L = model.length
    if model.family == "two-bath-chain":
        _, pred = two_bath_chain(ChainParams(**model.params))
        occ = np.full(L, pred.pm)
        occ[0], occ[-1] = pred.p1, pred.pL
        return {"values": np.concatenate([occ, np.full(L - 1, pred.current)]), "tol": TOL["two-bath-chain"]}
    if model.family == "thermalization":
        hop = np.diag(np.ones(L - 1), 1)
        w, v = scipy.linalg.eigh(hop + hop.T)
        small = (v / (1.0 + np.exp(-2.0 * model.params["beta"] * w))) @ v.T
        return {"values": _observables(small), "tol": TOL["thermalization"]}
    return {"values": _observables(_small_block(_lyapunov(*_drift_pump(model)), L)), "tol": TOL["lyapunov"]}


def evolve_reference(model: Model, m0: str) -> dict:
    """The SAMPLES + 1 rows of the evolve CSV, from solve_ivp on the master equation."""
    from scipy.integrate import solve_ivp

    L, n = model.length, 2 * model.length
    drift, pump = _drift_pump(model)
    s, s_inv = _basis_pair(L)
    if m0 == "mixed":
        start = 0.5 * np.eye(n, dtype=complex)
    else:
        start = s @ np.diag(np.r_[np.ones(L), np.zeros(L)]).astype(complex) @ s_inv
    times = model.t_final * np.arange(SAMPLES + 1) / SAMPLES

    def rhs(_, y):
        m = y.reshape(n, n)
        return (drift @ m + m @ drift.conj().T + pump).ravel()

    sol = solve_ivp(rhs, (0.0, times[-1]), start.ravel(), method="DOP853", t_eval=times,
                    rtol=1e-12, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    unique = model.family != "star"
    m_inf = _lyapunov(drift, pump) if unique else None
    rows = []
    for j in range(SAMPLES + 1):
        m_t = sol.y[:, j].reshape(n, n)
        row = [times[j], *_observables(_small_block(m_t, L))]
        if unique:
            row.append(np.abs(m_t - m_inf).max())
        rows.append(np.array(row))
    return {"rows": rows, "unique": unique, "tol": TOL["evolve"]}


def references(workload: str, models: dict) -> dict:
    refs = {}
    for command, family, length, k, variant in WORKLOADS[workload]:
        model = models[(family, length, k, variant)]
        if command == "stationary" and (model.path, None) not in refs:
            refs[(model.path, None)] = stationary_reference(model)
        if command == "evolve" and (model.path, "mixed") not in refs:
            for m0 in ("mixed", "vacuum"):
                refs[(model.path, m0)] = evolve_reference(model, m0)
    return refs


# ---------------------------------------------------------------------------
# checks (untimed): each returns None on success, else the reason


def _corrupt(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=float)
    out[-1] += CORRUPTION  # the last current, or the distance column of evolve
    return out


def _ergodic(report: dict, length: int) -> str | None:
    if report["kalman_full"] != report["unique_stationary"]:
        return f"kalman_full {report['kalman_full']} != unique_stationary {report['unique_stationary']}"
    if report["kalman_rank"] != 2 * length:
        return f"kalman rank {report['kalman_rank']}, expected {2 * length}"
    return None


def check(op: Op, outcome: Outcome, refs: dict, corrupt: bool) -> str | None:
    """Compare one op's output with its reference; ``corrupt`` perturbs the reference."""
    if outcome.rc != 0:
        return f"exit code {outcome.rc}: {outcome.stderr.strip()[:200]}"
    L = op.model.length
    if op.command == "check":
        return _ergodic(json.loads(outcome.stdout)["ergodicity"], L)
    if op.command == "stationary":
        report = json.loads(outcome.stdout)
        ref = refs[(op.model.path, None)]
        got = np.r_[report["stationary"]["occupations"], report["stationary"]["currents"]]
        want = _corrupt(ref["values"]) if corrupt else ref["values"]
        dev = float(np.abs(got - want).max())
        if dev > ref["tol"]:
            return f"deviation {dev:.3e} > {ref['tol']:.0e}"
        return _ergodic(report["ergodicity"], L)
    if op.command == "evolve":
        ref = refs[(op.model.path, op.m0)]
        rows = list(csv.reader(io.StringIO(outcome.stdout)))
        width = 1 + L + (L - 1) + ref["unique"]
        if len(rows) != SAMPLES + 2 or any(len(r) != width for r in rows):
            return f"CSV has {len(rows)} rows, expected {SAMPLES + 2} of width {width}"
        got = np.array([float(x) for x in rows[1 + op.sample]])
        want = ref["rows"][op.sample]
        want = _corrupt(want) if corrupt else want
        dev = float(np.abs(got - want).max())
        return f"sample {op.sample} deviation {dev:.3e} > {ref['tol']:.0e}" if dev > ref["tol"] else None
    if op.command == "oracle-compare":
        dev = json.loads(outcome.stdout)["oracle"]["max_deviation"]
        return f"oracle deviation {dev:.3e} > {TOL['oracle']:.0e}" if dev > TOL["oracle"] else None
    dense, fast = outcome.value
    if corrupt:
        fast = fast.copy()
        fast[0, 0] += CORRUPTION
    dev = float(np.abs(dense - fast).max())
    return f"oracle deviation {dev:.3e} > {TOL['oracle']:.0e}" if dev > TOL["oracle"] else None


def has_reference_values(op: Op) -> bool:
    """Whether --corrupt-reference can perturb this op's reference."""
    return op.command in ("stationary", "evolve", "oracle")
