"""One SHA-256 over the exit codes, stdout and stderr of a fixed matrix of CLI runs.

Run it from a checkout on two versions of the code: equal digests mean
byte-identical CLI output, including the rows printed before a state fails.

    python tools/cli_digest.py          # prints the digest and the exit-code tally
    python tools/cli_digest.py -v       # also one line per case, with a hash of its output

Two ``-v`` listings diff to the cases whose output differs.

The runs go through ``fermicov.cli.main`` in one process, with the
``fermicov`` of this checkout's ``src/``.  Model files are written to a
temporary directory, whose path is masked in every output.  Each model file is
removed before its build, so a case whose build fails runs on no model, not on
the previous one; the two builds that are not cases (the mid-series model and
each oracle model) must succeed, or the tool exits with an error.  The cases:

* the six presets at their default length and at length 7, each with
  ``check``, ``stationary``, ``stationary --full-matrix``, and
  ``evolve --samples 40`` from the mixed, vacuum and stationary starts at
  ``--t-final`` 10, 1e12 and 1e308;
* the stiff ``one-end-chain`` at theta = 1e3, 1e5 and 1e7, and
  ``thermalization`` at length 3 and beta = 1e7, whose chain has a zero mode,
  with the same commands (at theta = 1e5 the vacuum start exits 2 after one row);
* ``two-bath-chain`` at theta1 = 1e100, built and checked, where theta1^4
  overflows but the model does not, and at theta1 = 1e160, where the model
  overflows and the build exits 1;
* ``evolve`` on the default ``two-bath-chain`` from two ``--m0`` files: a
  Majorana-basis covariance whose real part is 1e-11 off I/2, and the same
  covariance in the creation/annihilation basis;
* one series that fails in the middle of its first block: the flow is
  replaced by E = I and Q = 0.15 J, with J = [[0, I], [-I, 0]], so from the
  mixed start the rows at t = 0 to 3 print and the state at t = 4 fails;
* ``oracle-compare --t 1`` with each ``--iso`` (E_SB, E_BS, E_B1SB2) on the six
  presets at length 3 (``thermalization`` at 2, as its bath grows with L and
  the command takes at most two bath modes), where E_B1SB2 exits 1 on a
  one-mode bath, and on the default-length ``two-bath-chain``, which exits 1
  as too large;
* ``oracle-compare --t 60 --iso E_BS`` on the same six presets, where the
  Taylor action takes several steps.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import fermicov.lindblad  # noqa: E402
from fermicov import BasisTag, convert_basis, validate_covariance  # noqa: E402
from fermicov.cli import PRESETS, main, matrix_to_json  # noqa: E402

STARTS = ("mixed", "vacuum", "stationary")
T_FINALS = ("10", "1e12", "1e308")
ISOS = ("E_SB", "E_BS", "E_B1SB2")


def _commands(path: str) -> list[list[str]]:
    commands = [["check", path], ["stationary", path], ["stationary", path, "--full-matrix"]]
    for start in STARTS:
        for t_final in T_FINALS:
            commands.append(["evolve", path, "--m0", start, "--t-final", t_final, "--samples", "40"])
    return commands


def _oracle_models() -> list[tuple[str, list[str]]]:
    models = [(name, ["--set", f"length={2 if name == 'thermalization' else 3}"]) for name in sorted(PRESETS)]
    return models + [("two-bath-chain", [])]


def _models() -> list[tuple[str, list[str]]]:
    models = []
    for name in sorted(PRESETS):
        models.append((name, []))
        models.append((f"{name} length=7", ["--set", "length=7"]))
    for theta in ("1e3", "1e5", "1e7"):
        models.append((f"one-end-chain theta={theta}", ["--set", f"theta={theta}"]))
    models.append(("thermalization length=3 beta=1e7", ["--set", "length=3", "--set", "beta=1e7"]))
    return models


def _m0_files(directory: str) -> list[str]:
    """Covariance files for the default ``two-bath-chain`` (n = 10): I/2 + iR with
    a symmetric 1e-11 added to its real part, in each basis."""
    x, y = np.random.default_rng(60).standard_normal((2, 10, 10))
    r = (y - y.T) * 0.4 / np.linalg.norm(y - y.T, 2)
    m0 = validate_covariance(0.5 * np.eye(10) + 1e-11 * (x + x.T) + 1j * r, BasisTag.MAJORANA)
    paths = []
    for basis in BasisTag:
        paths.append(os.path.join(directory, f"m0-{basis.value}.json"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            json.dump({"basis": basis.value, "m0": matrix_to_json(convert_basis(m0, basis).entries)}, fh)
    return paths


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _build(path: str, name: str, options: list[str]) -> tuple[int, str, str]:
    """``model build`` to ``path``, removed first, so a failed build leaves no model behind."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)
    return _run(["model", "build", name, *options, "-o", path])


def _build_or_fail(path: str, name: str, options: list[str]) -> None:
    """A build that is not a digest case: it must succeed."""
    code, _, err = _build(path, name, options)
    if code != 0:
        raise SystemExit(f"model build {name} {' '.join(options)} exited {code}: {err}")


def _mid_series_flow(spec, t):
    zero, eye = np.zeros((spec.mode_count, spec.mode_count)), np.eye(spec.mode_count)
    return np.eye(2 * spec.mode_count), 0.15 * np.block([[zero, eye], [-eye, zero]])


def cases(directory: str):
    """Yield (label, exit code, stdout, stderr) for every case, paths masked."""

    def mask(text: str) -> str:
        return text.replace(directory, "<tmp>")

    path = os.path.join(directory, "model.json")
    for label, options in _models():
        code, out, err = _build(path, label.split()[0], options)
        yield f"model build {label}", code, out, err
        for argv in _commands(path):
            code, out, err = _run(argv)
            yield mask(" ".join([label, *argv])), code, mask(out), mask(err)
    label = "two-bath-chain theta1=1e100"
    yield f"model build {label}", *_build(path, "two-bath-chain", ["--set", "theta1=1e100"])
    code, out, err = _run(["check", path])
    yield mask(f"{label} check {path}"), code, mask(out), mask(err)
    yield "model build two-bath-chain theta1=1e160", *_build(path, "two-bath-chain", ["--set", "theta1=1e160"])
    _build_or_fail(path, "two-bath-chain", [])
    with mock.patch.object(fermicov.lindblad, "_majorana_flow", _mid_series_flow):
        code, out, err = _run(["evolve", path, "--m0", "mixed", "--t-final", "40", "--samples", "40"])
    yield "two-bath-chain evolve with E = I, Q = 0.15 J", code, mask(out), mask(err)
    for m0_path in _m0_files(directory):
        argv = ["evolve", path, "--m0", m0_path, "--t-final", "10", "--samples", "40"]
        code, out, err = _run(argv)
        yield mask(" ".join(["two-bath-chain", *argv])), code, mask(out), mask(err)
    for name, options in _oracle_models():
        _build_or_fail(path, name, options)
        runs = [["--t", "1", "--iso", iso] for iso in ISOS]
        if options:  # a preset at length 3 (or 2)
            runs.append(["--t", "60", "--iso", "E_BS"])
        for run in runs:
            argv = ["oracle-compare", path, *run]
            code, out, err = _run(argv)
            yield mask(" ".join([name, *options[1:], *argv])), code, mask(out), mask(err)


def main_digest(verbose: bool) -> str:
    digest = hashlib.sha256()
    tally: dict[int, int] = {}
    with tempfile.TemporaryDirectory() as directory:
        for label, code, out, err in cases(directory):
            case = hashlib.sha256()
            for part in (str(code), out, err):
                data = part.encode()
                case.update(len(data).to_bytes(8, "little") + data)
                digest.update(len(data).to_bytes(8, "little") + data)
            tally[code] = tally.get(code, 0) + 1
            if verbose:
                print(f"{code} {len(out.splitlines()):3d} lines  {case.hexdigest()[:12]}  {label}")
    print(f"{sum(tally.values())} cases, exit codes {dict(sorted(tally.items()))}")
    return digest.hexdigest()


if __name__ == "__main__":
    print(main_digest("-v" in sys.argv[1:]))
