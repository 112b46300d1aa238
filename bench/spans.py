"""Span recorder for the traced run.

Wraps fermicov's public functions from outside the package: every fermicov
module (and class) that holds a traced function gets a wrapper in its place,
because ``cli`` and ``lindblad`` bind names with ``from ... import``.  A span
is (op, name, start, end, parent); spans stay in memory and are written out
when the run ends.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time

#: Span name -> the functions it wraps, as (module, attribute path).
SPANS = {
    "cli.main": [("fermicov.cli", "main")],
    "cli.load_model": [("fermicov.cli", "load_model")],
    "models.build": [("fermicov.models", f) for f in
                     ("two_bath_chain", "xy_chain", "thermalization_model", "star_model")],
    "lindblad.make_semigroup": [("fermicov.lindblad", "make_semigroup")],
    "lindblad.lift_gauge_invariant": [("fermicov.lindblad", "lift_gauge_invariant")],
    "lindblad.ergodicity": [("fermicov.lindblad", "ergodicity")],
    "lindblad.stationary": [("fermicov.lindblad", "stationary")],
    "lindblad.propagate": [("fermicov.lindblad", "propagate")],
    "phase.convert_basis": [("fermicov.phase", "convert_basis")],
    "phase.expm": [("fermicov.phase", "expm")],
    "phase.validate": [("fermicov.phase", "HamiltonianMatrix.validate"),
                       ("fermicov.phase", "CouplingMatrix.validate")],
    "quasifree.validate": [("fermicov.quasifree", "CovarianceMatrix.validate"),
                           ("fermicov.quasifree", "SmallCovarianceMatrix.validate")],
    "quasifree.small_from_full": [("fermicov.quasifree", "small_from_full")],
    "fock.quasifree_state": [("fermicov.fock", "quasifree_state")],
    "fock.covariance_of": [("fermicov.fock", "covariance_of")],
    "fock.quadratic_hamiltonian": [("fermicov.fock", "quadratic_hamiltonian")],
    "oracle.build_lindbladian": [("fermicov.oracle", "build_lindbladian")],
    "oracle.superoperator": [("fermicov.oracle", "superoperator")],
    "oracle.evolve_dense": [("fermicov.oracle", "evolve_dense")],
}
ROOT_SPAN = "op"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [op, name, start, end, parent index]
        self.expm_dim: list[int] = []  # largest expm argument of each op
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._op = -1

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._op, name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "phase.expm":
                self.expm_dim[-1] = max(self.expm_dim[-1], len(args[0]))
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def run_op(self, fn):
        """Call ``fn()`` as one op under a root span and return its result."""
        self._op += 1
        self.expm_dim.append(0)
        index = self._open(ROOT_SPAN)
        try:
            return fn()
        finally:
            self._close(index)

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "fermicov" or name.startswith("fermicov.")]
        for name, targets in SPANS.items():
            for module, attr in targets:
                owner_name, _, leaf = attr.rpartition(".")
                owner = sys.modules[module]
                if owner_name:
                    owner = getattr(owner, owner_name)
                    original = owner.__dict__[leaf]
                    self._patch(owner, leaf, original, self._wrap(name, original))
                    continue
                original = getattr(owner, leaf)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- reports ---------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [end - start for _, _, start, end, _ in self.spans]
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def per_op(self) -> list[dict]:
        """For each op: {span name: [calls, self seconds]} and the root duration."""
        ops = [{"spans": {}, "total": 0.0} for _ in range(self._op + 1)]
        for (op, name, start, end, _), own in zip(self.spans, self.self_times()):
            entry = ops[op]["spans"].setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += own
            if name == ROOT_SPAN:
                ops[op]["total"] = end - start
        return ops

    def closure_error(self) -> float:
        """Largest relative gap between an op's summed self times and its root duration."""
        worst = 0.0
        for op in self.per_op():
            summed = sum(own for _, own in op["spans"].values())
            worst = max(worst, abs(summed - op["total"]) / max(op["total"], 1e-12))
        return worst

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["op", "name", "start", "end", "parent"], "spans": self.spans}, fh)


def layer_table(per_op: list[dict], groups: list[str]) -> dict:
    """{group: {span name: {"calls": per op, "self_ms": per op}}}, plus group "all"."""
    table = {}
    for group in sorted(set(groups)) + ["all"]:
        members = [op for op, g in zip(per_op, groups) if group in ("all", g)]
        rows = {}
        for name in list(SPANS) + [ROOT_SPAN]:
            calls = sum(op["spans"].get(name, [0, 0.0])[0] for op in members)
            own = sum(op["spans"].get(name, [0, 0.0])[1] for op in members)
            rows[name] = {"calls": calls / len(members), "self_ms": 1e3 * own / len(members)}
        table[group] = {"ops": len(members), "spans": rows}
    return table


def format_table(table: dict) -> str:
    lines = []
    for group, block in table.items():
        lines.append(f"-- {group} ({block['ops']} ops)")
        lines.append(f"   {'span':<32}{'calls/op':>12}{'self_ms/op':>14}")
        for name, row in block["spans"].items():
            if row["calls"] or group == "all":
                lines.append(f"   {name:<32}{row['calls']:>12.2f}{row['self_ms']:>14.3f}")
    return "\n".join(lines)
