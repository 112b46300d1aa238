"""fermicov benchmark: three closed-loop workloads over the CLI and the public library.

    python3 bench/run.py --workload stationary-ladder --seed 1 --seconds 27 --trace 0

Each run is one process with one client in a closed loop: the next op starts
when the previous one returns.  Ops run in whole rounds (see workloads.py)
until the summed op wall time reaches --seconds; each op's output is checked
against an independent reference outside the timed region.

Timings are CPU time of this process (time.process_time).  The ops are
single-threaded (BLAS is pinned to one thread), so on an idle machine this
equals wall time; on a shared virtual machine it leaves out the time the host
gives to other guests (CPU steal), which otherwise dominates the spread
between runs.  Each op's wall time is kept in the record.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every op untraced,
under the span recorder (spans.py) and under tracemalloc, and reports the
per-layer metrics and the tracing overhead.  The last line of standard output
is the result as one JSON object; a readable report precedes it, and the full
record (and, traced, the spans) goes to bench/out/.
"""

import os

BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy is imported anywhere

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench" / "out"
WORKLOAD_NAMES = ("stationary-ladder", "evolve-series", "oracle-verify")
SETUP_REPEATS = 3
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# Self times are reported for the spans that every workload enters; the traced
# table in the record has them for every span.
SHARED_SELF = ("cli.main", "cli.load_model", "lindblad.make_semigroup",
               "phase.convert_basis", "phase.validate", "quasifree.validate")


def per_layer_units() -> dict:
    units = {f"{name}.calls": "count" for name in spans.SPANS}
    units.update({f"{name}.self_ms": "ms" for name in SHARED_SELF})
    units.update({"phase.expm.dim_max": "count", "op.peak_alloc_mb": "MB", "trace.overhead_frac": "fraction"})
    return units


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="summed op time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt-reference", action="store_true",
                   help="self-check: perturb one reference value, which must count as a failure")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up


def setup(args, workdir: Path):
    """Import fermicov, write the seed's model files and warm up.

    Returns the CPU seconds of this process since it started, and the models.
    """
    workdir.mkdir(parents=True)
    import workloads  # imports fermicov from src/, so the import counts in set-up

    models = workloads.make_models(args.workload, args.seed, str(workdir))
    for op in workloads.warmup_ops(args.workload, models):
        outcome = workloads.execute(op)
        if outcome.rc != 0:
            raise SystemExit(f"warm-up op {op.argv} failed: {outcome.stderr.strip()}")
    return time.process_time(), models


def child_setup_seconds(args) -> list[float]:
    """Set-up time of fresh processes doing the same set-up (one per repeat)."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--setup-only"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"set-up repeat failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


# ---------------------------------------------------------------------------
# the closed loop


def _attempt(fn):
    try:
        return fn()
    except Exception:  # an op that raises is a failed op, not a crashed benchmark
        import workloads

        return workloads.Outcome(rc=-1, stderr=traceback.format_exc())


def _check(op, outcome, refs, corrupt):
    import workloads

    try:
        return workloads.check(op, outcome, refs, corrupt)
    except Exception:
        return "check raised: " + traceback.format_exc(limit=2)


def _plain(run):
    """Run an op untraced; returns (outcome, CPU seconds, wall seconds)."""
    wall, cpu = time.perf_counter(), time.process_time()
    outcome = _attempt(run)
    return outcome, time.process_time() - cpu, time.perf_counter() - wall


def _spanned(run, tracer):
    tracer.install()
    try:
        return _attempt(lambda: tracer.run_op(run))
    finally:
        tracer.uninstall()


def _allocations(run):
    tracemalloc.start()
    try:
        outcome = _attempt(run)
        return outcome, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def closed_loop(args, models, refs, tracer=None) -> list[dict]:
    """Run whole rounds until the summed wall time of the ops reaches args.seconds.

    With a tracer each op runs three times: untraced (its latency), under the
    span recorder, and under tracemalloc (its peak allocation).  The first two
    alternate in order from op to op, so that neither always finds the
    allocator warm; the measured time counts all three.
    """
    import workloads

    records, elapsed, index = [], 0.0, 0
    corrupt_pending = args.corrupt_reference
    while elapsed < args.seconds:
        for op in workloads.make_round(args.workload, args.seed, index, models):
            start = time.perf_counter()
            run = lambda: workloads.execute(op)  # noqa: E731
            spans_first = tracer is not None and len(records) % 2 == 1
            outcomes = [_spanned(run, tracer)] if spans_first else []
            outcome, seconds, wall_seconds = _plain(run)
            record = {"group": op.group, "model": Path(op.model.path).name,
                      "options": op.argv[2:] or [op.m0, op.iso],
                      "seconds": seconds, "wall_seconds": wall_seconds}
            if tracer is not None:
                if not spans_first:
                    outcomes.append(_spanned(run, tracer))
                allocated, record["peak_alloc_mb"] = _allocations(run)
                outcomes.append(allocated)
            elapsed += time.perf_counter() - start if tracer is not None else wall_seconds
            corrupt = corrupt_pending and workloads.has_reference_values(op)
            corrupt_pending = corrupt_pending and not corrupt
            errors = [_check(op, outcome, refs, corrupt)] + [_check(op, o, refs, False) for o in outcomes]
            record["error"] = next((e for e in errors if e), None)
            records.append(record)
        index += 1
    return records


# ---------------------------------------------------------------------------
# metrics and report


def latency_summary(seconds: list[float]) -> dict:
    lat = sorted(seconds)
    n = len(lat)
    rank = max(n - TAIL_BEYOND, 1)  # 1-based rank with TAIL_BEYOND samples beyond it
    return {
        "samples": n,
        "p50_ms": 1e3 * statistics.median(lat),
        "tail_ms": 1e3 * lat[rank - 1],
        "tail_percentile": 100.0 * rank / n,
        "tail_samples_beyond": n - rank,
    }


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_info(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "seed": args.seed,
    }


def emit(metrics: dict, units: dict, attempted: int, failed: int, correct: bool) -> None:
    for name, value in metrics.items():
        print(f"  {name:<34}{value:>16.6g} {units[name]}")
    print(f"  {'error_rate':<34}{failed / attempted:>16.6g} fraction ({failed} of {attempted} ops)")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fermicov" / "__init__.py").is_file():
        print(f"error: fermicov sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT / f"work-{os.getpid()}"
    try:
        setup_s, models = setup(args, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, setup_s, models)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, setup_s: float, models: dict) -> int:
    import workloads

    setup_samples = [setup_s] + (child_setup_seconds(args) if args.trace == 0 else [])
    refs = workloads.references(args.workload, models)
    tracer = spans.Tracer() if args.trace else None
    records = closed_loop(args, models, refs, tracer)

    attempted = len(records)
    errors = [r["error"] for r in records if r["error"]]
    lat = latency_summary([r["seconds"] for r in records])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_info(args), "setup_s_samples": setup_samples, "latency": lat,
        "attempted": attempted, "failed": len(errors), "error_rate": len(errors) / attempted,
        "errors": errors[:10], "ops": records,
    }
    print(f"fermicov benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={attempted} tail=p{lat['tail_percentile']:.1f}")
    print("  " + json.dumps(record["machine"]))
    for error in errors[:3]:
        print(f"  failed op: {error.strip()[:300]}")

    correct = not errors
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": attempted / sum(r["seconds"] for r in records),
            "latency_p50_ms": lat["p50_ms"],
            "latency_tail_ms": lat["tail_ms"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        per_op = tracer.per_op()
        table = spans.layer_table(per_op, [r["group"] for r in records])
        closure = tracer.closure_error()
        if closure > 1e-6:
            print(f"  span self times do not add up to the op time (relative gap {closure:.2e})")
            correct = False
        overhead = sum(op["total"] for op in per_op) / sum(r["wall_seconds"] for r in records) - 1
        units = per_layer_units()
        metrics = {}
        for name, unit in units.items():
            span, _, field = name.rpartition(".")
            if field in ("calls", "self_ms"):
                metrics[name] = table["all"]["spans"][span][field]
        metrics["phase.expm.dim_max"] = max(tracer.expm_dim)
        metrics["op.peak_alloc_mb"] = max(r["peak_alloc_mb"] for r in records)
        metrics["trace.overhead_frac"] = overhead
        record.update(layers=table, trace_overhead_frac=overhead, closure_error=closure)
        print(spans.format_table(table))
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(str(OUT / f"spans-{args.workload}-seed{args.seed}.json"))

    record["metrics"] = metrics
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    emit(metrics, units, attempted, len(errors), correct)
    return 0


if __name__ == "__main__":
    sys.exit(main())
