"""Repeat the benchmark over seeds and record medians and spreads.

    python3 bench/baseline.py --label baseline --seeds 1-10

Runs bench/run.py for --seconds = run_seconds of BENCHMARK.json, once per
workload and seed with tracing off, then once per workload with tracing on
(first seed), one process at a time.  Writes
bench/results/BENCH_<label>.json with, for every end-to-end metric, the values
of all seeds, their median, quartiles and spread (interquartile range over
median, from ``statistics.quantiles(values, n=4)``), the latency quartiles of
each op group over all seeds, and the traced per-layer table.  Prints each
spread next to a third of the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    record = json.loads((ROOT / "bench" / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    record["result"] = json.loads(proc.stdout.splitlines()[-1])
    return record


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", default="1-10", help="range 1-10 or list 1,2,3")
    args = p.parse_args()
    seeds = seed_list(args.seeds)
    seconds = SPEC["run_seconds"]

    doc = {"label": args.label, "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        records = []
        for seed in seeds:
            records.append(run(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: " + json.dumps(records[-1]["result"]["metrics"]), flush=True)
        traced = run(workload, seeds[0], seconds, 1)
        doc.setdefault("machine", records[0]["machine"])
        entry = {
            "attempted": [r["attempted"] for r in records],
            "failed": [r["failed"] for r in records],
            "tail_percentile": [r["latency"]["tail_percentile"] for r in records],
            "end_to_end": {},
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "layers": traced["layers"],
            "group_latency_ms": {},
        }
        groups = {}
        for r in records:
            for op in r["ops"]:
                groups.setdefault(op["group"], []).append(1e3 * op["seconds"])
        for group, values in sorted(groups.items()):
            q1, median, q3 = statistics.quantiles(values, n=4)
            entry["group_latency_ms"][group] = {"ops": len(values), "median": median, "q1": q1, "q3": q3}
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            entry["end_to_end"][name] = {"unit": metric["unit"],
                                         **summarize([r["metrics"][name] for r in records])}
        doc["workloads"][workload] = entry

    out = ROOT / "bench" / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"\nwrote {out.relative_to(ROOT)}")
    print(f"{'workload':<20}{'metric':<18}{'median':>12}{'spread':>9}{'bound/3':>9}")
    for workload, entry in doc["workloads"].items():
        for metric in SPEC["end_to_end"]:
            stats = entry["end_to_end"][metric["name"]]
            flag = "" if stats["spread"] < metric["bound"] / 3 else "  <-- wide"
            print(f"{workload:<20}{metric['name']:<18}{stats['median']:>12.5g}{stats['spread']:>9.3f}"
                  f"{metric['bound'] / 3:>9.3f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
