#!/usr/bin/env python3
"""Benchmark of sure-boundary: four workloads, end to end and layer by layer.

Usage, from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      one run of one workload; the last line of standard output is a JSON
      object with "correct", "attempted", "failed" and "metrics" (the
      end-to-end metrics with --trace 0, the per-layer metrics with --trace 1)
  python3 perfbench/run.py [--seed N] [--seconds S]
      every workload once, untraced
  python3 perfbench/run.py --trace 1
      every workload untraced and then traced twice: adds the tracing
      overhead and checks that the exact counts repeat
  python3 perfbench/run.py --smoke [--trace 1]
      every workload with one round of operations and all checks

Metric names and units come from BENCHMARK.json at the repository root.
Results and traces are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402 - after the path set-up above

SETUP_SAMPLES = 3
CHILD_TIMEOUT = 170
# counts the program makes that must be identical between two traced runs
EXACT_COUNTS = (
    "quadrature.tanh_sinh_unit.calls",
    "boundary.verify_domination.calls",
    "montecarlo.reps",
    "reports.canonical_json.bytes",
)


def load_definition() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def code_hash() -> str:
    digest = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(ROOT, "src", "sure_boundary", "**", "*"), recursive=True))
    files += sorted(glob.glob(os.path.join(HERE, "*.py")))
    for path in files:
        if os.path.isfile(path) and "__pycache__" not in path:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def _spawn_worker(name: str, seed: int, rounds: int, trace: int, smoke: bool, setup_only: bool):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(seed), "--rounds", str(rounds), "--trace", str(trace), "--out", OUT]
    if smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=workloads.cli_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if line.strip() != b"READY":
            raise RuntimeError(f"{name}: worker failed during set-up")
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: worker exited with status {proc.returncode}")
    return ready, rest


def setup_sample(name: str, seed: int, rounds: int, smoke: bool) -> float:
    """Seconds from a fresh interpreter to ready for the first operation."""
    if name == "cli_cold":
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "sure_boundary.cli", "--version"],
                              env=workloads.cli_env(), capture_output=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError("cli --version failed: " + proc.stderr.decode()[-300:])
        return elapsed
    return _spawn_worker(name, seed, rounds, 0, smoke, setup_only=True)[0]


def import_times(samples: int = 3) -> dict:
    """Cumulative import time of sure_boundary.cli and scipy.interpolate (-X importtime)."""
    found = {"sure_boundary.cli": [], "scipy.interpolate": []}
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sure_boundary.cli"],
                              env=workloads.cli_env(), capture_output=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT)
        for line in proc.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) * 1e-6)
    return {k: statistics.median(v) if v else 0.0 for k, v in found.items()}


def layer_metric(name: str, layers: dict, extra: dict) -> float:
    if name in extra:
        return extra[name]
    if name == "montecarlo.reps":
        return sum(layers.get(f"montecarlo.{fn}", {}).get("count", 0)
                   for fn in ("estimate_risk", "domination_mc"))
    span, _, field = name.rpartition(".")
    if field == "bytes":
        field = "count"
    return layers.get(span, {}).get(field, 0)


def run_workload(name: str, seed: int, seconds: int, trace: int, smoke: bool) -> dict:
    """One run; returns the result record that is printed and saved."""
    definition = load_definition()
    wl = workloads.WORKLOADS[name]
    rounds = workloads.rounds_for(wl, seconds, smoke)
    record = {"workload": name, "seed": seed, "seconds": seconds, "rounds": rounds,
              "smoke": smoke, "trace": trace, "code": code_hash()}
    setups = []
    if not trace:
        for _ in range(1 if smoke else SETUP_SAMPLES - (1 if wl.in_process else 0)):
            setups.append(setup_sample(name, seed, rounds, smoke))
    os.makedirs(OUT, exist_ok=True)
    ready, rest = _spawn_worker(name, seed, rounds, trace, smoke, setup_only=False)
    if wl.in_process and not trace:
        setups.append(ready)
    res = json.loads(rest.decode().strip().splitlines()[-1])
    times = res["op_times"]
    completed = res["attempted"] - res["raised"]
    ops_per_s = completed / sum(times)
    problems = res["problems"]
    if trace:
        extra = {"montecarlo.peak_traced_mb": res["peak_traced_mb"], "trace.ops_per_s": ops_per_s}
        imports = import_times()
        extra["cli.import_s"] = imports["sure_boundary.cli"]
        extra["cli.import_scipy_interpolate_s"] = imports["scipy.interpolate"]
        metrics = {m["name"]: {"value": layer_metric(m["name"], res["layers"], extra),
                               "unit": m["unit"]} for m in definition["per_layer"]}
        record["layers"] = res["layers"]
        problems += compare_with_earlier(record, metrics, ops_per_s)
    else:
        values = {"setup_s": statistics.median(setups), "ops_per_s": ops_per_s,
                  "op_s_p50": statistics.median(times), "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in definition["end_to_end"]}
        record["setup_samples"] = setups
    record.update({
        "correct": res["wrong"] == 0 and res["run_checks_failed"] == 0
        and record.get("counts_repeat", True),
        "attempted": res["attempted"],
        "failed": res["raised"] + res["wrong"],
        "metrics": metrics,
        "ops_per_s": ops_per_s,
        "op_times": times,
        "problems": problems,
    })
    suffix = ".trace.json" if trace else ".json"
    with open(os.path.join(OUT, name + suffix), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def _same_work(a: dict, b: dict) -> bool:
    keys = ("workload", "seed", "seconds", "rounds", "smoke", "code")
    return all(a.get(k) == b.get(k) for k in keys)


def compare_with_earlier(record: dict, metrics: dict, ops_per_s: float) -> list:
    """Tracing overhead against the last untraced run of the same work, and
    exact-count agreement with the last traced run of the same work."""
    problems = []
    base = os.path.join(OUT, record["workload"])
    for suffix, key in ((".json", "untraced"), (".trace.json", "traced")):
        try:
            with open(base + suffix, encoding="utf-8") as fh:
                earlier = json.load(fh)
        except (OSError, ValueError):
            continue
        if not _same_work(earlier, record):
            continue
        if key == "untraced":
            record["overhead"] = earlier["ops_per_s"] / ops_per_s - 1.0
        else:
            counts = {k: metrics[k]["value"] for k in EXACT_COUNTS if k in metrics}
            before = {k: earlier["metrics"][k]["value"] for k in counts}
            record["counts_repeat"] = counts == before
            if counts != before:
                problems.append(f"exact counts changed between traced runs: {before} -> {counts}")
    return problems


def print_record(rec: dict) -> None:
    for name, m in rec["metrics"].items():
        value = m['value'] if isinstance(m['value'], int) else f"{m['value']:.6g}"
        print(f"{rec['workload']:14s} {name:42s} {value} {m['unit']}")
    print(f"{rec['workload']:14s} attempted={rec['attempted']} failed={rec['failed']} "
          f"correct={rec['correct']}")
    if "overhead" in rec:
        print(f"{rec['workload']:14s} tracing adds {100 * rec['overhead']:+.1f} % time per operation")
    if "counts_repeat" in rec:
        print(f"{rec['workload']:14s} exact counts repeat: {rec['counts_repeat']}")
    for problem in rec["problems"]:
        print(f"{rec['workload']:14s} PROBLEM {problem}", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true", help="one round per workload")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "sure_boundary", "__init__.py")):
        print("perfbench: the program's source (src/sure_boundary) is missing", file=sys.stderr)
        return 2
    seconds = args.seconds or load_definition()["run_seconds"]

    if args.workload != "all":
        rec = run_workload(args.workload, args.seed, seconds, args.trace, args.smoke)
        print_record(rec)
        print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0

    records = []
    for name in workloads.WORKLOADS:
        runs = [0, 1, 1] if args.trace else [0]
        for trace in runs:
            rec = run_workload(name, args.seed, seconds, trace, args.smoke)
            print_record(rec)
            records.append(rec)
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {f"{r['workload']}.{k}": v for r in records if not r["trace"]
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
