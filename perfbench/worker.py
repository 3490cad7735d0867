"""One benchmark process: set up a workload, run its operations, check them.

Usage: python perfbench/worker.py --workload NAME --seed N --rounds R
       [--trace 0|1] [--smoke] [--setup-only] [--out DIR]

Prints ``READY`` once set-up is done (imports plus the workload's one-time
preparation), then, unless --setup-only, runs every operation in order (a
closed loop with one client), checks each output outside the timed part, and
prints one JSON line with the timings, counts and problems found.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tr = None
    if args.trace:
        import tracer

        tr = tracer.Tracer()
        tr.install()
    # CLI children record their own spans, so they need to know where
    kwargs = {"traced": bool(args.trace), "out_dir": args.out} if not wl.in_process else {}
    plan = wl.prepare(args.seed, args.rounds, args.smoke, **kwargs)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    import oracles  # noqa: F401 - load the reference code outside the timed part

    track_memory = tr is not None and args.workload == "mc_risk"
    if track_memory:
        import tracemalloc

        tracemalloc.start()
    op_times, raised, problems, wrong = [], 0, [], 0
    peak_traced = 0
    for op in plan.ops:
        if track_memory:
            tracemalloc.reset_peak()
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception:  # noqa: BLE001 - a raising operation counts as failed
            op_times.append(time.perf_counter() - t0)
            raised += 1
            problems.append(f"{op.label}: raised {traceback.format_exc(limit=2)[-400:]}")
            continue
        op_times.append(time.perf_counter() - t0)
        if track_memory:
            peak_traced = max(peak_traced, tracemalloc.get_traced_memory()[1])
        if tr is not None:
            tr.enabled = False  # calls the checks make are not the workload's
        try:
            found = op.check(result)
        except Exception:  # noqa: BLE001 - a check that cannot read the output
            found = [f"check raised {traceback.format_exc(limit=2)[-400:]}"]
        if tr is not None:
            tr.enabled = True
        if found:
            wrong += 1
            problems += [f"{op.label}: {msg}" for msg in found]
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    if track_memory:
        tracemalloc.stop()
    if tr is not None:
        tr.enabled = False
    final = plan.final_check()
    problems += [f"run: {msg}" for msg in final]

    out = {
        "attempted": len(plan.ops),
        "raised": raised,
        "wrong": wrong,
        "run_checks_failed": len(final),
        "problems": problems[:20],
        "op_times": op_times,
        "peak_rss_mb": peak_rss_mb,
    }
    if tr is not None:
        out["layers"] = layer_stats(tr, plan, args.out, args.workload)
        out["peak_traced_mb"] = peak_traced / 2**20
    print(json.dumps(out), flush=True)
    return 0


def layer_stats(tr, plan, out_dir: str, name: str) -> dict:
    """Aggregate the spans of this process and of traced CLI children."""
    import tracer

    runs = [tr.spans]
    for path in plan.state.get("spans", []):
        with open(path, encoding="utf-8") as fh:
            runs.append([tuple(s) for s in json.load(fh)])
        os.remove(path)
    if out_dir:
        with open(os.path.join(out_dir, f"{name}.spans.json"), "w", encoding="utf-8") as fh:
            json.dump(runs, fh, separators=(",", ":"))
    return tracer.merge([tracer.aggregate(spans) for spans in runs])


if __name__ == "__main__":
    sys.exit(main())
