#!/usr/bin/env python3
"""A/A report: run the same build as two sets and compare them.

For every workload and seed, runs the command from BENCHMARK.json with
``--trace 0`` and ``--seconds`` at its ``run_seconds``, once per set, back
to back, alternating which set runs first (the way parent and change runs
alternate), so drift in the host's speed reaches both sets alike. Then
prints, per end-to-end metric, each set's median, quartiles
(``statistics.quantiles(values, n=4)``) and spread (quartile distance over
the median), and whether the sets agree within the metric's bound: each
set's spread within the bound, and the medians apart by at most the bound
in either direction (``|a - b| / min(a, b)``).

Run from the repository root:

    python3 perfbench/aa.py --seeds 10
    python3 perfbench/aa.py --workloads analytics --seeds 5

Raw results go to ``.bench_out/aa-<time>.jsonl``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SETS = 2


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=180)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    kept = ("host:", "latency p50", "generator:", "setup cycles:", "server cpu", "failures:")
    notes = [l for l in lines[:-1] if l.startswith(kept)]
    return result, elapsed, notes


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N, one run per set each")
    parser.add_argument("--workloads", default="", help="comma-separated; default all")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = opts.workloads.split(",") if opts.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    seeds = list(range(1, opts.seeds + 1))

    subprocess.run(["cargo", "build", "--quiet", "--release", "--offline",
                    "--manifest-path", "perfbench/Cargo.toml"], check=True)
    os.makedirs(".bench_out", exist_ok=True)
    raw_path = time.strftime(".bench_out/aa-%Y%m%d-%H%M%S.jsonl")
    values = {}  # (set, workload, metric) -> [values]
    failures = []
    with open(raw_path, "w") as raw:
        turn = 0
        for seed in seeds:
            for w in workloads:
                order = list(range(SETS))
                if turn % 2:
                    order.reverse()
                turn += 1
                for s in order:
                    result, elapsed, notes = run_once(command, w, seed, seconds)
                    raw.write(json.dumps({"set": s + 1, "workload": w, "seed": seed,
                                          "elapsed_s": elapsed, "result": result,
                                          "notes": notes}) + "\n")
                    raw.flush()
                    if not result["correct"] or result["failed"]:
                        failures.append((s + 1, w, seed, result["correct"], result["failed"]))
                    for m in metrics:
                        values.setdefault((s, w, m["name"]), []).append(
                            result["metrics"][m["name"]]["value"])
                    print(f"set {s + 1} {w} seed {seed}: {elapsed:.1f} s, "
                          + ", ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                                      for m in metrics),
                          file=sys.stderr, flush=True)

    ok = not failures
    print(f"A/A report: {SETS} interleaved sets x seeds {seeds[0]}..{seeds[-1]} x {seconds} s; "
          f"raw results in {raw_path}")
    for w in workloads:
        print(f"\n== {w}")
        print(f"{'metric':<16} {'bound':>6}  " + "  ".join(
            f"{'set' + str(s + 1) + ' median [q1, q3] spread':>44}" for s in range(SETS)) + "  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cells, verdicts, meds = [], [], []
            for s in range(SETS):
                med, q1, q3, spread = summary(values[(s, w, name)])
                meds.append(med)
                cells.append(f"{med:>12.6g} [{q1:.6g}, {q3:.6g}] {spread:6.3f}")
                if spread > bound:
                    verdicts.append(f"set{s + 1} spread over bound")
                elif spread > bound / 3:
                    verdicts.append(f"set{s + 1} spread over bound/3")
            low = min(meds)
            moved = (max(meds) - low) / low if low else float("inf")
            if moved > bound:
                verdicts.append(f"medians {moved:.3f} apart")
            hard = [v for v in verdicts if "bound/3" not in v]
            ok &= not hard
            print(f"{name:<16} {bound:>6}  " + "  ".join(f"{c:>44}" for c in cells)
                  + "  " + ("; ".join(verdicts) if verdicts else "agree"))
    for f in failures:
        print(f"FAILED RUN: set {f[0]} {f[1]} seed {f[2]}: correct={f[3]} failed={f[4]}")
    print("\nverdict:", "all sets agree within the bounds" if ok else "DISAGREE (see above)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
