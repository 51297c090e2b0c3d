#!/usr/bin/env python3
"""A/B report: the working tree against a base revision on BENCHMARK.json.

Extracts ``--base`` with ``git archive`` into ``.bench_out/ab/<sha>/`` (kept
for later runs), builds perfbench in that tree and in the working tree, then
runs each tree's own ``perfbench/target/release/perfbench`` from that tree's
root with the arguments BENCHMARK.json's command passes after ``--``, plus
``--seconds`` at its ``run_seconds`` and ``--trace 0``: one run per side per
seed, alternating which side runs first from one seed to the next. Running
the built executables, not the command's ``cargo run``, keeps a source edit
made during the runs from being rebuilt into them; if either executable
changes after its build all the same, the report stops with an error.

For each workload and end-to-end metric it prints each side's median
[q1, q3] (``statistics.quantiles(values, n=4)``), the change in % of the
base median, the metric's bound, the pairs the change won (ties count for
neither side) and a verdict:

* ``worse``: the change's median is worse than the base's by more than the
  bound;
* ``unresolved``: either side's quartile spread over its median exceeds the
  bound, and not every change run beats every base run;
* ``gain``: the change won at least 9 in 10 pairs and the medians differ, in
  the better direction, by more than the base's quartile distance;
* ``no worse``: otherwise.

Under ``cpu_us_per_op`` it prints each side's median raw CPU per operation
and median host speed, read from the note lines perfbench prints on stdout
(``cpu per fit … us at host speed …`` on ``fit``, ``server cpu … us per
request … at host speed …`` on the serving workloads). ``cpu_us_per_op`` is
the raw CPU divided by the host speed, so a host slow spell can move it on
one side of a pair alone; it marks each pair whose two speed readings differ
by more than ``cpu_us_per_op``'s bound (the larger over the smaller). The
verdicts do not use either figure.

It also prints the failed operations of each side and any run whose output
checks failed. Run from the repository root:

    python3 tools/ab.py --base HEAD --seeds 10
    python3 tools/ab.py --base main --seeds 11 --workloads analytics,federated

Raw results go to ``.bench_out/ab-<time>.jsonl``, one line per run with the
executable's path and modification time and perfbench's note lines.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

SIDES = ("base", "change")


def extract(rev):
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    root = os.path.join(".bench_out", "ab", sha)
    if not os.path.isdir(root):
        tmp = root + ".tmp"
        os.makedirs(tmp, exist_ok=True)
        archive = subprocess.run(["git", "archive", sha], capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        os.rename(tmp, root)
    return sha, os.path.abspath(root)


def build(root):
    """Build perfbench in ``root``; return its executable and the
    executable's modification time in ns. ``CARGO_TARGET_DIR`` is dropped
    so that each tree builds into its own ``perfbench/target``."""
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    subprocess.run(["cargo", "build", "--quiet", "--release", "--offline",
                    "--manifest-path", "perfbench/Cargo.toml"], cwd=root, env=env, check=True)
    exe = os.path.join(root, "perfbench", "target", "release", "perfbench")
    return exe, os.stat(exe).st_mtime_ns


def check_unchanged(exe, mtime_ns):
    now = os.stat(exe).st_mtime_ns
    if now != mtime_ns:
        raise RuntimeError(f"{exe} changed after its build (mtime {mtime_ns} ns, now {now} ns)")


def run_once(command, root, workload, seed, seconds):
    """Run perfbench once; return its result object (the last stdout
    line), the stdout lines before it, and the wall seconds taken."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(args, cwd=root, capture_output=True, text=True, timeout=300)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: {workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), lines[:-1], elapsed


# perfbench's note lines that carry the raw CPU per operation and the host
# speed it is divided by: the fit workload's, then the serving workloads'.
RAW_CPU_NOTES = (
    re.compile(r"\bcpu per fit ([0-9.]+) us at host speed ([0-9.]+)"),
    re.compile(r"^server cpu ([0-9.]+) us per request\b.*? at host speed ([0-9.]+)"),
)


def raw_cpu_and_speed(notes):
    """(raw CPU in us per operation, host speed) from a run's note lines,
    or None when no line carries them."""
    for line in notes:
        for pattern in RAW_CPU_NOTES:
            found = pattern.search(line)
            if found:
                return float(found.group(1)), float(found.group(2))
    return None


def host_lines(base, change, seeds, bound):
    """The lines printed under ``cpu_us_per_op``: each side's median raw
    CPU and host speed, and the pairs whose two speed readings differ by
    more than ``bound``. ``base[i]`` and ``change[i]`` are seed ``seeds[i]``'s
    ``raw_cpu_and_speed`` readings."""
    def medians(readings, k):
        known = [r[k] for r in readings if r is not None]
        return f"{statistics.median(known):.6g}" if known else "n/a"

    lines = [f"{'  raw cpu':<14} {medians(base, 0):<40} {medians(change, 0):<40} "
             "medians, us per op before dividing by the host speed",
             f"{'  host speed':<14} {medians(base, 1):<40} {medians(change, 1):<40} medians"]
    apart = [f"seed {seed} ({b[1]:.4g} vs {c[1]:.4g})"
             for seed, b, c in zip(seeds, base, change)
             if b is not None and c is not None and max(b[1], c[1]) > (1 + bound) * min(b[1], c[1])]
    if apart:
        lines.append(f"  host speeds more than {bound:.0%} apart: " + ", ".join(apart))
    return lines


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(base, change, better, bound):
    """Judge one metric over paired runs (``base[i]`` and ``change[i]``
    share a seed)."""
    sign = 1 if better == "lower" else -1
    b_med, b_q1, b_q3 = quartiles(base)
    c_med, c_q1, c_q3 = quartiles(change)
    wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
    worse_by = sign * (c_med - b_med) / b_med if b_med else 0.0
    spread = max((q3 - q1) / med if med else 0.0
                 for med, q1, q3 in ((b_med, b_q1, b_q3), (c_med, c_q1, c_q3)))
    separated = all(sign * (b - c) > 0 for b in base for c in change)
    if worse_by > bound:
        word = "worse"
    elif spread > bound and not separated:
        word = "unresolved"
    elif wins * 10 >= 9 * len(base) and sign * (b_med - c_med) > b_q3 - b_q1:
        word = "gain"
    else:
        word = "no worse"
    return (b_med, b_q1, b_q3), (c_med, c_q1, c_q3), wins, word


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N, one pair each")
    parser.add_argument("--workloads", default="", help="comma-separated; default all")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    passed = bench["command"][bench["command"].index("--") + 1:]
    seconds = bench["run_seconds"]
    workloads = opts.workloads.split(",") if opts.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    seeds = list(range(1, opts.seeds + 1))

    sha, base_root = extract(opts.base)
    roots = {"base": base_root, "change": os.path.abspath(".")}
    built = {side: build(roots[side]) for side in SIDES}
    os.makedirs(".bench_out", exist_ok=True)
    raw_path = time.strftime(".bench_out/ab-%Y%m%d-%H%M%S.jsonl")
    values = {}  # (side, workload, metric) -> [value per seed]
    host = {}  # (side, workload) -> [raw_cpu_and_speed per seed]
    failed = {}  # (side, workload) -> failed operations
    broken = []
    with open(raw_path, "w") as raw:
        turn = 0
        for seed in seeds:
            for w in workloads:
                order = SIDES if turn % 2 == 0 else SIDES[::-1]
                turn += 1
                for side in order:
                    exe, mtime_ns = built[side]
                    check_unchanged(exe, mtime_ns)
                    result, notes, elapsed = run_once([exe] + passed, roots[side], w, seed, seconds)
                    check_unchanged(exe, mtime_ns)
                    raw.write(json.dumps({"side": side, "rev": sha if side == "base" else "worktree",
                                          "exe": exe, "exe_mtime_ns": mtime_ns,
                                          "workload": w, "seed": seed, "first": order[0],
                                          "elapsed_s": elapsed, "result": result,
                                          "notes": notes}) + "\n")
                    raw.flush()
                    host.setdefault((side, w), []).append(raw_cpu_and_speed(notes))
                    failed[(side, w)] = failed.get((side, w), 0) + result["failed"]
                    if not result["correct"]:
                        broken.append((side, w, seed))
                    for m in metrics:
                        values.setdefault((side, w, m["name"]), []).append(
                            result["metrics"][m["name"]]["value"])
                    print(f"{side} {w} seed {seed}: {elapsed:.1f} s, failed {result['failed']}, "
                          + ", ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                                      for m in metrics),
                          file=sys.stderr, flush=True)

    print(f"A/B report: base {sha[:12]} vs working tree, seeds {seeds[0]}..{seeds[-1]}, "
          f"{seconds} s per run, sides alternating first; raw results in {raw_path}")
    worst = []
    for w in workloads:
        print(f"\n== {w}  (failed operations: base {failed[('base', w)]}, "
              f"change {failed[('change', w)]})")
        print(f"{'metric':<14} {'base median [q1, q3]':<40} {'change median [q1, q3]':<40} "
              f"{'change':>8} {'bound':>6} {'won':>6}  verdict")
        for m in metrics:
            name = m["name"]
            b, c, wins, word = verdict(values[("base", w, name)], values[("change", w, name)],
                                       m["better"], m["bound"])
            pct = 100.0 * (c[0] - b[0]) / b[0] if b[0] else 0.0
            if word in ("worse", "unresolved"):
                worst.append(f"{w} {name}: {word}")
            cells = [f"{med:.6g} [{q1:.6g}, {q3:.6g}]" for med, q1, q3 in (b, c)]
            print(f"{name:<14} {cells[0]:<40} {cells[1]:<40} {pct:>+7.1f}% {m['bound']:>6} "
                  f"{wins:>3}/{len(seeds):<2}  {word}")
            if name == "cpu_us_per_op":
                for line in host_lines(host[("base", w)], host[("change", w)], seeds, m["bound"]):
                    print(line)
        if failed[("change", w)] > failed[("base", w)]:
            worst.append(f"{w}: more failed operations on the change")
    for side, w, seed in broken:
        worst.append(f"{side} {w} seed {seed}: output checks failed")
    print("\nverdict:", "; ".join(worst) if worst else "no metric worse or unresolved")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
