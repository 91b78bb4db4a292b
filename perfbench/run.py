#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the MI6 reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload paper-cold --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py                       # every workload, untraced

The script builds `perfbench/` (a Cargo package of its own that depends on
the repository's crates by path) into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs the workload's repetitions, each in a fresh
process on one worker thread, for about `--seconds` seconds:

* `--trace 0`: untraced repetitions. Host noise on a shared machine only
  ever slows a repetition down, so host times are the run's fastest:
  `wall_s` sums each point's fastest time over the repetitions plus the
  fastest remainder (planning, warm phase, driver, rendering), `sim_kips`
  divides by that `wall_s`, and `setup_s` is the fastest set-up. The other
  metrics are medians over the repetitions.
* `--trace 1`: pairs of one untraced repetition and one traced replay of
  the same points; the per-layer metrics are medians over the replays and
  `trace.overhead_pct` compares the two walls. Each replay's spans are
  written to `.bench_out/`.

Every repetition checks its points and prints a digest of their simulated
statistics; a run is correct only when no point failed and every
repetition, traced or not, produced the same digest. The last stdout line
is one JSON object, `{"correct", "attempted", "failed", "metrics"}`, and it
is checked against `BENCHMARK.json` before it is printed: every declared
metric exactly once, with its declared unit and a finite value. A line that
fails the check is not printed and the script exits 3.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-cold", "paper-forkbase", "enclave-attack")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Repetitions still running this long after a workload's run started are
# treated as hung and stopped, so the run ends inside three minutes.
RUN_LIMIT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def declared_metrics(trace):
    """The metric name -> unit table BENCHMARK.json declares for a mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def _unique_object(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ValueError(f"key {key!r} appears more than once")
        seen[key] = value
    return seen


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def validate_result_line(line, declared):
    """Problems with one result line against `declared` (name -> unit).

    An empty list means the line is one JSON object with exactly the
    result keys, whole-number counts, and every declared metric exactly
    once with its declared unit and a finite value.
    """
    try:
        obj = json.loads(line, object_pairs_hook=_unique_object)
    except ValueError as e:
        return [f"not a well-formed JSON object: {e}"]
    if not isinstance(obj, dict):
        return ["not a JSON object"]
    problems = []
    if set(obj) != RESULT_KEYS:
        problems.append(f"keys are {sorted(obj)}, expected {sorted(RESULT_KEYS)}")
    if not isinstance(obj.get("correct"), bool):
        problems.append("`correct` is not a boolean")
    attempted, failed = obj.get("attempted"), obj.get("failed")
    if not (isinstance(attempted, int) and not isinstance(attempted, bool) and attempted >= 1):
        problems.append("`attempted` is not a whole number of at least 1")
    if not (isinstance(failed, int) and not isinstance(failed, bool) and failed >= 0):
        problems.append("`failed` is not a whole number")
    metrics = obj.get("metrics")
    if not isinstance(metrics, dict):
        return problems + ["`metrics` is not an object"]
    for name in sorted(set(declared) - set(metrics)):
        problems.append(f"metric {name} missing")
    for name in sorted(set(metrics) - set(declared)):
        problems.append(f"metric {name} not declared")
    for name, m in metrics.items():
        if name not in declared:
            continue
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append(f"metric {name} is not {{value, unit}}")
            continue
        if m["unit"] != declared[name]:
            problems.append(f"metric {name} has unit {m['unit']!r}, declared {declared[name]!r}")
        if not (_is_number(m["value"]) and math.isfinite(m["value"])):
            problems.append(f"metric {name} has no finite value: {m['value']!r}")
    return problems


def build():
    """Builds the benchmark binary; returns its path or None."""
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(target, "release", "mi6-perfbench")


def run_rep(binary, workload, seed, deadline, spans=None):
    """One repetition in its own process, stopped at `deadline` (monotonic
    seconds): (parsed JSON line or None, stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if spans:
        cmd += ["--trace-out", spans]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"{workload}: repetition still running {RUN_LIMIT_S}s into the run")
        return None, ""
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{workload}: repetition exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return None, proc.stdout
    try:
        return json.loads(lines[-1]), proc.stdout
    except ValueError:
        log(f"{workload}: unreadable repetition output: {lines[-1][:200]}")
        return None, proc.stdout


def complete(rep, declared):
    """Whether a repetition finished with every metric it owes, finite."""
    if rep is None:
        return False
    metrics = rep.get("metrics", {})
    return all(isinstance(metrics.get(n), dict) and _is_number(metrics[n].get("value"))
               and math.isfinite(metrics[n]["value"]) for n in declared)


def best_wall(reps):
    """A run's fastest grid wall: each point's fastest time over `reps`,
    summed, plus the fastest remainder of a repetition's wall. A workload
    without per-point times gets its fastest wall."""
    points = [r["point_s"] for r in reps]
    if len({len(p) for p in points}) != 1:
        points = [[] for _ in reps]
    rest = min(r["metrics"]["wall_s"]["value"] - sum(p) for r, p in zip(reps, points))
    return rest + sum(min(times) for times in zip(*points))


def measure(binary, workload, seed, seconds, trace):
    """Repeats the workload for about `seconds` and aggregates a result."""
    declared = declared_metrics(trace)
    e2e = declared_metrics(False)
    untraced, traced, crashed, layer_text = [], [], 0, ""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    while True:
        rep, _ = run_rep(binary, workload, seed, deadline)
        crashed += rep is None
        untraced.append(rep)
        if trace:
            spans = os.path.join(ROOT, ".bench_out",
                                 f"{workload}-seed{seed}-rep{len(traced)}.spans.jsonl")
            rep, out = run_rep(binary, workload, seed, deadline, spans)
            crashed += rep is None
            traced.append(rep)
            marker = f"=== {workload}: layer self time"
            if marker in out:
                head, _, tail = out[out.index(marker):].partition("top layers:")
                layer_text = head + "top layers:" + tail.splitlines()[0]
        elapsed = time.monotonic() - start
        # Start another repetition only if it should end within the budget.
        if elapsed + elapsed / len(untraced) > seconds:
            break

    reps = [r for r in untraced + traced if r is not None]
    digests = sorted({r["digest"] for r in reps})
    failures = [f for r in reps for f in r["failures"]]
    per_rep = max([r["attempted"] for r in reps], default=1)
    attempted = sum(r["attempted"] for r in reps) + crashed * per_rep
    failed = sum(r["failed"] for r in reps) + crashed * per_rep
    if len(digests) > 1:
        failures.append(f"repetitions disagree on the digest: {digests}")
    correct = crashed == 0 and failed == 0 and not failures and len(digests) == 1

    complete_untraced = [r for r in untraced if complete(r, e2e)]
    if trace:
        pool = [r for r in traced if complete(r, set(declared) - {"trace.overhead_pct"})]
    else:
        pool = complete_untraced
    metrics = {}
    for name in declared:
        values = [r["metrics"][name]["value"] for r in pool if name in r["metrics"]]
        if values:
            metrics[name] = {"value": statistics.median(values),
                             "unit": pool[0]["metrics"][name]["unit"]}
    if not trace and pool:
        # Host noise only adds time, so host times are the run's fastest.
        m = [r["metrics"] for r in pool]
        wall = best_wall(pool)
        kinst = statistics.median(x["sim_kips"]["value"] * x["wall_s"]["value"] for x in m)
        metrics["wall_s"]["value"] = wall
        metrics["sim_kips"]["value"] = kinst / wall
        metrics["setup_s"]["value"] = min(x["setup_s"]["value"] for x in m)
    if trace and pool and complete_untraced:
        wall = statistics.median(r["metrics"]["wall_s"]["value"] for r in complete_untraced)
        traced_wall = metrics["trace.wall_s"]["value"]
        metrics["trace.overhead_pct"] = {"value": (traced_wall / wall - 1.0) * 100.0, "unit": "%"}

    print(f"\n# {workload} seed {seed}: {len(untraced)} untraced"
          + (f" + {len(traced)} traced" if trace else "")
          + f" repetition(s) in {time.monotonic() - start:.1f}s, digest {','.join(digests)}")
    for f in failures[:20]:
        print(f"  FAILED: {f}")
    if layer_text:
        print(layer_text.strip("\n"))
    for name, m in metrics.items():
        print(f"  {name:<22} {m['value']:>14.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0,
                   help="seed index: 0 is mi6_bench::DEFAULT_SEED, n > 0 its n-th derived seed")
    p.add_argument("--seconds", type=float, default=60)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be at least 0")

    try:
        declared = declared_metrics(args.trace)
    except (OSError, ValueError, KeyError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1
    binary = build()
    if binary is None:
        log("build failed")
        return 1
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    for w in workloads:
        result = measure(binary, w, args.seed, args.seconds, args.trace)
        line = json.dumps(result)
        problems = validate_result_line(line, declared)
        if problems:
            log(f"{w}: result does not match BENCHMARK.json: " + "; ".join(problems))
            return 3
        lines.append(line)
    sys.stdout.flush()
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
