"""stablegap benchmark: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 10 --trace 0

Each run times the package's set-up in fresh processes, then runs the
workload's operations closed-loop (one caller, back to back) in one more
fresh process with the BLAS thread count pinned, checks every output, and
prints one JSON object as the last line of standard output. `--trace 0`
reports the end-to-end metrics; `--trace 1` reports the per-layer metrics of
a traced pass. The full record of the run is written under perfbench/out/.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 5
BLAS_THREADS = 2
# every run must end within 180 s; leave room for the set-up probes
WORKER_TIMEOUT_S = 160
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env():
    """Environment for child processes: BLAS pools pinned before numpy loads."""
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env = dict(os.environ)
    env.update({v: threads for v in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def measure_setup(env):
    """Seconds from process start until stablegap is imported and set up."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, WORKER, "--probe"], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
        samples.append(t1 - t0)
    return samples


def run_worker(args, env, out_path, deadline):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_path]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("workload process timed out")
    if rc != 0:
        raise RuntimeError(f"workload process exited with code {rc}")
    with open(out_path, encoding="utf-8") as f:
        return json.load(f)


def percentile_with_tail(samples, tail=10):
    """(percent, value) of the highest percentile with at least `tail` samples
    beyond it, or None when there are too few samples."""
    n = len(samples)
    if n <= tail:
        return None
    return 100.0 * (n - tail) / n, sorted(samples)[n - tail - 1]


def end_to_end(rec, setup):
    walls = [p["wall_s"] for p in rec["passes"]]
    rec["wall_summary"] = {"median_s": statistics.median(walls), "samples": len(walls),
                           "percentile_with_10_beyond": percentile_with_tail(walls)}
    rec["setup_samples_s"] = setup
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": rec["peak_rss_mb"],
    }


def per_layer(rec):
    """Layer totals of the traced pass, plus the ROADMAP baseline facts of the
    untraced pass; 0 where the workload does not reach the layer."""
    plain = rec["passes"][0]["facts"]
    m = dict(rec["layers"])
    rows = {r["n"]: r for r in plain.get("ladder", [])}
    for n in (32, 64, 128, 256):
        m[f"eigensolver.ladder.n{n}.s"] = rows[n]["s"] if n in rows else 0.0
        m[f"eigensolver.ladder.n{n}.err"] = rows[n]["err"] if n in rows else 0.0
    m["eigensolver.lambda1_s_to_1e-3"] = plain.get("lambda1_s_to_1e-3") or 0.0
    m["steklov.gap_identity_rel_err"] = plain.get("gap_identity_rel_err") or 0.0
    rl = plain.get("rect_lambda1", {})
    for a, b in (("16", "24"), ("24", "32")):
        m[f"eigensolver.rect_delta.n{a}_n{b}"] = rl[a] - rl[b] if a in rl and b in rl else 0.0
    m["trace.overhead_s"] = rec["trace_overhead_s"]
    return m


def select(values, declared):
    """The metrics BENCHMARK.json declares, with their units, in its order."""
    missing = [d["name"] for d in declared if d["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "stablegap", "__init__.py")):
        sys.stderr.write("error: run from a stablegap checkout (no src/stablegap here)\n")
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = worker_env()
    out_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    try:
        setup = measure_setup(env) if args.trace == 0 else []
        rec = run_worker(args, env, out_path, start + WORKER_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    ops = [op for p in rec["passes"] for op in p["ops"]]
    failed = [op for op in ops if op["failures"]]
    rec["ops_attempted"] = len(ops)
    rec["ops_failed_share"] = len(failed) / len(ops)
    selftest_ok = rec.get("selftest", {}).get("ok", True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)["end_to_end" if args.trace == 0 else "per_layer"]
    values = end_to_end(rec, setup) if args.trace == 0 else per_layer(rec)
    rec["all_metrics"] = values
    try:
        metrics = select(values, declared)
    except RuntimeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    rec["metrics"] = metrics
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(rec, f, indent=1, sort_keys=True)

    for op in failed:
        print(f"FAILED {op['id']}: {'; '.join(op['failures'])}")
    if not selftest_ok:
        print(f"FAILED tracer self-test: {json.dumps(rec['selftest'])}")
    print(f"record: {os.path.relpath(out_path, ROOT)}")
    result = {
        "correct": not failed and selftest_ok,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
