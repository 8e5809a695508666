"""One workload in a fresh process; started by run.py, not by hand.

    python3 perfbench/worker.py --probe
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out FILE

`--probe` imports stablegap from ./src, finishes its lazy set-up, prints
"ready" and exits; run.py times that from process start. Otherwise the
worker runs closed-loop passes of the workload's operations and writes a
JSON record to FILE. With `--trace 1` it runs one untraced pass, then one
traced pass, and self-tests the tracer: the outputs of both passes (CLI JSON,
or a digest of a library result) must be byte-identical and every wrapped attribute must be the original object
again afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")


def load_package():
    """Import stablegap from this checkout and finish its lazy set-up."""
    if not os.path.isfile(os.path.join(SRC, "stablegap", "__init__.py")):
        sys.exit(f"error: no stablegap sources under {SRC}")
    sys.path.insert(0, SRC)
    import stablegap
    from stablegap import kernels

    if not os.path.abspath(stablegap.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported stablegap from {stablegap.__file__}, not {SRC}")
    return kernels


def fingerprint(seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def run_pass(workload, seed, scratch, tracer=None):
    from workloads import Pass

    p = Pass(tracer=tracer, scratch=scratch)
    try:
        workload(p, seed)
    except Exception as exc:  # a check that cannot even run fails the pass, visibly
        p.records.append({"id": "checks", "wall_s": 0.0, "failures": [f"raised {exc!r}"]})
    return p


def pass_record(p):
    return {"wall_s": p.wall_s, "ops": p.records, "facts": p.facts}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    if args.probe:
        load_package().subordination_grid()
        print("ready", flush=True)
        return 0

    sys.path.insert(0, HERE)
    kernels = load_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    scratch = os.path.dirname(os.path.abspath(args.out))
    record = {"workload": args.workload, "trace": args.trace,
              "fingerprint": fingerprint(args.seed)}

    if args.trace == 0:
        kernels.subordination_grid()
        passes = []
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < args.seconds:
            passes.append(run_pass(workload, args.seed, scratch))
        record["passes"] = [pass_record(p) for p in passes]
    else:
        from spans import Tracer

        before = Tracer.originals()
        tracer = Tracer(args.workload)
        tracer.install()
        try:
            with tracer.operation("setup"):
                kernels.subordination_grid()
        finally:
            tracer.uninstall()
        plain = run_pass(workload, args.seed, scratch)
        tracer.install()
        try:
            traced = run_pass(workload, args.seed, scratch, tracer)
        finally:
            tracer.uninstall()
        after = Tracer.originals()
        restored = [f"{getattr(o, '__name__', o)}.{a}" for (o, a), obj in before.items()
                    if after.get((o, a)) is not obj]
        differ = sorted(k for k in plain.outputs.keys() | traced.outputs.keys()
                        if plain.outputs.get(k) != traced.outputs.get(k))
        spans_path = os.path.join(scratch, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump(tracer.span_records(), f)
        record["passes"] = [pass_record(plain), pass_record(traced)]
        record["selftest"] = {"outputs_differ": differ, "not_restored": restored,
                              "ok": not differ and not restored}
        record["layers"] = tracer.layer_metrics()
        record["trace_overhead_s"] = traced.wall_s - plain.wall_s
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
        record["span_count"] = len(tracer.spans)

    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
