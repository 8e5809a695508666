"""Cold-start seconds of the package's entry points, paired across source trees.

    python tools/cold_start.py SRC [SRC ...]

SRC is the src/stablegap directory of a checkout. Each of ROUNDS rounds runs
every entry point, the set-up probe and then each CLI run of INVOCATIONS,
once per SRC, back to back, the SRCs in an order that rotates from round to
round. Every run is a fresh process in the environment that
perfbench/run.py gives its children (`worker_env`: no bytecode written, so
every module compiles from source, and the BLAS thread counts pinned). The
probe is this checkout's `perfbench/worker.py --probe`, started in SRC's
checkout and timed until it prints "ready", as run.py times it. A CLI run
is `python -m stablegap ARGV` with PYTHONPATH=SRC/.. in a new temporary
directory, timed until it exits, which must be with code 0. Prints the
median and the quartiles of each entry point and SRC, in seconds.
"""

from __future__ import annotations

import importlib.util
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROUNDS = 15

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_SPEC = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
_RUN = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_RUN)

# (label, argv of `python -m stablegap`)
INVOCATIONS = [
    ("eig", ["eig", "--domain", "interval:-1,1", "--n", "32"]),
    ("mc", ["mc", "--domain", "interval:-1,1", "--paths", "2000", "--dt", "1e-2",
            "--t-max", "3", "--start", "0.5", "--seed", "1"]),
    ("gap-check", ["gap-check", "--domain", "interval:-1,1", "--n", "8"]),
    ("report", ["report", "--domain", "interval:-1,1", "--n", "8"]),
]


def time_run(src, argv):
    """Seconds of one fresh run: until "ready" for the probe (argv None),
    until exit for a CLI run; RuntimeError on a failed run."""
    probe = argv is None
    cmd = [str(PERFBENCH / "worker.py"), "--probe"] if probe else ["-m", "stablegap", *argv]
    env = dict(_RUN.worker_env(), PYTHONPATH=str(src.parent))
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        # the probe imports stablegap from ./src
        with subprocess.Popen([sys.executable, *cmd], cwd=src.parents[1] if probe else tmp,
                              env=env, text=True, stderr=subprocess.DEVNULL,
                              stdout=subprocess.PIPE if probe else subprocess.DEVNULL) as proc:
            ready = proc.stdout.readline().strip() == "ready" if probe else True
            t_ready = time.perf_counter()
            # no timeout: Popen.wait with one polls in sleeps of up to 50 ms
            code = proc.wait()
        t_exit = time.perf_counter()
    if code != 0 or not ready:
        raise RuntimeError(f"{' '.join(argv or ['probe'])} failed under {src}")
    return (t_ready if probe else t_exit) - t0


def main():
    srcs = [Path(s).resolve() for s in sys.argv[1:]]
    if not srcs or any(s.name.startswith("-") for s in srcs):
        sys.exit(__doc__)
    for src in srcs:
        if not (src / "__init__.py").is_file() or src.parent.name != "src":
            sys.exit(f"error: {src} is not the src/stablegap directory of a checkout")
    entries = [("probe", None), *INVOCATIONS]
    samples = {(label, src): [] for label, _ in entries for src in srcs}
    for r in range(ROUNDS):
        order = srcs[r % len(srcs):] + srcs[:r % len(srcs)]
        for label, cmd in entries:
            for src in order:
                samples[label, src].append(time_run(src, cmd))
    print(f"{ROUNDS} rounds; seconds: median (quartiles)")
    for (label, src), xs in samples.items():
        q1, _, q3 = statistics.quantiles(xs, n=4)
        print(f"{label:10s} {statistics.median(xs):.3f} ({q1:.3f} / {q3:.3f})  {src}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
