"""SHA-256 digests of a fixed list of CLI runs, to compare two source trees.

    python tools/cli_digests.py [SRC]

SRC is a stablegap package directory (default: src/stablegap beside this
tool). Each run of INVOCATIONS is `python -m stablegap ARGV` with
PYTHONPATH=SRC/.., in a fresh temporary directory that the written files
land in. Prints one row per run: its label, its exit code, and one digest
each of its stdout, of its stderr with the stage times (`\\d+.\\d{3} s`)
masked, and of every file it wrote. Two trees whose rows agree print the
same bytes on every run. The child runs with one OpenBLAS, OpenMP and MKL
thread, since the 2D gap-check output depends on the BLAS thread count.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

# (label, argv); written files are named relative to the run's directory.
# mc-interval exits 3 (no settled decay window at 2,000 paths), and the runs
# after "exit 2" are refused
INVOCATIONS = [
    ("eig-interval", ["eig", "--domain", "interval:-1,1", "--n", "32"]),
    ("eig-rect", ["eig", "--domain", "rect:-2,2,-1,1", "--n", "8"]),
    ("eig-union", ["eig", "--domain", "intervals:-2,-0.5,0.5,2", "--n", "24"]),
    ("eig-union-separated", ["eig", "--domain", "intervals:-33,-31,31,33", "--n", "48"]),
    ("eig-union-unequal", ["eig", "--domain", "intervals:-1,1,1.5,1.55", "--n", "32"]),
    ("eig-disk", ["eig", "--domain", "disk:0,0,1", "--alpha", "2", "--n", "24"]),
    ("eig-interval-csv", ["eig", "--domain", "interval:-1,1", "--n", "32", "--csv", "phi.csv"]),
    ("gap-interval", ["gap-check", "--domain", "interval:-1,1", "--n", "32"]),
    ("gap-rect", ["gap-check", "--domain", "rect:-2,2,-1,1", "--n", "8"]),
    ("gap-union", ["gap-check", "--domain", "intervals:-2,-0.5,0.5,2", "--n", "24"]),
    ("gap-off-centre", ["gap-check", "--domain", "interval:-0.5,1.7", "--n", "24"]),
    ("mc-interval", ["mc", "--domain", "interval:-1,1", "--paths", "2000", "--seed", "1"]),
    ("mc-interval-csv", ["mc", "--domain", "interval:-1,1", "--paths", "4000", "--seed", "1",
                         "--t-max", "6", "--csv", "survival.csv"]),
    ("mc-rect", ["mc", "--domain", "rect:-2,2,-1,1", "--paths", "2000", "--seed", "1",
                 "--start", "0.5,0.2"]),
    ("report-sweep", ["report", "--domain", "rect:-2,2,-1,1", "--n", "4", "--sweep", "1,2",
                      "--plot-prefix", "sweep"]),
    # exit 2
    ("mc-start-outside", ["mc", "--domain", "interval:-1,1", "--seed", "1", "--start", "3"]),
    ("mc-start-two-coords", ["mc", "--domain", "interval:-1,1", "--seed", "1",
                             "--start", "0.1,0.2"]),
    ("mc-rect-start-one-coord", ["mc", "--domain", "rect:-2,2,-1,1", "--seed", "1"]),
    ("eig-csv-mode-9", ["eig", "--domain", "interval:-1,1", "--n", "32", "--csv", "phi.csv",
                        "--csv-mode", "9"]),
    ("gap-mode-0", ["gap-check", "--domain", "interval:-1,1", "--n", "32", "--mode", "0"]),
    ("gap-disk-alpha-1", ["gap-check", "--domain", "disk:0,0,1", "--n", "8"]),
    ("gap-x-max-in-domain", ["gap-check", "--domain", "interval:-1,1", "--n", "32",
                             "--x-max", "0.5"]),
]

_STAGE_TIME = re.compile(rb"\d+\.\d{3} s")


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def run(src, argv):
    """Run one invocation against the package directory src: (exit code,
    stdout digest, masked stderr digest, [(file name, digest)])."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve().parent), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, "-m", "stablegap", *argv], cwd=cwd, env=env,
                              capture_output=True)
        files = [(p.name, _sha(p.read_bytes())) for p in sorted(Path(cwd).iterdir())]
    return proc.returncode, _sha(proc.stdout), _sha(_STAGE_TIME.sub(b"#.### s", proc.stderr)), files


def main(argv):
    if len(argv) > 1:
        sys.exit("usage: python tools/cli_digests.py [SRC]")
    src = argv[0] if argv else Path(__file__).resolve().parents[1] / "src" / "stablegap"
    for label, args in INVOCATIONS:
        code, out, err, files = run(src, args)
        extra = "".join(f" {name}={digest}" for name, digest in files)
        print(f"{label} exit={code} stdout={out} stderr={err}{extra}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
