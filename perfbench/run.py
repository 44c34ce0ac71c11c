"""Entry point of the strokebench benchmark; run it from the root of a checkout:

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 10 --trace 0

It runs one workload (see workloads.py) in a fresh child process, so peak
RSS is that workload's own, with the BLAS thread count pinned in the child's
environment before numpy loads and strokebench imported from `src/` of the
checkout. The child's last stdout line is the JSON result; the exit code is
nonzero when a correctness gate fails or strokebench's sources are missing.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

# OpenBLAS threads for every workload. The thread count changes conv output
# bytes, so it is fixed. On the 2-core machine the benchmark was sized on, a
# second thread made train-desk no faster and train-paper 13 % faster, but it
# doubled CPU time and made timings depend on load on the other core.
BLAS_THREADS = 1
TIMEOUT_S = 175


def main() -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "strokebench" / "__init__.py").is_file():
        print(f"error: no strokebench sources under {src}; run from the root "
              "of a strokebench checkout", file=sys.stderr)
        return 2
    threads = str(BLAS_THREADS)
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads)
    # Pin to one CPU, inherited by the child. On the 2-vCPU machine the
    # benchmark was sized on, a fixed numpy loop ran 25 % slower on CPU 0
    # than on CPU 1, so where the scheduler placed a run changed its timings.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = root / ".perfbench_work" / str(os.getpid())
    child = [sys.executable, str(Path(__file__).resolve().parent / "workloads.py"),
             *sys.argv[1:], "--work", str(work)]
    # SIGTERM becomes SystemExit, so the finally clause still stops the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    proc = subprocess.Popen(child, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload still running after {TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        # the child's whole session: it may have a video writer running
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
