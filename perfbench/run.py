"""replikit benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside or outside a replikit checkout; the program is
imported from the ``src/`` directory next to ``perfbench/``. The client sends
one operation at a time and checks each output before it sends the next.
CLI operations are fresh ``python -m replikit.cli`` processes; the
``replication`` workload calls the library in process, because the ``pi``
command is almost all interpreter start-up. Inputs are generated from
``--seed`` into a scratch directory inside the checkout
(``.perfbench_tmp/``), removed at exit.

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs the operations in process, each once untraced and once with every
layer boundary wrapped (see layers.py), and reports the per-layer metrics
and the tracing overhead. Human-readable lines come first; the last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sim-normal", "sim-mixed-dump", "studies", "replication")
# Single-threaded numeric libraries: the client and each operation together
# use at most two threads (replikit's own --workers 2 pool included).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "replikit" / "cli.py").is_file():
        print(f"perfbench: no replikit sources under {src}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind so that the running child is killed and reaped and
    # the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Set before numpy is first imported, in this process and its children.
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(src))
    import client

    return client.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
